// Package jsuse declares a kind that collides with package js's plane,
// which it can only see through the fact js exports: proof that a
// plane written solely with wire.WriteJSON is exported like any other.
package jsuse

import (
	"io"

	"converse/internal/lint/testdata/src/wirekinds/js"
	"converse/internal/wire"
)

const UK byte = 201 // want `frame kind UK = 201 collides with .*/wirekinds/js\.JRep`

func send(w io.Writer) {
	wire.WriteJSON(w, UK, nil)
	js.Ask(w)
}
