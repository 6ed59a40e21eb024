// Package js writes frames only through the JSON helper
// wire.WriteJSON, never wire.WriteFrame itself: the analyzer must see
// through the helper, so this const block is still a kind plane (which
// package jsuse collides with) and a raw kind handed to WriteJSON is
// still flagged.
package js

import (
	"io"

	"converse/internal/wire"
)

const (
	JReq byte = 200 + iota
	JRep
	JErr
)

// Serve answers one request, or refuses it with the plane's error kind.
func Serve(w io.Writer, ok bool) error {
	if !ok {
		return wire.WriteJSON(w, JErr, wire.Error{Text: "refused"})
	}
	return wire.WriteJSON(w, JRep, struct{}{})
}

// Ask sends one request.
func Ask(w io.Writer) error { return wire.WriteJSON(w, JReq, struct{}{}) }

func askRaw(w io.Writer) error {
	return wire.WriteJSON(w, 203, nil) // want `raw integer literal 203 as frame kind`
}
