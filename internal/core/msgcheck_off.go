//go:build !msgcheck

package core

import "converse/internal/machine"

// Default build: the dynamic message-ownership checker is compiled out.
// Every hook below is an empty function the compiler inlines away, so
// the fast path pays nothing; build with -tags msgcheck to enable the
// checking implementations in msgcheck_on.go.

// MsgCheckEnabled reports whether this binary was built with the
// msgcheck dynamic ownership checker.
const MsgCheckEnabled = false

// mcStamp records that buf's current generation begins here (Alloc).
func mcStamp(buf []byte) {}

// mcFree records that buf was recycled; pooled says whether the pool
// retained it.
func mcFree(buf []byte, pooled bool) {}

// mcSpill hands a recycled buffer to the node's depot (the pool's
// second tier), recording that it left this processor.
func mcSpill(d *machine.Depot, ci int, buf []byte) { d.Put(ci, buf) }

// mcSend records that buf was handed to the machine layer.
func mcSend(buf []byte) {}

// mcAdopt records that buf arrived from the machine layer and is owned
// by this processor now.
func mcAdopt(buf []byte) {}

// mcCheck panics if buf was freed or transferred (msgcheck builds).
func mcCheck(buf []byte) {}
