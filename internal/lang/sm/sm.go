// Package sm implements SM, the paper's "simple messaging layer": a
// single-process-module (SPM) messaging system in the no-concurrency
// category of §2.1. A module blocks in Recv for a specific message;
// while it blocks, no other user-space activity takes place on the
// processor — messages for other handlers are set aside by the CMI and
// messages for SM with the wrong tag are parked in the layer's mailbox
// (msgmgr.Mailbox).
//
// The API is tag+source addressed, which also covers the NX-style
// (csend/crecv) layer the paper lists alongside SM and PVM: all three
// are SPM messaging layers over the same MMI calls.
package sm

import (
	"converse/internal/core"
	"converse/internal/msgmgr"
)

// Wildcard matches any tag or source in Recv/Probe.
const Wildcard = msgmgr.Wildcard

// SM is the per-processor state of the simple messaging layer. Attach
// one on every processor at the same point of startup.
type SM struct {
	p  *core.Proc
	mb *msgmgr.Mailbox
}

// extKey locates the SM state in a Proc.
const extKey = "converse.lang.sm"

// Attach creates (or returns) the processor's SM layer.
func Attach(p *core.Proc) *SM {
	if s, ok := p.Ext(extKey).(*SM); ok {
		return s
	}
	s := &SM{p: p, mb: msgmgr.NewMailbox(p, "sm", nil)}
	p.SetExt(extKey, s)
	return s
}

// Proc returns the layer's processor.
func (s *SM) Proc() *core.Proc { return s.p }

// Send transmits data to processor dst under the given tag, which must
// lie in [0, 1<<30). The data is copied; the caller may reuse it
// immediately.
func (s *SM) Send(dst, tag int, data []byte) { s.mb.Send(dst, tag, data) }

// Broadcast sends data under tag to every other processor.
func (s *SM) Broadcast(tag int, data []byte) {
	for dst := 0; dst < s.p.NumPes(); dst++ {
		if dst != s.p.MyPe() {
			s.Send(dst, tag, data)
		}
	}
}

// Recv blocks until a message matching tag (or Wildcard) is available
// and returns its data, source and actual tag. Messages with other tags
// that arrive meanwhile are buffered in arrival order.
func (s *SM) Recv(tag int) (data []byte, src, rettag int) {
	return s.mb.Recv(Wildcard, tag)
}

// RecvFrom is Recv restricted to a particular source processor (the
// NX/PVM-style addressing); both tag and src may be Wildcard.
func (s *SM) RecvFrom(src, tag int) (data []byte, rettag int) {
	data, _, rettag = s.mb.Recv(src, tag)
	return data, rettag
}

// Probe reports whether a message matching tag is buffered or can be
// drained from the network without blocking, returning its size and tag.
// Messages for other handlers that it drains are enqueued for them.
func (s *SM) Probe(tag int) (size, rettag int, ok bool) {
	size, _, rettag, ok = s.mb.Probe(Wildcard, tag)
	return size, rettag, ok
}

// Barrier synchronizes all processors: the core Barrier, an AllReduce
// over the two-level spanning tree. Like every core collective it serves
// the scheduler while it waits, so messages for other modules' handlers
// run meanwhile; SM messages that arrive are parked for a later Recv.
func (s *SM) Barrier() { s.p.Barrier() }
