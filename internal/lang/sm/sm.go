// Package sm implements SM, the paper's "simple messaging layer": a
// single-process-module (SPM) messaging system in the no-concurrency
// category of §2.1. A module blocks in Recv for a specific message;
// while it blocks, no other user-space activity takes place on the
// processor — messages for other handlers are buffered by the CMI
// (CmiGetSpecificMsg) and messages for SM with the wrong tag are parked
// in a message manager.
//
// The API is tag+source addressed, which also covers the NX-style
// (csend/crecv) layer the paper lists alongside SM and PVM: all three
// are SPM messaging layers over the same MMI calls.
package sm

import (
	"encoding/binary"
	"fmt"

	"converse/internal/core"
	"converse/internal/msgmgr"
)

// Wildcard matches any tag or source in Recv/Probe.
const Wildcard = msgmgr.Wildcard

// SM is the per-processor state of the simple messaging layer. Attach
// one on every processor at the same point of startup.
type SM struct {
	p  *core.Proc
	h  int
	mm *msgmgr.M
}

// tagLimit bounds user tags: they must lie in [0, tagLimit).
const tagLimit = 1 << 30

// wire format of an SM message payload: [tag u32][src u32][data...]
const smHeader = 8

// extKey locates the SM state in a Proc.
const extKey = "converse.lang.sm"

// Attach creates (or returns) the processor's SM layer.
func Attach(p *core.Proc) *SM {
	if s, ok := p.Ext(extKey).(*SM); ok {
		return s
	}
	s := &SM{p: p, mm: msgmgr.New()}
	s.h = p.RegisterHandler(func(p *core.Proc, msg []byte) {
		// SM messages are consumed by Recv, never dispatched; reaching
		// here means the program mixed Scheduler dispatch with pending
		// SM traffic — park the message for a later Recv.
		s.park(p.GrabBuffer())
	})
	p.SetExt(extKey, s)
	return s
}

// Proc returns the layer's processor.
func (s *SM) Proc() *core.Proc { return s.p }

// Send transmits data to processor dst under the given tag. The data is
// copied; the caller may reuse it immediately.
func (s *SM) Send(dst, tag int, data []byte) {
	if tag < 0 || tag >= tagLimit {
		panic(fmt.Sprintf("sm: pe %d: tag %d outside the user range [0, 1<<30)", s.p.MyPe(), tag))
	}
	msg := core.NewMsg(s.h, smHeader+len(data))
	pl := core.Payload(msg)
	binary.LittleEndian.PutUint32(pl[0:], uint32(tag))
	binary.LittleEndian.PutUint32(pl[4:], uint32(s.p.MyPe()))
	copy(pl[smHeader:], data)
	s.p.SyncSendAndFree(dst, msg)
}

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
	return s.recv(tag, Wildcard)
}

// RecvFrom is Recv restricted to a particular source processor (the
// NX/PVM-style addressing); both tag and src may be Wildcard.
func (s *SM) RecvFrom(src, tag int) (data []byte, rettag int) {
	d, _, rt := s.recv(tag, src)
	return d, rt
}

func (s *SM) recv(tag, src int) (data []byte, msgSrc, rettag int) {
	for {
		if msg, t1, t2, ok := s.mm.Get2(tag, src); ok {
			return msg[smHeader:], t2, t1
		}
		s.p.GetSpecificMsg(s.h)
		buf := s.p.GrabBuffer()
		pl := core.Payload(buf)
		mtag := int(binary.LittleEndian.Uint32(pl[0:]))
		msrc := int(binary.LittleEndian.Uint32(pl[4:]))
		if (tag == Wildcard || mtag == tag) && (src == Wildcard || msrc == src) {
			return pl[smHeader:], msrc, mtag
		}
		s.mm.Put2(pl, mtag, msrc)
	}
}

// park stores an already-grabbed SM message for a later Recv.
func (s *SM) park(buf []byte) {
	pl := core.Payload(buf)
	mtag := int(binary.LittleEndian.Uint32(pl[0:]))
	msrc := int(binary.LittleEndian.Uint32(pl[4:]))
	s.mm.Put2(pl, mtag, msrc)
}

// Probe reports whether a message matching tag is buffered or can be
// drained from the network without blocking, returning its size and tag.
func (s *SM) Probe(tag int) (size, rettag int, ok bool) {
	s.drain()
	size, rettag, ok = s.mm.Probe(tag)
	if ok {
		size -= smHeader
	}
	return size, rettag, ok
}

// drain moves all currently available SM network messages into the
// message manager without blocking. Non-SM messages stay deferred for
// their own handlers.
func (s *SM) drain() {
	for {
		msg, ok := s.p.GetMsg()
		if !ok {
			return
		}
		if core.HandlerOf(msg) == s.h {
			s.park(s.p.GrabBuffer())
			continue
		}
		// Not ours: hand it to its handler the way the scheduler
		// would. SPM purists would buffer it, but Probe is already an
		// "impatient" call; dispatching keeps the system live.
		s.p.GrabBuffer()
		s.p.Enqueue(msg)
	}
}

// Barrier synchronizes all processors: the core Barrier, an AllReduce
// over the two-level spanning tree. Like every core collective it serves
// the scheduler while it waits, so messages for other modules' handlers
// run meanwhile; SM messages that arrive are parked for a later Recv.
func (s *SM) Barrier() { s.p.Barrier() }
