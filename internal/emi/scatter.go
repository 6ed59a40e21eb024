// Package emi implements the Extended Machine Interface of §3.1.3: the
// calls "concerned with scatter and gather style communications,
// processor groups, and global memory operations". (The gather side —
// CmiVectorSend — lives in internal/core with the other send calls; this
// package provides scattering, spanning-tree processor groups with
// multicast and reductions, and global pointers with get/put.) Group
// operations are calls into the core's collective engine, which walks
// an explicit group's member/parent table or, for AllGroup, the
// node-derived machine tree; the EMI registers no group handlers and
// keeps no reduction state of its own.
package emi

import (
	"encoding/binary"
	"fmt"

	"converse/internal/core"
)

// Match identifies incoming messages for an advance-receive: a message
// matches when the little-endian uint32 at byte Offset equals Value.
// Multiple matches are conjunctive. Offsets are absolute within the
// message (header included), since the paper lets tags live at arbitrary
// positions.
type Match struct {
	Offset int
	Value  uint32
}

// Segment directs part of a matching message into user memory: len(Dst)
// bytes starting at byte MsgOffset of the message are copied into Dst.
type Segment struct {
	MsgOffset int
	Dst       []byte
}

// Scatter is a registered advance-receive. It is one-shot: after a
// message matches and is scattered, the registration is spent.
type Scatter struct {
	matches []Match
	segs    []Segment
	notify  int // handler to enqueue an empty message for; -1 = none
	done    bool
	src     int // source PE of the matched message (valid when done)
}

// Done reports whether a message has been scattered.
func (s *Scatter) Done() bool { return s.done }

// scatterKey locates the per-processor scatter table.
const scatterKey = "converse.emi.scatter"

type scatterTable struct {
	regs []*Scatter
}

// RegisterScatter posts an advance-receive (the EMI scatter call): when
// a network message satisfying all matches arrives, its pieces are
// copied into the segment destinations instead of being delivered to a
// handler. It is expected (although not required) that the registration
// is made before the message arrives; a registration can match a message
// that arrives at any later point.
func RegisterScatter(p *core.Proc, matches []Match, segs []Segment) *Scatter {
	return register(p, matches, segs, -1)
}

// RegisterScatterNotify is RegisterScatter plus notification: after
// scattering, a short empty message for the given handler is enqueued in
// the scheduler's queue, telling the recipient that the data has arrived
// (the paper's second scatter variant).
func RegisterScatterNotify(p *core.Proc, matches []Match, segs []Segment, handler int) *Scatter {
	return register(p, matches, segs, handler)
}

func register(p *core.Proc, matches []Match, segs []Segment, notify int) *Scatter {
	if len(matches) == 0 {
		panic("emi: scatter registration with no matches")
	}
	s := &Scatter{matches: matches, segs: segs, notify: notify}
	tbl, ok := p.Ext(scatterKey).(*scatterTable)
	if !ok {
		tbl = &scatterTable{}
		p.SetExt(scatterKey, tbl)
		p.AddPreDispatch(func(msg []byte) bool { return tbl.tryScatter(p, msg) })
	}
	tbl.regs = append(tbl.regs, s)
	return s
}

// Cancel withdraws an unmatched registration; it is a no-op once done.
func (s *Scatter) Cancel() { s.done = true }

// tryScatter is the pre-dispatch hook: the first live registration whose
// matches all hold consumes the message.
func (t *scatterTable) tryScatter(p *core.Proc, msg []byte) bool {
	for i, s := range t.regs {
		if s.done || !s.matchesMsg(msg) {
			continue
		}
		for _, seg := range s.segs {
			if seg.MsgOffset+len(seg.Dst) > len(msg) {
				panic(fmt.Sprintf("emi: pe %d: scatter segment [%d:%d] exceeds %d-byte message",
					p.MyPe(), seg.MsgOffset, seg.MsgOffset+len(seg.Dst), len(msg)))
			}
			copy(seg.Dst, msg[seg.MsgOffset:])
		}
		s.done = true
		t.regs = append(t.regs[:i], t.regs[i+1:]...)
		if s.notify >= 0 {
			p.Enqueue(core.NewMsg(s.notify, 0))
		}
		return true
	}
	return false
}

func (s *Scatter) matchesMsg(msg []byte) bool {
	for _, m := range s.matches {
		if m.Offset+4 > len(msg) {
			return false
		}
		if binary.LittleEndian.Uint32(msg[m.Offset:]) != m.Value {
			return false
		}
	}
	return true
}
