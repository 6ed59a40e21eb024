// Package mdt is the paper's §4 case study: a small coordination
// language supporting simple message-driven threads, whose entire
// runtime one of the authors wrote in about a day in roughly 100 lines
// of C by composing the message manager, the thread object and the
// Converse scheduler. This file is the same exercise in Go, at
// comparable length — the point being that Converse's components make a
// new language's runtime nearly free, leaving the effort where it
// belongs (compilation and optimization).
//
// The language: threads can be dynamically created; they send messages
// with a single tag to other processors; a thread can block for a
// specific tag and is continued when a matching message is received.
package mdt

import (
	"converse/internal/core"
	"converse/internal/cth"
	"converse/internal/msgmgr"
)

// MDT is the per-processor runtime of the coordination language.
type MDT struct {
	p       *core.Proc
	rt      *cth.Runtime
	mb      *msgmgr.Mailbox
	waiting map[int][]*cth.Thread
	live    int
}

// Attach creates (or returns) the processor's runtime.
func Attach(p *core.Proc) *MDT {
	if m, ok := p.Ext("converse.lang.mdt").(*MDT); ok {
		return m
	}
	m := &MDT{p: p, rt: cth.Init(p), waiting: map[int][]*cth.Thread{}}
	m.mb = msgmgr.NewMailbox(p, "mdt", m.wake)
	p.SetExt("converse.lang.mdt", m)
	return m
}

// CreateThread makes a new message-driven thread running fn and hands
// it to the Converse scheduler.
func (m *MDT) CreateThread(fn func()) {
	m.live++
	th := m.rt.Create(func() { defer func() { m.live-- }(); fn() })
	th.UseSchedulerStrategy(0)
	m.rt.Awaken(th)
}

// Send transmits data under tag, which must lie in [0, 1<<30), to
// processor pe.
func (m *MDT) Send(pe, tag int, data []byte) { m.mb.Send(pe, tag, data) }

// Recv blocks the calling thread until a message with the given tag
// arrives and returns its data.
func (m *MDT) Recv(tag int) []byte {
	for {
		if data, _, _, ok := m.mb.TryRecv(msgmgr.Wildcard, tag); ok {
			return data
		}
		self := m.rt.Self()
		m.waiting[tag] = append(m.waiting[tag], self)
		m.rt.Suspend()
	}
}

// wake awakens one thread blocked on a just-parked tag, if any.
func (m *MDT) wake(tag int) {
	if ws := m.waiting[tag]; len(ws) > 0 {
		m.waiting[tag] = ws[1:]
		m.rt.Awaken(ws[0])
	}
}

// Run drives the scheduler until all local threads have finished.
func (m *MDT) Run() { m.p.ServeUntil(func() bool { return m.live == 0 }) }
