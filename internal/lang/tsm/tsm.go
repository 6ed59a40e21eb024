// Package tsm implements tSM, the threaded simple-messaging package of
// §3.2.2: the paper's worked example of a language runtime composed from
// the thread object, the message manager and the unified scheduler.
// Users see two calls — Create (tSMCreate: make a thread and schedule it
// via the Converse scheduler) and Recv (tSMReceive: block the calling
// thread waiting for a particular tagged message) — and never touch the
// low-level thread-object calls.
//
// While a tSM thread blocks, other threads and message-driven modules on
// the same processor keep running under the scheduler: this is the
// implicit control regime of §2.2.
package tsm

import (
	"fmt"

	"converse/internal/core"
	"converse/internal/cth"
	"converse/internal/msgmgr"
)

// Wildcard matches any tag in Recv.
const Wildcard = msgmgr.Wildcard

// TSM is the per-processor threaded-messaging runtime.
type TSM struct {
	p  *core.Proc
	rt *cth.Runtime
	mb *msgmgr.Mailbox

	waiting []waiter
	live    int
}

type waiter struct {
	tag int
	th  *cth.Thread
}

// extKey locates the tSM state in a Proc.
const extKey = "converse.lang.tsm"

// Attach creates (or returns) the processor's tSM runtime, initializing
// the thread runtime if needed.
func Attach(p *core.Proc) *TSM {
	if ts, ok := p.Ext(extKey).(*TSM); ok {
		return ts
	}
	ts := &TSM{p: p, rt: cth.Init(p)}
	ts.mb = msgmgr.NewMailbox(p, "tsm", ts.wake)
	p.SetExt(extKey, ts)
	return ts
}

// Proc returns the runtime's processor.
func (ts *TSM) Proc() *core.Proc { return ts.p }

// Threads returns the underlying thread runtime (for locks, condition
// variables, Yield, ...).
func (ts *TSM) Threads() *cth.Runtime { return ts.rt }

// Live reports the number of tSM threads on this processor that have
// not yet finished.
func (ts *TSM) Live() int { return ts.live }

// Create makes a new tSM thread executing fn and schedules it for
// execution via the Converse scheduler (tSMCreate). The thread starts
// running the next time the scheduler picks it up.
func (ts *TSM) Create(fn func()) *cth.Thread {
	ts.live++
	th := ts.rt.Create(func() {
		defer func() { ts.live-- }()
		fn()
	})
	th.UseSchedulerStrategy(0)
	ts.rt.Awaken(th)
	return th
}

// Send transmits data under tag, which must lie in [0, 1<<30), to a tSM
// runtime on processor dst. It may be called from threads or from the
// main context.
func (ts *TSM) Send(dst, tag int, data []byte) { ts.mb.Send(dst, tag, data) }

// Recv blocks the calling thread until a message matching tag (or
// Wildcard) is available and returns its data, source, and actual tag
// (tSMReceive). It must be called from a tSM thread; while it waits,
// the processor keeps scheduling other work.
func (ts *TSM) Recv(tag int) (data []byte, src, rettag int) {
	self := ts.rt.Self()
	if self.IsMain() {
		panic(fmt.Sprintf("tsm: pe %d: Recv called outside a tSM thread", ts.p.MyPe()))
	}
	for {
		if data, src, rettag, ok := ts.mb.TryRecv(Wildcard, tag); ok {
			return data, src, rettag
		}
		ts.waiting = append(ts.waiting, waiter{tag: tag, th: self})
		ts.rt.Suspend()
	}
}

// wake awakens the first thread whose Recv matches a just-parked tag.
func (ts *TSM) wake(tag int) {
	for i, w := range ts.waiting {
		if w.tag == Wildcard || w.tag == tag {
			ts.waiting = append(ts.waiting[:i], ts.waiting[i+1:]...)
			ts.rt.Awaken(w.th)
			return
		}
	}
}

// Run drives the scheduler until every tSM thread on this processor has
// finished. Remote messages keep being served throughout, so threads on
// different processors can converse freely.
func (ts *TSM) Run() {
	ts.p.ServeUntil(func() bool { return ts.live == 0 })
}
