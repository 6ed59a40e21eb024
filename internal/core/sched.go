package core

import (
	"fmt"

	"converse/internal/queue"
)

// This file implements the unified scheduler (Csd) of §3.1.2 and the
// message-retrieval side of the machine interface (CmiGetMsg,
// CmiDeliverMsgs, CmiGetSpecificMsg), including the buffer-ownership
// protocol (CmiGrabBuffer).
//
// The scheduler's job is to repeatedly deliver messages to their
// handlers. There are two kinds of messages waiting to be scheduled:
// messages that have come from the network, and locally generated ones
// sitting in the scheduler's queue. Per the paper's pseudocode
// (Figure 3), each scheduler iteration — step — first extracts as many
// messages as it can from the network, calling the handler for each,
// and then dequeues one message from the scheduler's queue and delivers
// it to its handler. Scheduler, ScheduleUntilIdle and ServeUntil are
// three exit policies over that one step and one idle wait.

// halted reports whether the underlying machine has been stopped out
// from under this processor. The scheduler loops poll it each
// iteration (one atomic load) so that a PE churning through local
// messages — which never reaches the blocking receive where a stop
// normally surfaces — still winds down promptly on watchdog expiry,
// job abort, or machine teardown.
func (p *Proc) halted() bool { return p.pe.Stopped() }

// Scheduler runs the Converse scheduler loop (CsdScheduler). If nMsgs is
// negative, it loops — blocking when idle — until ExitScheduler is
// called from a handler. Otherwise it processes at most nMsgs messages
// (network deliveries and queue dispatches both count) and returns
// early, without blocking, once both the network and the scheduler's
// queue are empty; this is the ScheduleFor(n) form that lets a
// single-process module grant a bounded amount of execution to
// concurrent modules while it waits for its own data.
func (p *Proc) Scheduler(nMsgs int) {
	defer func() { p.exit = false }() // re-arming: scheduler may be re-entered
	for remaining := nMsgs; !p.exit && remaining != 0 && !p.halted(); {
		if p.step(&remaining, true) == 0 && (nMsgs >= 0 || !p.idleWait()) {
			return // the bounded form never blocks; a stopped machine ends the loop
		}
	}
}

// ScheduleUntilIdle runs the scheduler until there are no messages left
// in either the network's queue or the scheduler's queue, then returns.
// It also honors ExitScheduler.
func (p *Proc) ScheduleUntilIdle() {
	defer func() { p.exit = false }()
	for !p.exit && !p.halted() {
		n := -1 // unbounded within this sweep
		if p.step(&n, true) == 0 {
			return
		}
	}
}

// ExitScheduler makes the innermost running Scheduler/ScheduleUntilIdle
// return once control is back in its loop (CsdExitScheduler). It is
// normally called from a message handler.
func (p *Proc) ExitScheduler() { p.exit = true }

// ServeUntil runs the scheduler loop — network first, then the
// scheduler's queue, blocking when idle — until pred() reports true.
// Unlike GetSpecificMsg it keeps dispatching every message to its
// handler, so remote requests (one-sided operations, reductions) are
// served while waiting; this is the progress discipline synchronous EMI
// calls need to avoid cross-PE deadlock. pred is evaluated between
// messages; the call returns as soon as it holds.
func (p *Proc) ServeUntil(pred func() bool) {
	for !pred() && !p.halted() {
		one := 1
		if p.step(&one, false) == 0 && !p.idleWait() {
			panic(fmt.Sprintf("core: pe %d: machine stopped in ServeUntil", p.MyPe()))
		}
	}
}

// step is one scheduler iteration: deliver network messages within
// *budget (<0 = unbounded), then — unless that spent the budget, or a
// handler called ExitScheduler and the caller honors it — dispatch one
// message from the scheduler's queue. It returns how many messages it
// handled; zero means the processor is idle.
func (p *Proc) step(budget *int, honorExit bool) int {
	n := p.deliverFromNetwork(budget)
	if *budget == 0 || honorExit && p.exit {
		return n
	}
	if msg, ok := p.q.Deq(); ok {
		p.chargeSched()
		p.dispatch(msg)
		if *budget > 0 {
			*budget--
		}
		n++
	}
	return n
}

// idleWait blocks for the next network message and dispatches it,
// reporting false once the machine stops.
func (p *Proc) idleWait() bool {
	m, ok := p.waitNet()
	if ok && p.pickup(m) {
		p.dispatch(m.data)
	}
	return ok
}

// Enqueue places a generalized message in the scheduler's queue in FIFO
// order (CsdEnqueue). It is usually called from a handler that decides
// the message should be processed later rather than immediately; such a
// handler must call GrabBuffer first, since the CMI otherwise reclaims
// the buffer when the handler returns. Enqueue is also how local ready
// entities — threads, delayed calls — are scheduled.
func (p *Proc) Enqueue(msg []byte) {
	p.checkEnqueue(msg)
	p.trace(EvEnqueue, p.MyPe(), p.MyPe(), len(msg), HandlerOf(msg), 0)
	p.q.Enq(msg)
	p.noteEnqueue()
}

// EnqueueLifo places msg at the front of the scheduler's queue
// (CsdEnqueueLifo).
func (p *Proc) EnqueueLifo(msg []byte) {
	p.checkEnqueue(msg)
	p.trace(EvEnqueue, p.MyPe(), p.MyPe(), len(msg), HandlerOf(msg), 0)
	p.q.EnqLifo(msg)
	p.noteEnqueue()
}

// EnqueuePrio places msg in the scheduler's queue with an integer
// priority; smaller values are served first, negative values before all
// unprioritized work (CsdEnqueueGeneral with an integer priority).
func (p *Proc) EnqueuePrio(msg []byte, prio int32) {
	p.checkEnqueue(msg)
	p.trace(EvEnqueue, p.MyPe(), p.MyPe(), len(msg), HandlerOf(msg), 0)
	p.q.EnqPrio(msg, prio)
	p.noteEnqueue()
}

// EnqueueBitVec places msg in the scheduler's queue under a bit-vector
// priority (§2.3: needed by state-space search for consistent and
// monotonic speedups).
func (p *Proc) EnqueueBitVec(msg []byte, prio queue.BitVec) {
	p.checkEnqueue(msg)
	p.trace(EvEnqueue, p.MyPe(), p.MyPe(), len(msg), HandlerOf(msg), 0)
	p.q.EnqBitVec(msg, prio)
	p.noteEnqueue()
}

// QueueLen reports the number of messages in the scheduler's queue.
func (p *Proc) QueueLen() int { return p.q.Len() }

// IdleCount reports how many times the scheduler blocked idle (stats).
func (p *Proc) IdleCount() uint64 { return p.nIdle }

// checkEnqueue enforces the buffer-ownership protocol: enqueueing the
// message currently being handled without grabbing it first would let
// the CMI recycle the buffer while it sits in the queue.
func (p *Proc) checkEnqueue(msg []byte) {
	if len(msg) < HeaderSize {
		panic(fmt.Sprintf("core: pe %d: enqueue of %d-byte message, smaller than the header", p.MyPe(), len(msg)))
	}
	if top := p.topDispatch(); top != nil && !top.grabbed && sameBuffer(msg, top.msg) {
		panic(fmt.Sprintf("core: pe %d: handler enqueued its message buffer without CmiGrabBuffer; the CMI would recycle it", p.MyPe()))
	}
	if p.lastGot.msg != nil && !p.lastGot.grabbed && sameBuffer(msg, p.lastGot.msg) {
		panic(fmt.Sprintf("core: pe %d: enqueue of a retrieved message buffer without CmiGrabBuffer; the CMI would recycle it", p.MyPe()))
	}
}

// sameBuffer reports whether two slices share a backing array start.
func sameBuffer(a, b []byte) bool {
	return len(a) > 0 && len(b) > 0 && &a[0] == &b[0]
}

// --- message retrieval (CMI) ---

// DeliverMsgs retrieves messages that have arrived from the network and
// invokes the handler for each, up to maxMsgs (all available if
// maxMsgs < 0). It returns the number delivered (CmiDeliverMsgs). It
// does not touch the scheduler's queue.
func (p *Proc) DeliverMsgs(maxMsgs int) int {
	return p.deliverFromNetwork(&maxMsgs)
}

// deliverFromNetwork drains deferred and fresh network messages,
// dispatching each, decrementing *budget per message (budget<0 =
// unbounded), and returns the count delivered.
func (p *Proc) deliverFromNetwork(budget *int) int {
	p.Progress()
	n := 0
	for *budget != 0 && !p.exit && !p.halted() {
		if msg, ok := p.deferred.PopFront(); ok {
			p.dispatch(msg) // picked up (hooks run, costs charged) when deferred
		} else if m, ok := p.pullNet(); !ok {
			break
		} else if p.pickup(m) {
			p.dispatch(m.data)
		}
		n++
		if *budget > 0 {
			*budget--
		}
	}
	return n
}

// GetMsg returns a recently received network message without invoking
// its handler (CmiGetMsg), or ok=false if none is available. Buffer
// ownership stays with the CMI: the buffer may be recycled at the next
// retrieval unless GrabBuffer is called.
func (p *Proc) GetMsg() (msg []byte, ok bool) {
	p.Progress()
	if m, ok := p.deferred.PopFront(); ok {
		p.setGot(m)
		return m, true
	}
	for {
		m, ok := p.pullNet()
		if !ok {
			return nil, false
		}
		if p.pickup(m) {
			p.setGot(m.data)
			return m.data, true
		}
	}
}

// GetSpecificMsg waits until a message for the specified handler is
// available and returns it, buffering any messages meant for other
// handlers in arrival order (CmiGetSpecificMsg). It supports
// languages with no concurrency within a process (§2.1): while the
// caller blocks, no other user-space activity takes place and no
// handlers run. Ownership of the returned buffer stays with the CMI
// unless GrabBuffer is called.
func (p *Proc) GetSpecificMsg(handler int) []byte {
	p.Progress()
	// First check messages previously set aside: take the oldest match
	// and rotate the others through once, so they keep arrival order.
	var got []byte
	for n := p.deferred.Len(); n > 0; n-- {
		m, _ := p.deferred.PopFront()
		if got == nil && HandlerOf(m) == handler {
			got = m
			continue
		}
		p.deferred.PushBack(m)
	}
	if got != nil {
		p.setGot(got)
		return got
	}
	for {
		m, ok := p.waitNet()
		if !ok {
			panic(fmt.Sprintf("core: pe %d: machine stopped while waiting in GetSpecificMsg(%d)", p.MyPe(), handler))
		}
		switch {
		case !p.pickup(m):
		case HandlerOf(m.data) == handler:
			p.setGot(m.data)
			return m.data
		case IsImmediate(m.data):
			// Preemptive message: its handler runs now, even though
			// this processor is blocked waiting for another handler.
			p.dispatch(m.data)
		default:
			p.deferred.PushBack(m.data)
		}
	}
}

// waitNet returns the next network message, blocking while none is
// available. Before blocking it flushes this processor's staged packs —
// the receiver a pack is waiting on may be waiting on us — and it books
// the blocked time as one idle period. ok is false once the machine
// stops.
func (p *Proc) waitNet() (netMsg, bool) {
	for {
		if m, ok := p.pullNet(); ok {
			return m, true
		}
		p.flushAll()
		p.nIdle++
		idleFrom := p.noteIdleStart()
		pkt, ok := p.pe.Recv()
		if !ok {
			return netMsg{}, false
		}
		p.noteIdleEnd(idleFrom)
		p.ingest(pkt)
	}
}

// --- dispatch & buffer ownership ---

// pickup runs once per network message, where it is first taken off the
// network — by the scheduler, GetMsg or GetSpecificMsg alike:
// pre-dispatch hooks (EMI scatter) see it first and may consume it;
// otherwise the receive cost is charged and the receive recorded. It
// reports whether the message is still to be handled.
func (p *Proc) pickup(m netMsg) bool {
	for _, hook := range p.pre {
		if hook(m.data) {
			return false
		}
	}
	p.chargeRecv()
	p.trace(EvRecv, m.src, p.MyPe(), len(m.data), HandlerOf(m.data), 0)
	p.noteRecv(m.src, len(m.data))
	return true
}

// dispatch invokes a message's handler under the buffer-ownership
// protocol: if the handler does not grab the buffer, the CMI reclaims it
// for reuse. Dispatches nest (a handler may invoke the scheduler), so
// in-flight buffers are kept on a stack.
//
//converse:hotpath
func (p *Proc) dispatch(msg []byte) {
	id := HandlerOf(msg)
	h := p.HandlerFunc(id)
	p.ownSeq++
	//lint:ignore noallocinhot the dispatch stack grows to the nesting depth once and reuses capacity thereafter
	p.dispStack = append(p.dispStack, ownedBuf{msg: msg, seq: p.ownSeq})
	var t0 float64
	if p.met != nil {
		t0 = p.pe.Clock()
	}
	p.trace(EvBegin, p.MyPe(), p.MyPe(), len(msg), id, 0)
	h(p, msg)
	p.trace(EvEnd, p.MyPe(), p.MyPe(), len(msg), id, 0)
	if p.met != nil {
		// Only outermost dispatches add scheduler busy time; nested
		// dispatches (a handler invoking the scheduler) would double
		// count it.
		p.met.HandlerDone(id, len(msg), p.pe.Clock()-t0, len(p.dispStack) == 1)
	}
	top := p.dispStack[len(p.dispStack)-1]
	p.dispStack = p.dispStack[:len(p.dispStack)-1]
	if !top.grabbed {
		p.recycle(top.msg)
	}
}

// topDispatch returns the innermost dispatch context, or nil.
func (p *Proc) topDispatch() *ownedBuf {
	if len(p.dispStack) == 0 {
		return nil
	}
	return &p.dispStack[len(p.dispStack)-1]
}

// setGot records msg as the most recently retrieved message (GetMsg /
// GetSpecificMsg), reclaiming the previous one if it was not grabbed.
func (p *Proc) setGot(msg []byte) {
	if p.lastGot.msg != nil && !p.lastGot.grabbed {
		p.recycle(p.lastGot.msg)
	}
	p.ownSeq++
	p.lastGot = ownedBuf{msg: msg, seq: p.ownSeq}
}

// GrabBuffer transfers ownership of the most recently acquired message —
// the one being handled, or the one just returned by
// GetMsg/GetSpecificMsg, whichever is newer — from the CMI to the caller
// (CmiGrabBuffer). A handler that wants to keep its message, for example
// to enqueue it in the scheduler's queue, must call this; otherwise the
// CMI recycles the buffer when the handler returns. It returns the
// (unchanged) buffer for convenience.
func (p *Proc) GrabBuffer() []byte {
	top := p.topDispatch()
	got := &p.lastGot
	switch {
	case top == nil && got.msg == nil:
		panic(fmt.Sprintf("core: pe %d: GrabBuffer outside message handling", p.MyPe()))
	case top == nil || (got.msg != nil && got.seq > top.seq):
		got.grabbed = true
		return got.msg
	default:
		top.grabbed = true
		return top.msg
	}
}

// chargeRecv bills the Converse receive-dispatch cost.
func (p *Proc) chargeRecv() {
	if p.costs != nil {
		p.pe.Charge(p.costs.CvsRecvOverhead())
	}
}

// chargeSched bills the scheduler-queue pass (enqueue+dequeue), the
// Figure 6 experiment's extra cost.
func (p *Proc) chargeSched() {
	if p.costs != nil {
		p.pe.Charge(p.costs.SchedOverhead())
	}
}
