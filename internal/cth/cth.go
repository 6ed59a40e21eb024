// Package cth implements Converse thread objects (§3.2.2): the ability
// to suspend and resume a thread of control, deliberately divorced from
// any scheduling policy, locks, or other thread-package baggage. A
// language runtime composes thread objects with the unified scheduler
// and a message manager to build its own threading semantics (see
// internal/lang/tsm and internal/lang/mdt).
//
// The paper's implementation encapsulates a stack and program counter
// via setjmp/longjmp. Here each thread object is a runtime coroutine
// (iter.Pull) with its own stack, driven by the processor's main
// (scheduler) context: main resumes a thread by pulling its coroutine,
// and a thread gives up control by yielding the context that should run
// next. A switch from one thread to another therefore passes through
// main, which keeps pulling until control comes back to it. Exactly one
// context runs per processor at any instant, and a panic in a thread
// surfaces in main, where the machine driver reports it. This preserves
// exactly what the paper needs from threads (user-level suspend/resume
// with pluggable awaken/suspend strategies); only the stack-switch
// mechanism differs.
//
// Per the paper, CthAwaken and CthSuspend work as a pair around a
// "ready pool": by default Awaken pushes onto a FIFO queue and Suspend
// pops it, resuming the main context when the pool is empty. A
// per-thread strategy (SetStrategy) can redirect both — most usefully to
// the Converse scheduler's queue, making a ready thread a generalized
// message (UseSchedulerStrategy), which is how the unified scheduler
// schedules threads and message-driven objects together.
package cth

import (
	"encoding/binary"
	"fmt"
	"iter"
	"runtime"
	"slices"

	"converse/internal/core"
	"converse/internal/queue"
)

// extKey locates a processor's thread runtime in its Proc.
const extKey = "converse.cth"

// Runtime is the per-processor thread runtime. Obtain one with Init (or
// Get) on the processor's own Proc; like everything in Converse it is
// strictly processor-local.
type Runtime struct {
	p       *core.Proc
	main    *Thread // the driver/scheduler context
	current *Thread
	ready   queue.Deque[*Thread] // default ready pool (FIFO)

	resumeHandler int // dispatches "ready thread" generalized messages
	threads       map[uint32]*Thread
	nextID        uint32
	next          *Thread // strategy's pick, consumed by pickNext

	created, switches uint64 // statistics
}

// Thread is a thread object: a suspendable, resumable thread of control
// (CthCreate's THREAD). The zero value is not usable; create threads
// with Runtime.Create.
type Thread struct {
	rt   *Runtime
	id   uint32
	fn   func()
	done bool

	// pull runs the thread's coroutine until it yields the next context
	// (ok is false once fn has returned); main creates it, and stop, on
	// the first resume. stop unwinds a coroutine still suspended when
	// the processor's driver returns (release). yield, set inside the
	// coroutine, is how the thread hands that next context back to
	// main; it reports false once stop was called.
	pull  func() (next *Thread, ok bool)
	stop  func()
	yield func(next *Thread) bool

	// suspendFn picks and resumes the next context when this thread
	// suspends; awakenFn stores the thread where suspendFn (of others)
	// will find it. Both default to the shared FIFO ready pool
	// (CthSetStrategy).
	suspendFn func(t *Thread)
	awakenFn  func(t *Thread)
}

// Init creates (or returns the existing) thread runtime for a processor
// (CthInit). It registers the resume handler used by the
// scheduler-strategy integration, so like all handler registration it
// should happen in the same order on every processor.
func Init(p *core.Proc) *Runtime {
	if rt, ok := p.Ext(extKey).(*Runtime); ok {
		return rt
	}
	rt := &Runtime{p: p, threads: make(map[uint32]*Thread)}
	rt.main = &Thread{rt: rt, id: 0}
	rt.main.suspendFn = rt.defaultSuspend
	rt.main.awakenFn = rt.defaultAwaken
	rt.current = rt.main
	rt.resumeHandler = p.RegisterHandler(resumeFromMsg)
	p.SetExt(extKey, rt)
	p.AtExit(rt.release)
	return rt
}

// Get returns the processor's thread runtime, panicking if Init has not
// been called.
func Get(p *core.Proc) *Runtime {
	rt, ok := p.Ext(extKey).(*Runtime)
	if !ok {
		panic(fmt.Sprintf("cth: pe %d: thread runtime not initialized (call cth.Init)", p.MyPe()))
	}
	return rt
}

// Proc returns the runtime's processor.
func (rt *Runtime) Proc() *core.Proc { return rt.p }

// Create builds a new thread object that will execute fn when first
// resumed (CthCreate). The thread is not scheduled: resume it directly,
// or Awaken it into a ready pool. Coroutine stacks grow on demand, so
// CthCreateOfSize's stack-size parameter has no equivalent here.
func (rt *Runtime) Create(fn func()) *Thread {
	if fn == nil {
		panic("cth: Create(nil)")
	}
	rt.nextID++
	t := &Thread{rt: rt, id: rt.nextID, fn: fn}
	t.suspendFn = rt.defaultSuspend
	t.awakenFn = rt.defaultAwaken
	rt.threads[t.id] = t
	rt.created++
	rt.emit(core.EvThreadCreate, t)
	if m := rt.p.Metrics(); m != nil {
		m.ThreadCreated()
	}
	return t
}

// Self returns the currently executing thread (CthSelf). In the main
// context it returns the main thread object.
func (rt *Runtime) Self() *Thread { return rt.current }

// IsMain reports whether t is the processor's main (scheduler) context.
func (t *Thread) IsMain() bool { return t == t.rt.main }

// Done reports whether the thread has exited.
func (t *Thread) Done() bool { return t.done }

// ID returns the thread's processor-local identifier.
func (t *Thread) ID() uint32 { return t.id }

// Resume immediately transfers control to t (CthResume); the caller's
// context blocks until something transfers control back. t runs until
// it, in turn, gives up control via Resume, Suspend, Yield or Exit.
func (rt *Runtime) Resume(t *Thread) {
	if t.done {
		panic(fmt.Sprintf("cth: pe %d: resume of exited thread %d", rt.p.MyPe(), t.id))
	}
	if t == rt.current {
		return
	}
	if !rt.switchTo(t) {
		panic(exitSentinel{}) // released at processor end
	}
}

// switchTo transfers control to t and returns when control comes back
// to the caller's context. A thread yields t to main. Main is the
// trampoline: it enters and pulls each context in turn — the one a
// thread yields, or the one an exited thread's strategy picks — until
// control is back at main. A thread's panic comes out of pull, in main.
// It reports false when the calling thread was released instead of
// resumed; the caller then unwinds it with the Exit sentinel.
//
//converse:hotpath
func (rt *Runtime) switchTo(t *Thread) bool {
	if cur := rt.current; cur != rt.main {
		return cur.yield(t)
	}
	for t != rt.main {
		rt.enter(t)
		if t.pull == nil {
			t.pull, t.stop = iter.Pull(t.body) // once, on the first resume; the coroutine ends with fn
		}
		next, ok := t.pull()
		if !ok {
			next = rt.exit(t)
		}
		t = next
	}
	rt.enter(rt.main)
	return true
}

// enter records t as the running context: one context switch.
//
//converse:hotpath
func (rt *Runtime) enter(t *Thread) {
	rt.current = t
	rt.switches++
	rt.emit(core.EvThreadResume, t)
	if m := rt.p.Metrics(); m != nil {
		m.ThreadSwitch()
	}
}

// exitSentinel is the panic value Exit uses to unwind a thread's stack,
// running its deferred calls, before the coroutine ends.
type exitSentinel struct{}

// body is the coroutine of a thread object. Exit ends it like a return;
// a real panic is re-raised with the thread's stack, and pull re-raises
// that in main.
func (t *Thread) body(yield func(*Thread) bool) {
	t.yield = yield
	defer func() {
		r := recover()
		if _, isExit := r.(exitSentinel); r == nil || isExit {
			return
		}
		buf := make([]byte, 16<<10)
		n := runtime.Stack(buf, false)
		panic(fmt.Sprintf("cth: pe %d: panic in thread: %v\n%s", t.rt.p.MyPe(), r, buf[:n]))
	}()
	t.fn()
}

// exit retires t, whose coroutine has ended, and returns the context its
// suspend strategy picks to run next.
func (rt *Runtime) exit(t *Thread) *Thread {
	t.done = true
	delete(rt.threads, t.id)
	rt.emit(core.EvThreadSuspend, t)
	return rt.pickNext(t)
}

// release unwinds, in creation order, every thread still suspended when
// the processor's driver returns, so no coroutine outlives its
// processor: stop makes the thread's pending switch report false, and
// the thread unwinds as if by Exit — its deferred calls run, nothing
// after the switch does.
func (rt *Runtime) release() {
	ids := make([]uint32, 0, len(rt.threads))
	for id, t := range rt.threads {
		if t.stop != nil {
			ids = append(ids, id)
		}
	}
	slices.Sort(ids)
	for _, id := range ids {
		t := rt.threads[id]
		rt.current = t
		t.stop()
		t.done = true
		delete(rt.threads, id)
	}
	rt.current = rt.main
}

// Suspend stops the current thread and transfers control to another
// (CthSuspend). Which one is chosen by the current thread's suspend
// strategy: by default, the thread longest in the ready pool, or the
// main context if the pool is empty. Control returns when somebody
// resumes this thread again. Suspending the main context is an error —
// the scheduler is the fallback target, it cannot itself wait.
//
//converse:hotpath
func (rt *Runtime) Suspend() {
	cur := rt.current
	if cur == rt.main {
		panic(fmt.Sprintf("cth: pe %d: Suspend called from the main (scheduler) context", rt.p.MyPe()))
	}
	rt.emit(core.EvThreadSuspend, cur)
	next := rt.pickNext(cur)
	if next == cur {
		return // the strategy chose to keep running this thread
	}
	rt.p.NoteThreadsSuspended(1)
	resumed := rt.switchTo(next)
	rt.p.NoteThreadsSuspended(-1)
	if !resumed {
		panic(exitSentinel{}) // released at processor end
	}
}

// pickNext runs cur's suspend strategy and returns the chosen context.
func (rt *Runtime) pickNext(cur *Thread) *Thread {
	rt.next = nil
	cur.suspendFn(cur)
	next := rt.next
	rt.next = nil
	if next == nil {
		next = rt.main
	}
	return next
}

// Awaken adds t to its ready pool — by default the runtime's FIFO pool —
// constituting permission for Suspend to transfer control to it
// (CthAwaken). It must only be called when it is acceptable for t to
// continue execution.
func (rt *Runtime) Awaken(t *Thread) {
	if t.done {
		panic(fmt.Sprintf("cth: pe %d: awaken of exited thread %d", rt.p.MyPe(), t.id))
	}
	t.awakenFn(t)
}

// Yield awakens the current thread and immediately suspends it
// (CthYield): control may pass to other ready threads and will normally
// come back.
//
//converse:hotpath
func (rt *Runtime) Yield() {
	rt.Awaken(rt.current)
	rt.Suspend()
}

// Exit terminates the current thread (CthExit): the thread ceases to
// exist — its deferred calls run — and control transfers as if by
// Suspend, honoring the thread's suspend strategy. Exit does not
// return. Calling Exit from the main context panics.
func (rt *Runtime) Exit() {
	if rt.current == rt.main {
		panic(fmt.Sprintf("cth: pe %d: Exit called from the main context", rt.p.MyPe()))
	}
	// Unwind via a sentinel panic so the thread's deferred calls run
	// before its coroutine ends.
	panic(exitSentinel{})
}

// SetStrategy overrides how Awaken stores t and how Suspend (called by
// t) finds the next thread (CthSetStrategy). awaken must store t
// somewhere Suspend-strategies can find it; suspend must locate a ready
// thread and resume it via ResumeFromStrategy, or fall back to
// ResumeMain. Only the selection order may be altered, not the
// semantics. Either function may be nil to keep the default.
func (t *Thread) SetStrategy(suspend func(*Thread), awaken func(*Thread)) {
	if suspend != nil {
		t.suspendFn = suspend
	}
	if awaken != nil {
		t.awakenFn = awaken
	}
}

// ResumeFromStrategy selects t as the next context to run. It may only
// be called from inside a suspend strategy; the runtime performs the
// actual switch after the strategy returns.
func (rt *Runtime) ResumeFromStrategy(t *Thread) {
	if t.done {
		panic(fmt.Sprintf("cth: pe %d: strategy resumed exited thread %d", rt.p.MyPe(), t.id))
	}
	rt.next = t
}

// ResumeMain selects the main (scheduler) context as the next to run,
// from inside a suspend strategy.
func (rt *Runtime) ResumeMain() { rt.next = rt.main }

// defaultSuspend pops the FIFO ready pool, falling back to main.
func (rt *Runtime) defaultSuspend(*Thread) {
	for {
		next, ok := rt.ready.PopFront()
		if !ok {
			rt.ResumeMain()
			return
		}
		if next.done {
			continue // awakened then exited through another path
		}
		rt.ResumeFromStrategy(next)
		return
	}
}

// defaultAwaken pushes onto the FIFO ready pool.
func (rt *Runtime) defaultAwaken(t *Thread) { rt.ready.PushBack(t) }

// ReadyLen reports the number of threads in the default ready pool.
func (rt *Runtime) ReadyLen() int { return rt.ready.Len() }

// Stats reports the number of threads created and context switches
// performed on this processor.
func (rt *Runtime) Stats() (created, switches uint64) { return rt.created, rt.switches }

// emit sends a thread trace event if tracing is on.
func (rt *Runtime) emit(kind core.EventKind, t *Thread) {
	if tr := rt.p.Tracer(); tr != nil {
		tr.Event(core.TraceEvent{
			Kind: kind, T: rt.p.TimerUs(), PE: rt.p.MyPe(), Aux: int(t.id),
		})
	}
}

// --- scheduler integration: a ready thread is a generalized message ---

// UseSchedulerStrategy makes t schedule through the Converse scheduler:
// Awaken enqueues a generalized message (a "scheduler entry for a ready
// thread", §3.1.1) with the given integer priority, and the scheduler
// resumes the thread when the message is dispatched; Suspend falls back
// to the default pool-then-main behaviour, so control returns to the
// scheduler when nothing else is ready. This is the unification that
// lets threads and message-driven objects interleave under one
// scheduler.
func (t *Thread) UseSchedulerStrategy(prio int32) {
	rt := t.rt
	t.SetStrategy(nil, func(t *Thread) {
		msg := core.NewMsg(rt.resumeHandler, 4)
		binary.LittleEndian.PutUint32(core.Payload(msg), t.id)
		if prio == 0 {
			rt.p.Enqueue(msg)
		} else {
			rt.p.EnqueuePrio(msg, prio)
		}
	})
}

// resumeFromMsg is the handler behind UseSchedulerStrategy.
func resumeFromMsg(p *core.Proc, msg []byte) {
	rt := Get(p)
	id := binary.LittleEndian.Uint32(core.Payload(msg))
	t, ok := rt.threads[id]
	if !ok || t.done {
		return // thread exited before its wake-up message was scheduled
	}
	rt.Resume(t)
}
