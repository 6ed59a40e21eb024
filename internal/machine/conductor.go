package machine

import (
	"fmt"
	"iter"
	"math/bits"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// This file runs a simulated machine: every PE's driver is a runtime
// coroutine (iter.Pull), and one conductor loop — on the goroutine that
// called Run — resumes them in a fixed round-robin order. A PE gives
// the CPU back by yielding to the conductor: from a receive that finds
// its inbox empty (it parks until a packet or a Stop arrives), or from
// a bounded run of empty polls (it stays runnable). Handing a message
// from one PE to the next is therefore a direct coroutine switch, not a
// cross-goroutine wake, and with no foreign producer the whole
// machine's interleaving is a function of the program alone.

// pollBudget is how many empty TryRecv polls a PE may make before it
// yields to the conductor. A PE spinning on state that another PE must
// change (a shared flag, a busy-polled inbox) makes progress only
// because of this yield.
const pollBudget = 64

// conductor is the machine's run queue: a bitmap of the PEs that may
// be runnable, and a wake-up line for foreign goroutines. A PE's bit
// is set when it has not started yet, when a packet is delivered to it,
// when it yields from a poll, and when the machine stops; the
// conductor clears the bit when it takes the PE. Delivery from a
// foreign goroutine (the monitor doorbell's Inject) or a Stop (the
// watchdog) also rings the conductor in case it sleeps for want of a
// marked PE.
type conductor struct {
	ready []atomic.Uint64 // bit i%64 of word i/64: PE i

	// idle is set while the conductor is about to sleep or sleeping;
	// wake holds at most one pending ring. A producer marks its PE
	// before it loads idle, and the conductor stores idle before its
	// last look at the bitmap, so either the producer rings or the
	// conductor sees the mark.
	idle atomic.Bool
	wake chan struct{}
}

func (c *conductor) init(pes int) {
	c.ready = make([]atomic.Uint64, (pes+63)/64)
	c.wake = make(chan struct{}, 1)
}

// mark flags PE pe as maybe runnable and wakes a sleeping conductor.
// Safe from any goroutine; an atomic or and an atomic load when the
// conductor is awake.
func (c *conductor) mark(pe int) {
	c.ready[pe/64].Or(1 << (pe % 64))
	if c.idle.Load() {
		select {
		case c.wake <- struct{}{}:
		default: // a ring is already pending
		}
	}
}

// take clears and returns the first marked PE at or after from in
// circular PE order, or -1 if none is marked.
func (c *conductor) take(from int) int {
	w0, b0 := from/64, from%64
	for k := 0; k <= len(c.ready); k++ {
		w := (w0 + k) % len(c.ready)
		word := c.ready[w].Load()
		switch k {
		case 0:
			word &= ^uint64(0) << b0 // from onwards
		case len(c.ready):
			word &= 1<<b0 - 1 // wrapped back round to before from
		}
		if word != 0 {
			b := bits.TrailingZeros64(word)
			c.ready[w].And(^(1 << b))
			return w*64 + b
		}
	}
	return -1
}

// abandoned is the panic value that unwinds a PE coroutine the
// conductor stops while it is parked: nothing after the park runs
// but the PE's deferred calls.
type abandoned struct{}

// Run executes start once per PE, each PE's call running as a coroutine
// of one conductor loop on the calling goroutine, and returns when all
// of them have returned. It corresponds to the process creation and
// coordination at initiation and termination points that the paper
// assigns to the MMI (CmiInit/CmiExit).
//
// If any PE panics, Run recovers it inside that PE, stops the machine
// and returns the panic with the PE's stack as an error once the other
// PEs finish. If the watchdog fires first, it stops the machine — every
// parked receive returns ok=false — and Run returns an error carrying
// each PE's block state at expiry.
//
// Only one PE runs at a time, and it runs until it receives on an
// empty inbox, polls it empty pollBudget times, or returns. A PE must
// therefore wait for another PE through the machine — a receive or a
// poll — and never block on a host primitive (a channel, a lock, a
// sleep loop) that only another PE would release.
func (m *Machine) Run(start func(pe *PE)) error {
	var failed error // the first PE panic; written by PE coroutines only
	nexts := make([]func() (struct{}, bool), len(m.pes))
	stops := make([]func(), len(m.pes))
	for i, pe := range m.pes {
		nexts[i], stops[i] = iter.Pull(func(yield func(struct{}) bool) {
			pe.yield = yield
			defer func() {
				pe.yield = nil
				r := recover()
				if _, ok := r.(abandoned); r == nil || ok {
					return
				}
				if failed == nil {
					buf := make([]byte, 16<<10)
					n := runtime.Stack(buf, false)
					failed = fmt.Errorf("machine: PE %d panicked: %v\n%s", pe.id, r, buf[:n])
				}
				m.Stop() // the other PEs' receives return ok=false
			}()
			start(pe)
		})
		pe.polls, pe.spun = 0, true // runnable until its first park
		m.cd.mark(pe.id)
	}
	// No PE coroutine outlives Run: one still parked here (Run is
	// unwinding from a Goexit out of a PE) is unwound by its stop.
	defer func() {
		for _, stop := range stops {
			stop()
		}
	}()

	var (
		wdMu   sync.Mutex
		wdDesc string // the block states at watchdog expiry
	)
	if m.watchdog > 0 {
		t := time.AfterFunc(m.watchdog, func() {
			// Snapshot the block states before Stop makes every parked
			// receive runnable: the blocked-in-recv flags are the most
			// important part of the diagnosis.
			desc := m.DescribeBlocked()
			wdMu.Lock()
			wdDesc = desc
			wdMu.Unlock()
			m.Stop()
		})
		defer t.Stop()
	}

	m.conduct(nexts)

	if failed != nil {
		return failed
	}
	wdMu.Lock()
	defer wdMu.Unlock()
	if wdDesc != "" {
		return fmt.Errorf("machine: watchdog expired after %v (likely deadlock: %s)", m.watchdog, wdDesc)
	}
	return nil
}

// conduct is the conductor loop: it resumes the runnable PEs in
// circular PE order, each after the one it resumed last, until every
// coroutine has returned, and sleeps for a foreign ring when no PE is
// marked.
func (m *Machine) conduct(nexts []func() (struct{}, bool)) {
	c := &m.cd
	for live, at := len(nexts), 0; live > 0; {
		i := c.take(at)
		if i < 0 {
			c.idle.Store(true)
			if i = c.take(at); i < 0 {
				<-c.wake
			}
			c.idle.Store(false)
			if i < 0 {
				continue
			}
		}
		at = (i + 1) % len(nexts)
		// A mark may be stale: the PE took its packet before it parked.
		if nexts[i] == nil || !m.pes[i].runnable() {
			continue
		}
		if _, ok := nexts[i](); !ok {
			nexts[i] = nil
			live--
		}
	}
}

// runnable reports whether the conductor should resume the PE: it has
// not started yet or gave up the CPU from a poll (spun), a packet is
// waiting, or the machine has stopped.
func (pe *PE) runnable() bool {
	return pe.spun || pe.inbox.Len() > 0 || pe.inbox.Stopped()
}

// park gives the CPU back to the conductor and returns when the
// conductor resumes this PE. spun marks a poll's yield, which leaves
// the PE runnable; otherwise the PE sleeps in a receive until a packet
// or a Stop arrives. It may be called from any context of the PE's
// coroutine, a cth thread's included: the yield switches straight back
// to the conductor.
func (pe *PE) park(spun bool) {
	if pe.yield == nil {
		panic(fmt.Sprintf("machine: pe %d: blocking receive outside Machine.Run", pe.id))
	}
	pe.polls, pe.spun = 0, spun
	if spun {
		pe.m.cd.mark(pe.id)
	} else {
		pe.inbox.recvWait.Store(true)
	}
	ok := pe.yield(struct{}{})
	if !spun {
		pe.inbox.recvWait.Store(false)
	}
	if !ok {
		panic(abandoned{})
	}
}
