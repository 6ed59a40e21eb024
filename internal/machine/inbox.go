package machine

import (
	"runtime"
	"sync"
	"sync/atomic"

	"converse/internal/queue"
)

// Inbox is a bounded lock-free MPSC inbound packet queue with a
// mutex-protected overflow behind it — the structure behind every PE's
// inbound network queue, extracted so any substrate hosting processors
// in-process can reuse it: the simulated PE and the network machine
// layer's intra-node delivery path (internal/mnet in nodes×PEs mode)
// share this one implementation.
//
// Producers (Put) are any goroutines; the consumer side (TryPop, Pop,
// and the pending staging they drain into) belongs to exactly one
// consumer goroutine. Senders touch the mutex only when the ring is
// full or the consumer is blocked asleep; the consumer drains the ring
// in whole batches into a consumer-local pending queue, preserving
// per-producer FIFO order across both paths (see refill).
type Inbox struct {
	ring *packetRing

	// mu guards overflow and the sleep/wake handshake. cond is
	// signalled by the one producer that claims a sleep's wake, and
	// broadcast by Stop.
	mu       sync.Mutex
	cond     *sync.Cond
	overflow queue.Deque[Packet]

	// parks counts the consumer's sleep announcements and wakes the
	// producers' claimed wakes (both under mu); a claim consumes an
	// announcement, so wakes never exceeds parks (stress tests).
	parks, wakes uint64

	// overflowN mirrors overflow.Len() atomically. While nonzero, every
	// producer routes through the overflow queue (not the ring), so a
	// producer's packets are never split ring-after-overflow — the
	// property that keeps per-pair FIFO intact across the fallback.
	overflowN atomic.Int64

	// sleeping is set (under mu) by the consumer before blocking in
	// Pop. A producer that finds it set after publishing claims the
	// wake by swapping it back to false, so exactly one producer per
	// sleep takes the mutex to wake the consumer; the rest see false
	// and go on without touching mu.
	sleeping atomic.Bool

	// pending is the consumer-local staging queue: refill moves whole
	// ring batches (then any overflow) into it; pops take from it with
	// no synchronization. pendingN mirrors its length for Len readers
	// on other goroutines.
	pending  queue.Deque[Packet]
	pendingN atomic.Int64

	// recvWait is set while the consumer sleeps inside Pop, for
	// block-state diagnostics.
	recvWait atomic.Bool

	stopped atomic.Bool
}

// NewInbox builds an inbox with the standard ring capacity.
func NewInbox() *Inbox {
	ib := &Inbox{ring: newPacketRing(ringCapacity)}
	ib.cond = sync.NewCond(&ib.mu)
	return ib
}

// Put publishes a packet and wakes the consumer if it is blocked. The
// lock-free ring is the fast path; while any packet sits in overflow,
// all producers take the overflow path so a single producer's packets
// cannot be consumed out of order. Safe from any goroutine.
func (ib *Inbox) Put(pkt Packet) {
	if ib.overflowN.Load() > 0 || !ib.ring.tryPush(pkt) {
		ib.mu.Lock()
		ib.overflow.PushBack(pkt)
		ib.overflowN.Add(1)
		ib.mu.Unlock()
	}
	// The plain load keeps the common no-sleeper case read-only; the
	// swap picks the one producer that wakes this sleep. It takes mu
	// before signalling, and the consumer holds mu from announcing the
	// sleep until it waits, so the signal cannot fall in between.
	if ib.sleeping.Load() && ib.sleeping.CompareAndSwap(true, false) {
		ib.mu.Lock()
		ib.wakes++
		ib.cond.Signal()
		ib.mu.Unlock()
	}
}

// refill drains the whole ring, then any overflow, into the
// consumer-local pending queue. Ordering: a producer only uses the ring
// while the overflow is empty, and overflow is only declared empty
// (overflowN reset) at the moment its contents move into pending — so
// for any single producer, everything it put in the ring before
// overflowing is drained in step 1, its overflow packets follow in
// step 2, and anything it sends after the reset lands in the ring for a
// later refill, after the current pending batch. Per-pair FIFO holds.
//
// Step 1 stops at a slot whose producer has claimed it but not yet
// published, and slots behind it may hold packets already published by
// producers that have since overflowed. So before taking the overflow,
// step 2 drains every slot claimed so far, waiting out the claims still
// being published (a few instructions each; publishing takes no lock).
func (ib *Inbox) refill() {
	for ib.popRing() {
	}
	if ib.overflowN.Load() > 0 {
		ib.mu.Lock()
		for end := ib.ring.enq.Load(); ib.ring.deq.Load() != end; {
			if !ib.popRing() {
				runtime.Gosched()
			}
		}
		for {
			pkt, ok := ib.overflow.PopFront()
			if !ok {
				break
			}
			ib.pending.PushBack(pkt)
			ib.pendingN.Add(1)
		}
		ib.overflowN.Store(0)
		ib.mu.Unlock()
	}
}

// popRing moves the ring's oldest packet into pending, reporting
// whether there was one.
func (ib *Inbox) popRing() bool {
	pkt, ok := ib.ring.tryPop()
	if ok {
		ib.pending.PushBack(pkt)
		ib.pendingN.Add(1)
	}
	return ok
}

// TryPop returns the next packet without blocking, refilling the
// pending batch from the ring and overflow when it runs dry. Consumer
// goroutine only.
func (ib *Inbox) TryPop() (Packet, bool) {
	if pkt, ok := ib.pending.PopFront(); ok {
		ib.pendingN.Add(-1)
		return pkt, true
	}
	ib.refill()
	pkt, ok := ib.pending.PopFront()
	if ok {
		ib.pendingN.Add(-1)
	}
	return pkt, ok
}

// Pop blocks until a packet is available and returns it. It returns
// ok=false if the inbox is stopped while waiting. Consumer goroutine
// only.
func (ib *Inbox) Pop() (Packet, bool) {
	for {
		if pkt, ok := ib.TryPop(); ok {
			return pkt, true
		}
		ib.mu.Lock()
		ib.sleeping.Store(true)
		ib.parks++
		// Recheck after announcing sleep: a producer that published
		// before seeing sleeping=true is visible here (seq-cst
		// ordering), so the wakeup cannot be lost. A producer that
		// claimed an earlier sleep's wake but has not signalled yet
		// only causes a spurious wake, after which the loop rechecks.
		if ib.ring.len() > 0 || ib.overflow.Len() > 0 {
			ib.sleeping.Store(false)
			ib.mu.Unlock()
			continue
		}
		if ib.stopped.Load() {
			ib.sleeping.Store(false)
			ib.mu.Unlock()
			return Packet{}, false
		}
		ib.recvWait.Store(true)
		ib.cond.Wait()
		ib.recvWait.Store(false)
		ib.sleeping.Store(false)
		ib.mu.Unlock()
	}
}

// Len reports the number of packets waiting. Safe from any goroutine;
// under concurrent traffic the count is a point-in-time approximation.
func (ib *Inbox) Len() int {
	return ib.ring.len() + int(ib.overflowN.Load()) + int(ib.pendingN.Load())
}

// Stop unblocks a consumer waiting in Pop (ok=false). Idempotent, safe
// from any goroutine. Packets already queued remain poppable via
// TryPop.
func (ib *Inbox) Stop() {
	ib.mu.Lock()
	ib.stopped.Store(true)
	ib.cond.Broadcast()
	ib.mu.Unlock()
}

// Stopped reports whether Stop has been called. Safe from any
// goroutine; one atomic load, cheap enough for a scheduler loop to
// poll every iteration.
func (ib *Inbox) Stopped() bool { return ib.stopped.Load() }

// RecvWaiting reports whether the consumer is asleep inside Pop, for
// block-state diagnostics.
func (ib *Inbox) RecvWaiting() bool { return ib.recvWait.Load() }
