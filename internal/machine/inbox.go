package machine

import (
	"sync"
	"sync/atomic"
)

// Inbox is a PE's thread-safe inbound network queue: many producers,
// one consumer, per-producer FIFO. It is extracted so any substrate
// hosting processors in-process can reuse it: the simulated PE and the
// network machine layer's intra-node delivery path (internal/mnet in
// nodes×PEs mode) share this one implementation.
//
// Producers (Put) append to a slice under the inbox mutex. The consumer
// (TryPop, Pop) swaps that whole slice out under the same mutex and then
// pops the batch it took with no synchronization, handing the drained
// batch's backing array back to the producers on the next swap. Every
// packet enters through one append order, so per-pair FIFO needs no
// further argument. An atomic count lets an empty poll skip the lock.
type Inbox struct {
	// mu guards q, sleeping and the parks/wakes counters; cond (on mu)
	// is signalled by the Put that finds the consumer asleep, and
	// broadcast by Stop.
	mu   sync.Mutex
	cond sync.Cond
	q    []Packet

	// sleeping is set by the consumer before it waits in Pop. The Put
	// that finds it set clears it and signals, inside the critical
	// section that published its packet, so a wake can be neither lost
	// nor claimed twice.
	sleeping bool

	// parks counts the consumer's sleeps and wakes the producers'
	// signals (both under mu); a signal consumes a sleep, so wakes never
	// exceeds parks (stress tests).
	parks, wakes uint64

	// batch[head:] is the consumer's current batch, owned by the
	// consumer goroutine alone.
	batch []Packet
	head  int

	// n counts every packet not yet popped, queued or batched: Len's
	// answer, and the lock-free emptiness check of TryPop.
	n atomic.Int64

	// recvWait is set while the consumer sleeps inside Pop, for
	// block-state diagnostics.
	recvWait atomic.Bool

	stopped atomic.Bool
}

// NewInbox builds an empty inbox. Its queues grow on the first packets,
// so an idle PE pays only for the struct.
func NewInbox() *Inbox {
	ib := &Inbox{}
	ib.cond.L = &ib.mu
	return ib
}

// Put publishes a packet and wakes the consumer if it is blocked. Safe
// from any goroutine.
func (ib *Inbox) Put(pkt Packet) {
	ib.mu.Lock()
	ib.q = append(ib.q, pkt)
	ib.n.Add(1)
	if ib.sleeping {
		ib.sleeping = false
		ib.wakes++
		ib.cond.Signal()
	}
	ib.mu.Unlock()
}

// TryPop returns the next packet without blocking, taking the producers'
// whole queue as the next batch when the current one runs dry. Consumer
// goroutine only.
func (ib *Inbox) TryPop() (Packet, bool) {
	if ib.head == len(ib.batch) {
		if ib.n.Load() == 0 {
			return Packet{}, false
		}
		// The spent batch is all popped, so n counts only the queue:
		// the swap takes at least one packet.
		clear(ib.batch) // release the payload references
		ib.mu.Lock()
		ib.batch, ib.q = ib.q, ib.batch[:0]
		ib.mu.Unlock()
		ib.head = 0
	}
	pkt := ib.batch[ib.head]
	ib.head++
	ib.n.Add(-1)
	return pkt, true
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
		for len(ib.q) == 0 && !ib.stopped.Load() {
			ib.sleeping = true
			ib.parks++
			ib.recvWait.Store(true)
			ib.cond.Wait()
			ib.recvWait.Store(false)
		}
		ib.sleeping = false
		empty := len(ib.q) == 0
		ib.mu.Unlock()
		if empty {
			return Packet{}, false
		}
	}
}

// Len reports the number of packets waiting. Safe from any goroutine;
// under concurrent traffic the count is a point-in-time approximation.
func (ib *Inbox) Len() int { return int(ib.n.Load()) }

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
