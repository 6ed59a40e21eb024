package core

// The per-PE sized-class message pool. Together with the
// buffer-ownership protocol (CmiGrabBuffer) it closes the allocation
// loop of the communication fast path: handlers that do not grab their
// buffer return it here, Alloc and the coalescing stage take buffers
// from here, and a steady-state SyncSendAndFree cycle performs no heap
// allocation at all (BenchmarkSendAndFreeSteadyState enforces this).
//
// Buffers are segregated by capacity into the machine layer's size
// classes (machine.BufClassSizes). Each class is a small LIFO stack
// (hot buffers stay cache-warm) with a per-class retention bound so the
// pool cannot hold a high-water mark hostage.
//
// The pool is the first of two tiers: behind it sits the substrate's
// shared machine.Depot. Alloc draws from the depot on a miss and
// recycle spills into it when a class is full, so buffers that cross
// processors circulate instead of becoming garbage. On a network
// substrate the depot is the node's, and link writers return sent
// buffers to it and link readers read inbound messages into it: sent
// here, written out by a link writer; read by a link reader,
// dispatched here. On the simulated machine it is the machine's: a
// receiver whose pool is full after a reduction or a fan-in spills the
// surplus there, and the senders draw it back on their next Alloc.

import "converse/internal/machine"

// poolClassCap bounds the buffers retained per class.
const poolClassCap = 32

// msgPool is the per-processor pool; it is strictly PE-local, like all
// Converse runtime state, so no locking is involved.
type msgPool struct {
	classes [len(machine.BufClassSizes)][][]byte
	// depot is the shared tier behind the pool (Substrate.Depot).
	depot *machine.Depot
}

// Alloc returns a message buffer with at least the given payload
// capacity, reusing recycled buffers when possible (the CMI buffer
// pool). The returned message has its handler field zeroed; the caller
// must SetHandler it. Contents beyond the header are unspecified.
//
//converse:hotpath
func (p *Proc) Alloc(payloadLen int) []byte {
	want := HeaderSize + payloadLen
	ci := machine.AllocClass(want)
	if ci >= 0 {
		// Serve from the ideal class, or any larger one that has a
		// buffer spare; upward search keeps the miss rate low when
		// traffic mixes sizes.
		for c := ci; c < len(machine.BufClassSizes); c++ {
			cls := p.pool.classes[c]
			if n := len(cls); n > 0 {
				buf := cls[n-1][:want]
				cls[n-1] = nil
				p.pool.classes[c] = cls[:n-1]
				return p.reuse(buf)
			}
		}
		if buf := p.pool.depot.Get(ci); buf != nil {
			return p.reuse(buf[:want])
		}
		p.notePoolMiss()
		// Miss: allocate at full class capacity so the buffer recycles
		// back into the same class it serves.
		buf := make([]byte, machine.BufClassSizes[ci])[:want]
		mcStamp(buf)
		return buf
	}
	p.notePoolMiss()
	//lint:ignore handlerreg the oversized-allocation path also returns an unset (zero) handler field for the caller to fill in.
	msg := NewMsg(0, payloadLen)
	mcStamp(msg)
	return msg
}

// reuse hands out a recycled buffer drawn from either tier.
//
//converse:hotpath
func (p *Proc) reuse(buf []byte) []byte {
	// Stamp before the header writes below: the buffer is still in the
	// freed state until mcStamp revives it.
	mcStamp(buf)
	// Zero the whole header: the handler, which the caller must set,
	// and the flags word including the immediate bit, which SetFlags
	// preserves — a recycled immediate message must not make its
	// buffer's next message immediate.
	clear(buf[:HeaderSize])
	p.notePoolHit()
	return buf
}

// allocMsg is Alloc with the handler set, for messages the runtime
// builds itself. Unlike NewMsg's, the payload is not zeroed.
func (p *Proc) allocMsg(handler, payloadLen int) []byte {
	msg := p.Alloc(payloadLen)
	SetHandler(msg, handler)
	return msg
}

// recycle returns a buffer to the pool, spilling it to the depot when
// its class is full, and dropping it when there is no room in either
// tier or it is too small to ever serve an allocation.
//
//converse:hotpath
func (p *Proc) recycle(buf []byte) {
	ci := machine.RecycleClass(cap(buf))
	if ci >= 0 && len(p.pool.classes[ci]) < poolClassCap {
		mcFree(buf, true)
		//lint:ignore noallocinhot the class backing array doubles a few times up to poolClassCap then reuses capacity; steady state appends allocation-free
		p.pool.classes[ci] = append(p.pool.classes[ci], buf[:cap(buf)])
		return
	}
	if ci >= 0 {
		mcSpill(p.pool.depot, ci, buf[:cap(buf)])
		return
	}
	mcFree(buf, false)
}

// poolLen reports the total buffers currently retained (tests).
func (p *msgPool) poolLen() int {
	n := 0
	for _, c := range p.classes {
		n += len(c)
	}
	return n
}

// notePoolHit records a pooled allocation in the metrics registry.
func (p *Proc) notePoolHit() {
	if p.met != nil {
		p.met.PoolHit()
	}
}

// notePoolMiss records an allocation that fell through to the heap.
func (p *Proc) notePoolMiss() {
	if p.met != nil {
		p.met.PoolMiss()
	}
}
