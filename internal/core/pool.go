package core

// The per-PE sized-class message pool. Together with the
// buffer-ownership protocol (CmiGrabBuffer) it closes the allocation
// loop of the communication fast path: handlers that do not grab their
// buffer return it here, Alloc and the coalescing stage take buffers
// from here, and a steady-state SyncSendAndFree cycle performs no heap
// allocation at all (BenchmarkSendAndFreeSteadyState enforces this).
//
// Buffers are segregated by capacity into a few power-of-four-ish
// classes so a small control message never pins a 64 KB buffer and a
// large allocation never triggers a linear hunt. Each class is a small
// LIFO stack (hot buffers stay cache-warm) with a per-class retention
// bound so the pool cannot hold a high-water mark hostage.

// poolClassSizes are the buffer capacities the pool hands out, in
// bytes of total message (header included). Requests larger than the
// biggest class fall through to the heap and are never pooled.
var poolClassSizes = [...]int{64, 256, 1024, 4096, 16384, 65536}

// poolClassCap bounds the buffers retained per class.
const poolClassCap = 32

// msgPool is the per-processor pool; it is strictly PE-local, like all
// Converse runtime state, so no locking is involved.
type msgPool struct {
	classes [len(poolClassSizes)][][]byte
}

// allocClass returns the index of the smallest class that can serve a
// buffer of want bytes, or -1 if want exceeds every class.
func allocClass(want int) int {
	for i, sz := range poolClassSizes {
		if want <= sz {
			return i
		}
	}
	return -1
}

// recycleClass returns the class a buffer of capacity c feeds, the
// largest class whose allocations it can always satisfy, or -1 when
// the buffer is too small to pool.
func recycleClass(c int) int {
	ci := -1
	for i, sz := range poolClassSizes {
		if c >= sz {
			ci = i
		}
	}
	return ci
}

// Alloc returns a message buffer with at least the given payload
// capacity, reusing recycled buffers when possible (the CMI buffer
// pool). The returned message has its handler field zeroed; the caller
// must SetHandler it. Contents beyond the header are unspecified.
//
//converse:hotpath
func (p *Proc) Alloc(payloadLen int) []byte {
	want := HeaderSize + payloadLen
	ci := allocClass(want)
	if ci >= 0 {
		// Serve from the ideal class, or any larger one that has a
		// buffer spare; upward search keeps the miss rate low when
		// traffic mixes sizes.
		for c := ci; c < len(poolClassSizes); c++ {
			cls := p.pool.classes[c]
			if n := len(cls); n > 0 {
				buf := cls[n-1][:want]
				cls[n-1] = nil
				p.pool.classes[c] = cls[:n-1]
				// Stamp before the header writes below: the buffer is
				// still in the freed state until mcStamp revives it.
				mcStamp(buf)
				//lint:ignore handlerreg Alloc hands out messages with the handler field deliberately zeroed; the caller must SetHandler a registered index before sending.
				SetHandler(buf, 0)
				SetFlags(buf, 0)
				p.notePoolHit()
				return buf
			}
		}
		p.notePoolMiss()
		// Miss: allocate at full class capacity so the buffer recycles
		// back into the same class it serves.
		buf := make([]byte, poolClassSizes[ci])[:want]
		mcStamp(buf)
		return buf
	}
	p.notePoolMiss()
	//lint:ignore handlerreg the oversized-allocation path also returns an unset (zero) handler field for the caller to fill in.
	msg := NewMsg(0, payloadLen)
	mcStamp(msg)
	return msg
}

// allocMsg is Alloc with the handler set, for messages the runtime
// builds itself. Unlike NewMsg's, the payload is not zeroed.
func (p *Proc) allocMsg(handler, payloadLen int) []byte {
	msg := p.Alloc(payloadLen)
	SetHandler(msg, handler)
	return msg
}

// recycle returns a buffer to the pool, dropping it when its class is
// full or it is too small to ever serve an allocation.
//
//converse:hotpath
func (p *Proc) recycle(buf []byte) {
	ci := recycleClass(cap(buf))
	pooled := ci >= 0 && len(p.pool.classes[ci]) < poolClassCap
	mcFree(buf, pooled)
	if pooled {
		//lint:ignore noallocinhot the class backing array doubles a few times up to poolClassCap then reuses capacity; steady state appends allocation-free
		p.pool.classes[ci] = append(p.pool.classes[ci], buf[:cap(buf)])
	}
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
