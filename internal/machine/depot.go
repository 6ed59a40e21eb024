package machine

import "sync"

// BufClassSizes are the message-buffer capacity classes, in bytes of
// whole message (header included), shared by every buffer tier: the
// per-PE pool in internal/core and the node-shared Depot behind it.
// Buffers are segregated by capacity so a small control message never
// pins a 64 KB buffer and a large allocation never triggers a linear
// hunt. Requests larger than the biggest class are never pooled.
var BufClassSizes = [...]int{64, 256, 1024, 4096, 16384, 65536}

// AllocClass returns the index of the smallest class that can serve a
// buffer of want bytes, or -1 if want exceeds every class.
//
//converse:hotpath
func AllocClass(want int) int {
	for i, sz := range BufClassSizes {
		if want <= sz {
			return i
		}
	}
	return -1
}

// RecycleClass returns the class a buffer of capacity c feeds, the
// largest class whose allocations it can always satisfy, or -1 when
// the buffer is too small to pool.
//
//converse:hotpath
func RecycleClass(c int) int {
	ci := -1
	for i, sz := range BufClassSizes {
		if c >= sz {
			ci = i
		}
	}
	return ci
}

// depotClassBytes bounds the bytes the depot retains per class, so a
// burst of large messages cannot pin a high-water mark: 16 buffers of
// the largest class, thousands of the smallest.
const depotClassBytes = 1 << 20

// Depot is the node-shared buffer tier: one per process hosting PEs of
// a network machine, behind each PE's private pool. Buffers cross
// goroutines there — a PE's send is written out by a link writer, an
// inbound message is read by a link reader and dispatched on a PE — so
// a buffer released on one side would otherwise be garbage on its way
// back to the other. The depot closes that loop: a PE's pool spills
// into it when a class is full and draws from it on a miss, link
// writers return sent buffers to it, and link readers read inbound
// messages straight into buffers drawn from it.
//
// Each class is a mutex-guarded LIFO stack (hot buffers stay
// cache-warm) bounded by depotClassBytes. The zero value is ready to
// use.
type Depot struct {
	classes [len(BufClassSizes)]depotClass
}

type depotClass struct {
	mu   sync.Mutex
	bufs [][]byte
}

// Get returns a retained buffer of class ci at its full capacity, or
// nil when the class is empty. The caller owns the buffer.
//
// Like every per-message helper in the depot and the wire codec, it
// must stay free of heap escapes: `go build -gcflags=-m` must report no
// `moved to heap` here, because noallocinhot cannot see an escape
// through an interface or a function value.
//
//converse:hotpath
func (d *Depot) Get(ci int) []byte {
	c := &d.classes[ci]
	c.mu.Lock()
	n := len(c.bufs)
	if n == 0 {
		c.mu.Unlock()
		return nil
	}
	buf := c.bufs[n-1]
	c.bufs[n-1] = nil
	c.bufs = c.bufs[:n-1]
	c.mu.Unlock()
	return buf[:cap(buf)]
}

// Put retains buf, whose capacity must be at least BufClassSizes[ci],
// in class ci and reports whether it did. At the class's retention
// bound it returns false and leaves the buffer to the garbage
// collector, as it does a buffer four or more times its class size
// (only possible past the largest class), which would pin memory the
// bound does not count. Ownership passes to the depot either way: the
// caller must not touch buf again.
//
// Must stay free of heap escapes (see Get).
//
//converse:hotpath
func (d *Depot) Put(ci int, buf []byte) bool {
	if cap(buf) >= 4*BufClassSizes[ci] {
		return false
	}
	c := &d.classes[ci]
	c.mu.Lock()
	if len(c.bufs) >= depotClassBytes/BufClassSizes[ci] {
		c.mu.Unlock()
		return false
	}
	//lint:ignore noallocinhot the class backing array doubles up to its retention bound then reuses capacity; steady state appends allocation-free
	c.bufs = append(c.bufs, buf)
	c.mu.Unlock()
	return true
}

// Len reports the buffers the depot currently retains.
func (d *Depot) Len() int {
	n := 0
	for i := range d.classes {
		c := &d.classes[i]
		c.mu.Lock()
		n += len(c.bufs)
		c.mu.Unlock()
	}
	return n
}
