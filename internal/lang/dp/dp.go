// Package dp implements a small data-parallel layer over Converse,
// standing in for DP-Charm, the data-parallel language the paper lists
// among its initial implementations ("Charm, Charm++, DP-Charm (a data
// parallel language), PVM, NXLib, and SM").
//
// The model is classic SPMD data parallelism: block-distributed vectors
// with elementwise operations, global reductions, broadcasts and gathers
// (on the core's two-level spanning tree, the reductions through the
// EMI's machine-wide group) and cyclic shifts (halo exchange with ring
// neighbors). All
// operations on distributed vectors are collective: every processor
// calls them in the same order, loosely synchronously — the explicit
// control regime of §2.2.
package dp

import (
	"encoding/binary"
	"fmt"
	"math"

	"converse/internal/core"
	"converse/internal/emi"
	"converse/internal/msgmgr"
)

// DP is the per-processor data-parallel runtime.
type DP struct {
	p   *core.Proc
	s   *emi.State
	all *emi.Pgrp
	mb  *msgmgr.Mailbox // every DP message carries a collective tag
}

// extKey locates the DP state in a Proc.
const extKey = "converse.lang.dp"

// Attach creates (or returns) the processor's data-parallel runtime.
// It initializes the EMI if needed.
func Attach(p *core.Proc) *DP {
	if d, ok := p.Ext(extKey).(*DP); ok {
		return d
	}
	d := &DP{p: p, s: emi.Init(p)}
	d.all = d.s.AllGroup()
	d.mb = msgmgr.NewMailbox(p, "dp", nil)
	p.SetExt(extKey, d)
	return d
}

// Proc returns the runtime's processor.
func (d *DP) Proc() *core.Proc { return d.p }

// recv blocks (SPM-style) for a block under a collective tag.
func (d *DP) recv(ctag int) []byte {
	data, _, _ := d.mb.Recv(msgmgr.Wildcard, ctag)
	return data
}

// Vector is a block-distributed vector of float64: element i lives on
// the processor owning block i/ceil(n/P). All Vector methods are
// collective.
type Vector struct {
	dp    *DP
	n     int       // global length
	lo    int       // global index of local[0]
	local []float64 // this processor's block
}

// blockSize returns ceil(n/p).
func blockSize(n, p int) int { return (n + p - 1) / p }

// NewVector creates a distributed vector of global length n,
// initializing element i to init(i). Collective.
func (d *DP) NewVector(n int, init func(i int) float64) *Vector {
	if n <= 0 {
		panic(fmt.Sprintf("dp: pe %d: NewVector with length %d", d.p.MyPe(), n))
	}
	bs := blockSize(n, d.p.NumPes())
	lo := d.p.MyPe() * bs
	hi := lo + bs
	if hi > n {
		hi = n
	}
	if lo > n {
		lo = n
	}
	v := &Vector{dp: d, n: n, lo: lo, local: make([]float64, hi-lo)}
	if init != nil {
		for i := range v.local {
			v.local[i] = init(lo + i)
		}
	}
	return v
}

// Len returns the global length.
func (v *Vector) Len() int { return v.n }

// Local returns this processor's block (aliased, not copied).
func (v *Vector) Local() []float64 { return v.local }

// LocalRange returns the global index range [lo, hi) of the local block.
func (v *Vector) LocalRange() (lo, hi int) { return v.lo, v.lo + len(v.local) }

// Map replaces each element x_i with f(i, x_i). Purely local.
func (v *Vector) Map(f func(i int, x float64) float64) *Vector {
	for k := range v.local {
		v.local[k] = f(v.lo+k, v.local[k])
	}
	return v
}

// Zip combines two aligned vectors elementwise into v:
// v_i = f(v_i, w_i). Purely local; panics if shapes differ.
func (v *Vector) Zip(w *Vector, f func(a, b float64) float64) *Vector {
	v.check(w)
	for k := range v.local {
		v.local[k] = f(v.local[k], w.local[k])
	}
	return v
}

// Axpy performs v += a*w. Purely local.
func (v *Vector) Axpy(a float64, w *Vector) *Vector {
	v.check(w)
	for k := range v.local {
		v.local[k] += a * w.local[k]
	}
	return v
}

func (v *Vector) check(w *Vector) {
	if v.n != w.n || v.lo != w.lo {
		panic(fmt.Sprintf("dp: pe %d: shape mismatch (%d@%d vs %d@%d)", v.dp.p.MyPe(), v.n, v.lo, w.n, w.lo))
	}
}

// Sum returns the global sum of all elements on every processor.
// Collective: a spanning-tree reduction followed by a broadcast.
func (v *Vector) Sum() float64 { return v.reduceAll(emi.OpFSum, 0) }

// Max returns the global maximum on every processor. Collective.
func (v *Vector) Max() float64 { return v.reduceAll(emi.OpFMax, math.Inf(-1)) }

// Min returns the global minimum on every processor. Collective.
func (v *Vector) Min() float64 { return v.reduceAll(emi.OpFMin, math.Inf(1)) }

// Dot returns the global dot product <v, w> on every processor.
// Collective.
func (v *Vector) Dot(w *Vector) float64 {
	v.check(w)
	acc := 0.0
	for k := range v.local {
		acc += v.local[k] * w.local[k]
	}
	return v.dp.allReduce(acc, emi.OpFSum)
}

// Norm2 returns the global Euclidean norm on every processor.
func (v *Vector) Norm2() float64 { return math.Sqrt(v.Dot(v)) }

// reduceAll reduces the local block with op and identity id, returning
// the global value everywhere.
func (v *Vector) reduceAll(op emi.ReduceOp, id float64) float64 {
	acc := id
	for _, x := range v.local {
		switch op {
		case emi.OpFSum:
			acc += x
		case emi.OpFMax:
			acc = math.Max(acc, x)
		case emi.OpFMin:
			acc = math.Min(acc, x)
		}
	}
	return v.dp.allReduce(acc, op)
}

// allReduce reduces contrib across all processors, returning the
// result everywhere: one core AllReduce. Collective.
func (d *DP) allReduce(contrib float64, op emi.ReduceOp) float64 {
	return d.s.AllReduceFloat(d.all, contrib, op)
}

// BroadcastScalar distributes x from the root processor to everyone;
// non-roots pass any value. Collective: PE 0 sends one tagged block
// through the core Broadcast, and the others serve the scheduler —
// relaying the tree's envelopes — until their copy is parked.
func (d *DP) BroadcastScalar(x float64) float64 {
	bits := binary.LittleEndian.AppendUint64(nil, math.Float64bits(x))
	return math.Float64frombits(binary.LittleEndian.Uint64(d.mb.Bcast(0, bits)))
}

// Shift returns a new vector w with w_i = v_{(i+k+n) mod n} — a cyclic
// shift by k (positive k pulls from higher indices). Collective: blocks
// exchange boundary data with the processors owning the shifted range.
func (v *Vector) Shift(k int) *Vector {
	d := v.dp
	n := v.n
	k = ((k % n) + n) % n
	tag := d.mb.CollTag()

	// Every element v_j must travel to global position (j-k+n) mod n.
	// Group the local block by destination processor and ship slices.
	bs := blockSize(n, d.p.NumPes())
	type chunk struct {
		destPos int // global position of the first element in dst vector
		vals    []float64
	}
	bySender := map[int][]chunk{}
	for off := 0; off < len(v.local); {
		j := v.lo + off
		dstPos := (j - k + n) % n
		dstPE := dstPos / bs
		// run length until either source block or destination block ends
		runEnd := len(v.local) - off
		dstBlockEnd := (dstPE+1)*bs - dstPos
		if dstBlockEnd < runEnd {
			runEnd = dstBlockEnd
		}
		// also stop at wrap-around of the destination index space
		if wrap := n - dstPos; wrap < runEnd {
			runEnd = wrap
		}
		bySender[dstPE] = append(bySender[dstPE], chunk{destPos: dstPos, vals: v.local[off : off+runEnd]})
		off += runEnd
	}
	for dstPE, chunks := range bySender {
		for _, c := range chunks {
			buf := make([]byte, 4+8*len(c.vals))
			binary.LittleEndian.PutUint32(buf, uint32(c.destPos))
			for i, x := range c.vals {
				binary.LittleEndian.PutUint64(buf[4+8*i:], math.Float64bits(x))
			}
			d.mb.SendColl(dstPE, tag, buf)
		}
	}

	// Receive until the local block of the result is fully populated.
	w := d.NewVector(n, nil)
	filled := 0
	for filled < len(w.local) {
		buf := d.recv(tag)
		pos := int(binary.LittleEndian.Uint32(buf))
		vals := (len(buf) - 4) / 8
		for i := 0; i < vals; i++ {
			w.local[pos-w.lo+i] = math.Float64frombits(binary.LittleEndian.Uint64(buf[4+8*i:]))
		}
		filled += vals
	}
	return w
}

// Gather collects the whole vector on the root processor (returned
// there; nil elsewhere): one core reduction of offset-tagged blocks up
// the two-level tree (Mailbox.Gather). Collective.
func (v *Vector) Gather() []float64 {
	d := v.dp
	var out []float64
	if d.p.MyPe() == 0 {
		out = make([]float64, v.n)
	}
	buf := make([]byte, 8*len(v.local))
	for i, x := range v.local {
		binary.LittleEndian.PutUint64(buf[8*i:], math.Float64bits(x))
	}
	d.mb.Gather(0, v.lo, buf, func(lo int, data []byte) {
		for i := range len(data) / 8 {
			out[lo+i] = math.Float64frombits(binary.LittleEndian.Uint64(data[8*i:]))
		}
	})
	return out
}
