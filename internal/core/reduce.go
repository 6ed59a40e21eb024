package core

import (
	"encoding/binary"
	"fmt"
)

// Reductions, all-reductions and barriers over the same two-level
// topology-aware spanning tree as the broadcast (bcast.go), with the edge
// directions reversed: every PE contributes one message, contributions
// merge upward — intra-node members into their node's representative,
// then representatives along the binomial inter-node tree — and the fully
// merged message is dispatched on the root, PE 0 (Reduce), or broadcast
// back down the tree to every PE (AllReduce). A barrier is an AllReduce
// of empty contributions. Like handler registration, reductions match by
// call order: every processor must issue the same sequence of
// Reduce/AllReduce/Barrier calls with the same combiner (the classic
// CmiReduce discipline).

// Combiner merges the payloads of two reduction contributions and
// returns the merged payload (it may be either argument, possibly
// resliced, or a fresh slice). Contributions merge in arrival order, so
// the operation must be associative and commutative for the result to
// be topology-independent. Combiners are registered with
// RegisterCombiner, in the same order on every processor.
type Combiner func(a, b []byte) []byte

// redHdr is the contribution envelope carried by the built-in reduction
// handler: [seq u64][combiner u32][user handler u32], followed by the
// merged payload so far. The combiner word's top bit (redAll) marks an
// AllReduce.
const (
	redHdr = 16
	redAll = 1 << 31
)

// reduction is one in-flight reduction on this processor: the partial
// merge and how many contributions (self, intra-node members if this PE
// is its node's representative, inter-node child representatives) are
// still expected. Completed reductions are reused, merge buffer
// included.
type reduction struct {
	comb    int    // combiner index
	handler int    // user handler of the final message
	all     bool   // AllReduce: the root broadcasts the result
	acc     []byte // merged payload so far
	got     int
	need    int
}

// RegisterCombiner adds a payload combiner to this processor's table
// and returns its index (CmiRegisterReduction-style). Like handlers,
// combiners must be registered in the same order on every processor so
// indices agree machine-wide.
func (p *Proc) RegisterCombiner(c Combiner) int {
	if c == nil {
		panic("core: RegisterCombiner(nil)")
	}
	p.combiners = append(p.combiners, c)
	return len(p.combiners) - 1
}

// Reduce contributes msg to a machine-wide reduction (CmiReduce): the
// payloads of all NumPes contributions are merged pairwise with the
// registered combiner and the merged message is delivered — dispatched
// to msg's handler — on PE 0. Every processor must call Reduce in the
// same collective order with the same combiner and handler; the call
// does not block (the contribution merges upward as the schedulers
// run), so a processor that must wait for the result should serve the
// scheduler until its completion handler fires. Transfer passes buffer
// ownership as in Send.
func (p *Proc) Reduce(combiner int, msg []byte, opts ...SendOpt) {
	p.reduce(combiner, msg, false, opts)
}

// AllReduce is Reduce with the merged message delivered on every
// processor (CmiAllReduce): PE 0 broadcasts it down the same tree, and
// each processor, PE 0 included, dispatches it to msg's handler. The
// call does not block; a processor that needs the result serves the
// scheduler until its handler fires.
func (p *Proc) AllReduce(combiner int, msg []byte, opts ...SendOpt) {
	p.reduce(combiner, msg, true, opts)
}

func (p *Proc) reduce(combiner int, msg []byte, all bool, opts []SendOpt) {
	var o SendOpt
	for _, opt := range opts {
		o |= opt
	}
	p.checkSend(0, msg)
	if combiner < 0 || combiner >= len(p.combiners) {
		panic(fmt.Sprintf("core: pe %d: Reduce with unregistered combiner %d", p.MyPe(), combiner))
	}
	seq := p.redSeq
	p.redSeq++
	p.redContribute(seq, p.redGet(seq), combiner, HandlerOf(msg), all, Payload(msg))
	if o&Transfer != 0 {
		p.recycle(msg)
	}
}

// redGet finds or creates the reduction with the given sequence number.
// Contributions can arrive from below before this processor reaches its
// own Reduce call for that sequence, so creation is lazy on both paths.
func (p *Proc) redGet(seq uint64) *reduction {
	if p.reds == nil {
		p.reds = make(map[uint64]*reduction)
	}
	r := p.reds[seq]
	if r == nil {
		if n := len(p.redFree); n > 0 {
			r = p.redFree[n-1]
			p.redFree = p.redFree[:n-1]
		} else {
			r = new(reduction)
		}
		r.got, r.need = 0, p.redExpect()
		p.reds[seq] = r
	}
	return r
}

// redExpect counts the contributions this processor merges per
// reduction: its own, plus — when it is its node's representative —
// one from each other PE of its node and one from each child
// representative in the inter-node binomial tree rooted at node 0.
func (p *Proc) redExpect() int {
	me := p.MyPe()
	g := p.pe.NodeOf(me)
	if me != p.nodeFirst[g] {
		return 1
	}
	need := p.NodeSize(g) // self + intra-node members
	lo, hi, _ := nodeTreeRange(p.NumNodes(), g)
	for hi-lo > 1 {
		mid := (lo + hi + 1) / 2
		need++
		hi = mid
	}
	return need
}

// redContribute merges one contribution into the reduction and, when it
// is the last one expected here, passes the merge upward (or completes
// it, on the root).
func (p *Proc) redContribute(seq uint64, r *reduction, comb, handler int, all bool, payload []byte) {
	if r.got == 0 {
		r.comb, r.handler, r.all = comb, handler, all
		r.acc = append(r.acc[:0], payload...)
	} else {
		if r.comb != comb || r.handler != handler || r.all != all {
			panic(fmt.Sprintf("core: pe %d: reduction %d sees combiner %d, handler %d, all=%v after %d, %d, %v (collective call order must match machine-wide)",
				p.MyPe(), seq, comb, handler, all, r.comb, r.handler, r.all))
		}
		// A combiner may return payload, which belongs to the message
		// being handled and is recycled after it: keep the merge in the
		// reduction's own buffer.
		r.acc = append(r.acc[:0], p.combiners[comb](r.acc, payload)...)
	}
	r.got++
	if r.got < r.need {
		return
	}
	delete(p.reds, seq)
	parent := p.SpanTreeParent(p.MyPe())
	if parent < 0 {
		// Root: the reduction is complete. An AllReduce's result goes
		// down the tree before the root's own copy is scheduled.
		done := p.allocMsg(r.handler, len(r.acc))
		copy(Payload(done), r.acc)
		if r.all {
			p.bcastTree(done)
		}
		p.redFree = append(p.redFree, r)
		p.Enqueue(done)
		return
	}
	word := uint32(r.comb)
	if r.all {
		word |= redAll
	}
	env := p.allocMsg(p.reduceHandler, redHdr+len(r.acc))
	pl := Payload(env)
	binary.LittleEndian.PutUint64(pl[0:], seq)
	binary.LittleEndian.PutUint32(pl[8:], word)
	binary.LittleEndian.PutUint32(pl[12:], uint32(r.handler))
	copy(pl[redHdr:], r.acc)
	p.redFree = append(p.redFree, r)
	p.SyncSendAndFree(parent, env)
}

// onReduce merges a contribution arriving from below the tree.
func onReduce(p *Proc, msg []byte) {
	pl := Payload(msg)
	seq := binary.LittleEndian.Uint64(pl[0:])
	word := binary.LittleEndian.Uint32(pl[8:])
	handler := int(binary.LittleEndian.Uint32(pl[12:]))
	p.redContribute(seq, p.redGet(seq), int(word&^redAll), handler, word&redAll != 0, pl[redHdr:])
}

// nodeTreeRange replays the binomial tree construction over [0, nn)
// rooted at node 0 and returns the node range g owned when it acquired
// ownership — the mids of that range's successive halvings are g's
// children — and the previous owner, g's parent (-1 for node 0).
func nodeTreeRange(nn, g int) (lo, hi, parent int) {
	lo, hi, parent = 0, nn, -1
	for lo != g {
		mid := (lo + hi + 1) / 2
		if g >= mid {
			parent, lo = lo, mid
		} else {
			hi = mid
		}
	}
	return lo, hi, parent
}

// SpanTreeParent returns pe's parent in the machine-wide spanning tree
// rooted at PE 0 — the tree Reduce, AllReduce and Barrier merge along
// (CmiSpanTreeParent) — or -1 for PE 0. A PE's parent is its node's
// representative; a representative's is the representative of its
// parent node in the binomial inter-node tree.
func (p *Proc) SpanTreeParent(pe int) int {
	g := p.pe.NodeOf(pe)
	if rep := p.nodeFirst[g]; pe != rep {
		return rep
	}
	if _, _, parent := nodeTreeRange(p.NumNodes(), g); parent >= 0 {
		return p.nodeFirst[parent]
	}
	return -1
}

// Barrier blocks until every processor has called Barrier the same
// number of times (CmiBarrier): an AllReduce of empty contributions,
// whose result, broadcast back down the tree, is the release. The
// caller's scheduler keeps serving while blocked, so messages —
// including other PEs' contributions passing through this one — are
// still handled; like all collectives, every processor must reach the
// same Barrier calls in the same order.
func (p *Proc) Barrier() {
	seq := p.barSeq
	p.barSeq++
	msg := p.allocMsg(p.barHandler, 8)
	binary.LittleEndian.PutUint64(Payload(msg), seq)
	p.AllReduce(p.barCombiner, msg, Transfer)
	p.ServeUntil(func() bool { return p.barDone > seq })
}

// onBarrier admits this processor past the released barrier.
func onBarrier(p *Proc, msg []byte) {
	seq := binary.LittleEndian.Uint64(Payload(msg))
	if seq+1 > p.barDone {
		p.barDone = seq + 1
	}
}
