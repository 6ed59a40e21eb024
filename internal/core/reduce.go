package core

import (
	"encoding/binary"
	"fmt"

	"converse/internal/machine"
)

// Reductions, all-reductions and barriers over a spanning tree (tree.go)
// — the machine tree, or an explicit one — with the
// broadcast's edge directions reversed: every member contributes one
// message, contributions merge upward — on the machine tree intra-node
// members into their node's representative, then representatives along
// the binomial inter-node tree — and the fully merged message is
// dispatched on the root (Reduce) or sent back down the same tree to
// every member (AllReduce). A barrier is an AllReduce of empty
// contributions. Reductions are keyed by (tree, sequence), so
// collectives over different trees interleave freely; like handler
// registration, those over one tree match by call order: every member
// must issue the same sequence of reductions over it with the same
// combiner (the classic CmiReduce discipline).

// Combiner merges the payloads of two reduction contributions and
// returns the merged payload (it may be either argument, possibly
// resliced, or a fresh slice). Contributions merge in arrival order, so
// the operation must be associative and commutative for the result to
// be topology-independent. Combiners are registered with
// RegisterCombiner, in the same order on every processor.
type Combiner func(a, b []byte) []byte

// redHdr is the contribution envelope carried by the built-in reduction
// handler: [seq u64][combiner u32][user handler u32], followed — when
// the combiner word's redTree bit is set — by the explicit tree's [id
// u64], then by the merged payload so far. The combiner word's top bit
// (redAll) marks an AllReduce. A blocking reduction's result carries
// its key, [tree u64][seq u64] (collHdr), ahead of the merged payload.
const (
	redHdr  = 16
	redAll  = 1 << 31
	redTree = 1 << 30
	collHdr = 16
)

// keepMax bounds the merge and result buffers a processor keeps between
// reductions: the largest pool class. A larger one — a Gather's
// concatenation — is dropped once used rather than held for the run.
var keepMax = machine.BufClassSizes[len(machine.BufClassSizes)-1]

// treeSeq keys one reduction: the tree's id (0 for the machine tree)
// and the sequence number of the reduction over that tree.
type treeSeq struct{ tree, seq uint64 }

// reduction is one in-flight reduction on this processor: the partial
// merge and how many contributions (self plus one per child) it takes.
// Completed reductions are reused, merge buffer included (redDone).
type reduction struct {
	key     treeSeq
	comb    int    // combiner index
	handler int    // user handler of the final message
	all     bool   // AllReduce: the root sends the result back down
	acc     []byte // merged payload so far
	got     int
	need    int    // 0 until this processor's own contribution sets it
	parent  int    // where the merge goes; -1 on the root
	tree    []byte // an explicit AllReduce root's descriptor, for the release
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
	p.contribute(nil, 0, combiner, HandlerOf(msg), all, Payload(msg))
	if o&Transfer != 0 {
		p.recycle(msg)
	}
}

// ReduceTree merges every member's data over tree with the registered
// combiner and returns the merged payload on root. A nil tree is the
// machine tree, which any processor can root; an explicit tree is
// rooted at its first member, which root must name. Elsewhere it
// returns nil once this processor's share has gone up the tree, so the
// caller may then block outside the scheduler without stalling its
// subtree. It serves the scheduler while it waits. Every member must
// call it with the same root, in the same order relative to its other
// reductions over tree.
func (p *Proc) ReduceTree(tree []byte, root, combiner int, data []byte) []byte {
	if tree != nil {
		if first, _ := treeMember(tree, 0); first != root {
			panic(fmt.Sprintf("core: pe %d: ReduceTree to %d over tree %d, which is rooted at %d", p.MyPe(), root, treeID(tree), first))
		}
	}
	return p.collect(tree, root, combiner, data, false)
}

// AllReduceTree is ReduceTree with the merged payload returned on every
// member: the root — PE 0 on the machine tree — sends it back down the
// tree. Barrier is an AllReduceTree of empty contributions over the
// machine tree.
func (p *Proc) AllReduceTree(tree []byte, combiner int, data []byte) []byte {
	return p.collect(tree, 0, combiner, data, true)
}

// collect runs one blocking reduction. Its result message goes to the
// built-in collHandler, which parks it in results until the waiting call
// takes it by key. The returned payload is valid until this processor's
// next blocking reduction returns; one larger than keepMax is a fresh
// slice the caller keeps.
func (p *Proc) collect(tree []byte, root, combiner int, data []byte, all bool) []byte {
	key, isRoot := p.contribute(tree, root, combiner, p.collHandler, all, data)
	if !all && !isRoot {
		p.ServeUntil(func() bool { return p.redIndex(key) < 0 })
		return nil
	}
	var msg []byte
	p.ServeUntil(func() bool { msg = p.takeResult(key); return msg != nil })
	res := Payload(msg)[collHdr:]
	var out []byte
	if len(res) > keepMax {
		out = append(out, res...)
	} else {
		p.collOut = append(p.collOut[:0], res...)
		out = p.collOut
	}
	p.recycle(msg)
	return out
}

// onCollDone parks a blocking reduction's result for its waiting call.
func onCollDone(p *Proc, msg []byte) { p.results = append(p.results, p.GrabBuffer()) }

// takeResult removes and returns the parked result of reduction key, or
// nil if it has not arrived. Only the calls waiting on this processor
// have results parked, so the list is short.
func (p *Proc) takeResult(key treeSeq) []byte {
	for i, msg := range p.results {
		pl := Payload(msg)
		if (treeSeq{binary.LittleEndian.Uint64(pl[0:]), binary.LittleEndian.Uint64(pl[8:])}) == key {
			p.results = append(p.results[:i], p.results[i+1:]...)
			return msg
		}
	}
	return nil
}

// contribute adds this processor's payload to its next reduction over
// tree (the machine tree rooted at root, if nil) and returns the
// reduction's key and whether this processor is the tree's root.
func (p *Proc) contribute(tree []byte, root, comb, handler int, all bool, payload []byte) (key treeSeq, isRoot bool) {
	if comb < 0 || comb >= len(p.combiners) {
		panic(fmt.Sprintf("core: pe %d: Reduce with unregistered combiner %d", p.MyPe(), comb))
	}
	id := treeID(tree)
	if tree != nil && id == 0 {
		panic(fmt.Sprintf("core: pe %d: explicit tree with id 0, the machine tree's", p.MyPe()))
	}
	key = treeSeq{id, p.seqs[id]}
	if p.seqs == nil {
		p.seqs = make(map[uint64]uint64)
	}
	p.seqs[id]++
	r := p.redGet(key)
	r.parent, r.need = p.treeShape(tree, root)
	isRoot = r.parent < 0
	if all && isRoot && tree != nil {
		r.tree = append(r.tree[:0], tree...)
	}
	p.redContribute(r, comb, handler, all, payload)
	return key, isRoot
}

// redGet finds or creates the reduction with the given key.
// Contributions can arrive from below before this processor reaches its
// own call for that reduction, so creation is lazy on both paths.
func (p *Proc) redGet(key treeSeq) *reduction {
	if i := p.redIndex(key); i >= 0 {
		return p.reds[i]
	}
	var r *reduction
	if n := len(p.redFree); n > 0 {
		r = p.redFree[n-1]
		p.redFree = p.redFree[:n-1]
	} else {
		r = new(reduction)
	}
	r.key, r.got, r.need, r.tree = key, 0, 0, r.tree[:0]
	p.reds = append(p.reds, r)
	return r
}

// redIndex returns the index in reds of the in-flight reduction with
// the given key, or -1. A processor has few reductions in flight — one
// per collective its subtree has open — so a scan beats hashing keys.
func (p *Proc) redIndex(key treeSeq) int {
	for i, r := range p.reds {
		if r.key == key {
			return i
		}
	}
	return -1
}

// redContribute merges one contribution into the reduction and, when it
// is the last one expected here, passes the merge upward (or completes
// it, on the root).
func (p *Proc) redContribute(r *reduction, comb, handler int, all bool, payload []byte) {
	key := r.key
	if r.got == 0 {
		r.comb, r.handler, r.all = comb, handler, all
		r.acc = append(r.acc[:0], payload...)
	} else {
		if r.comb != comb || r.handler != handler || r.all != all {
			panic(fmt.Sprintf("core: pe %d: reduction %d of tree %d sees combiner %d, handler %d, all=%v after %d, %d, %v (collective call order must match machine-wide)",
				p.MyPe(), key.seq, key.tree, comb, handler, all, r.comb, r.handler, r.all))
		}
		// A combiner may return payload, which belongs to the message
		// being handled and is recycled after it: keep the merge in the
		// reduction's own buffer.
		r.acc = append(r.acc[:0], p.combiners[comb](r.acc, payload)...)
	}
	r.got++
	if r.got != r.need {
		return
	}
	i, last := p.redIndex(key), len(p.reds)-1
	p.reds[i], p.reds = p.reds[last], p.reds[:last]
	if r.parent < 0 {
		// Root: the reduction is complete. An AllReduce's result goes
		// down the tree before the root's own copy is scheduled.
		done := p.redResult(r)
		switch {
		case !r.all:
		case len(r.tree) > 0:
			p.forwardTree(r.tree, p.MyPe(), done)
		default:
			p.bcastTree(done)
		}
		p.redDone(r)
		p.Enqueue(done)
		return
	}
	word, hdr := uint32(r.comb), redHdr
	if r.all {
		word |= redAll
	}
	if key.tree != 0 {
		word, hdr = word|redTree, redHdr+8
	}
	env := p.allocMsg(p.reduceHandler, hdr+len(r.acc))
	pl := Payload(env)
	binary.LittleEndian.PutUint64(pl[0:], key.seq)
	binary.LittleEndian.PutUint32(pl[8:], word)
	binary.LittleEndian.PutUint32(pl[12:], uint32(r.handler))
	if key.tree != 0 {
		binary.LittleEndian.PutUint64(pl[redHdr:], key.tree)
	}
	copy(pl[hdr:], r.acc)
	p.redDone(r)
	p.SyncSendAndFree(r.parent, env)
}

// redDone keeps a finished reduction for reuse, dropping a merge buffer
// larger than keepMax.
func (p *Proc) redDone(r *reduction) {
	if cap(r.acc) > keepMax {
		r.acc = nil
	}
	p.redFree = append(p.redFree, r)
}

// redResult builds a completed reduction's message: the merged payload
// for the user handler, or for collHandler prefixed by the key.
func (p *Proc) redResult(r *reduction) []byte {
	pre := 0
	if r.handler == p.collHandler {
		pre = collHdr
	}
	done := p.allocMsg(r.handler, pre+len(r.acc))
	pl := Payload(done)
	if pre > 0 {
		binary.LittleEndian.PutUint64(pl[0:], r.key.tree)
		binary.LittleEndian.PutUint64(pl[8:], r.key.seq)
	}
	copy(pl[pre:], r.acc)
	return done
}

// onReduce merges a contribution arriving from below the tree.
func onReduce(p *Proc, msg []byte) {
	pl := Payload(msg)
	key := treeSeq{seq: binary.LittleEndian.Uint64(pl[0:])}
	word := binary.LittleEndian.Uint32(pl[8:])
	handler := int(binary.LittleEndian.Uint32(pl[12:]))
	data := pl[redHdr:]
	if word&redTree != 0 {
		key.tree, data = binary.LittleEndian.Uint64(data), data[8:]
	}
	p.redContribute(p.redGet(key), int(word&^(redAll|redTree)), handler, word&redAll != 0, data)
}

// Barrier blocks until every processor has called Barrier the same
// number of times (CmiBarrier): an AllReduce of empty contributions,
// whose result, sent back down the tree, is the release. The caller's
// scheduler keeps serving while blocked, so messages — including other
// PEs' contributions passing through this one — are still handled; like
// all collectives, every processor must reach the same Barrier calls in
// the same order.
func (p *Proc) Barrier() { p.AllReduceTree(nil, p.barCombiner, nil) }
