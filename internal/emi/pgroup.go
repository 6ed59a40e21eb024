package emi

import (
	"encoding/binary"
	"fmt"
	"math"

	"converse/internal/core"
)

// Pgrp is a processor group organized as a spanning tree rooted at the
// creating processor (§3.1.3-EMI: "calls for establishing process
// groups, broadcasting to an established process group, and carrying out
// reductions and other global operations, as well as spanning-tree based
// operations within a processor group").
//
// The root builds the tree with AddChildren; the descriptor is a plain
// value that can be encoded into messages, so any processor holding it
// can query the topology or initiate group operations (the multicast
// carries the descriptor along the tree, so members need no prior
// registration). The machine-wide group (AllGroup) is instead a view
// over the core's collective engine: its operations run on the core's
// two-level spanning tree.
type Pgrp struct {
	ID      uint64
	members []int32 // members[0] is the root
	parent  []int32 // index into members of each member's parent; -1 at root
	machine bool    // AllGroup's view: operations run on the core engine
}

// NewPgrp creates a processor group with the calling processor as root
// (CmiPgrpCreate).
func (s *State) NewPgrp() *Pgrp {
	s.nextGrp++
	return &Pgrp{
		ID:      uint64(s.p.MyPe())<<32 | uint64(s.nextGrp),
		members: []int32{int32(s.p.MyPe())},
		parent:  []int32{-1},
	}
}

// AllGroup returns the machine-wide processor group: every processor,
// arranged as the core's two-level spanning tree rooted at PE 0 (member
// i's parent is Proc.SpanTreeParent(i)). It is a view over the core
// collective engine: Multicast, Reduce, AllReduce and Barrier on it are
// core Broadcast and AllReduce calls, which follow the node topology.
// The descriptor is built once per processor and is identical
// everywhere, so AllGroup-based collectives need no setup
// communication; it cannot be extended with AddChildren. The group id 1
// is reserved for it.
func (s *State) AllGroup() *Pgrp {
	if s.all == nil {
		n := s.p.NumPes()
		g := &Pgrp{ID: 1, members: make([]int32, n), parent: make([]int32, n), machine: true}
		for pe := range n {
			g.members[pe] = int32(pe)
			g.parent[pe] = int32(s.p.SpanTreeParent(pe))
		}
		s.all = g
	}
	return s.all
}

// AddChildren adds the processors in procs to the group as children of
// member penum (CmiAddChildren). Per the paper this may be called only
// by the group's root processor, before the descriptor is shipped to
// other processors.
func (s *State) AddChildren(g *Pgrp, penum int, procs []int) {
	if s.p.MyPe() != g.RootPE() {
		panic(fmt.Sprintf("emi: pe %d: AddChildren called by non-root (root is %d)", s.p.MyPe(), g.RootPE()))
	}
	if g.machine {
		panic("emi: AddChildren on the machine-wide group")
	}
	pi := g.index(penum)
	for _, pe := range procs {
		if g.contains(pe) {
			panic(fmt.Sprintf("emi: AddChildren: pe %d already in group", pe))
		}
		g.members = append(g.members, int32(pe))
		g.parent = append(g.parent, int32(pi))
	}
}

// RootPE returns the processor id of the group's root (CmiPgrpRoot).
func (g *Pgrp) RootPE() int { return int(g.members[0]) }

// Size reports the number of member processors.
func (g *Pgrp) Size() int { return len(g.members) }

// Members returns the member processor ids, root first.
func (g *Pgrp) Members() []int {
	out := make([]int, len(g.members))
	for i, m := range g.members {
		out[i] = int(m)
	}
	return out
}

// Parent returns the processor id of penum's parent in the group
// (CmiParent); the root's parent is -1.
func (g *Pgrp) Parent(penum int) int {
	pi := g.parent[g.index(penum)]
	if pi < 0 {
		return -1
	}
	return int(g.members[pi])
}

// NumChildren reports the number of children of penum in the group
// (CmiNumChildren).
func (g *Pgrp) NumChildren(penum int) int { return len(g.Children(penum)) }

// Children returns the processor ids of penum's children (CmiChildren).
func (g *Pgrp) Children(penum int) []int {
	pi := int32(g.index(penum))
	var out []int
	for i, par := range g.parent {
		if par == pi {
			out = append(out, int(g.members[i]))
		}
	}
	return out
}

// Contains reports whether pe is a member of the group.
func (g *Pgrp) Contains(pe int) bool { return g.contains(pe) }

func (g *Pgrp) contains(pe int) bool {
	for _, m := range g.members {
		if int(m) == pe {
			return true
		}
	}
	return false
}

func (g *Pgrp) index(pe int) int {
	for i, m := range g.members {
		if int(m) == pe {
			return i
		}
	}
	panic(fmt.Sprintf("emi: pe %d is not a member of group %d", pe, g.ID))
}

// Encode serializes the group descriptor. An encoded AllGroup decodes
// as an ordinary group with the same tree.
func (g *Pgrp) Encode() []byte {
	buf := make([]byte, 12+8*len(g.members))
	binary.LittleEndian.PutUint64(buf[0:], g.ID)
	binary.LittleEndian.PutUint32(buf[8:], uint32(len(g.members)))
	off := 12
	for i := range g.members {
		binary.LittleEndian.PutUint32(buf[off:], uint32(g.members[i]))
		binary.LittleEndian.PutUint32(buf[off+4:], uint32(g.parent[i]))
		off += 8
	}
	return buf
}

// DecodePgrp reads a descriptor written by Encode, returning it and the
// number of bytes consumed.
func DecodePgrp(buf []byte) (*Pgrp, int) {
	g := &Pgrp{ID: binary.LittleEndian.Uint64(buf[0:])}
	n := int(binary.LittleEndian.Uint32(buf[8:]))
	off := 12
	for i := 0; i < n; i++ {
		g.members = append(g.members, int32(binary.LittleEndian.Uint32(buf[off:])))
		g.parent = append(g.parent, int32(binary.LittleEndian.Uint32(buf[off+4:])))
		off += 8
	}
	return g, off
}

// Multicast sends the generalized message msg to every member of the
// group except the calling processor (CmiAsyncMulticast; the caller need
// not belong to the group). Delivery forwards along the group's spanning
// tree, each member handing copies to its children before invoking the
// message's handler locally. Each recipient's handler receives its own
// copy of msg and owns it (no GrabBuffer needed). On AllGroup it is a
// core Broadcast excluding the caller.
func (s *State) Multicast(g *Pgrp, msg []byte) {
	if len(msg) < core.HeaderSize {
		panic("emi: Multicast of message smaller than the header")
	}
	if g.machine {
		s.p.Broadcast(msg, core.ExcludeSelf)
		return
	}
	wrapped := s.wrapMcast(g, msg)
	s.p.SyncSendAndFree(g.RootPE(), wrapped)
}

// wrapMcast builds the tree-forwarding envelope:
// payload = [callerPE u32][grp blob][user msg].
func (s *State) wrapMcast(g *Pgrp, msg []byte) []byte {
	blob := g.Encode()
	w := core.NewMsg(s.hMcast, 4+len(blob)+len(msg))
	pl := core.Payload(w)
	binary.LittleEndian.PutUint32(pl[0:], uint32(s.p.MyPe()))
	copy(pl[4:], blob)
	copy(pl[4+len(blob):], msg)
	return w
}

// onMcast forwards the envelope to this member's children, then delivers
// the user message locally unless this processor is the original caller.
func (s *State) onMcast(p *core.Proc, msg []byte) {
	pl := core.Payload(msg)
	caller := int(binary.LittleEndian.Uint32(pl[0:]))
	g, n := DecodePgrp(pl[4:])
	user := pl[4+n:]
	for _, child := range g.Children(p.MyPe()) {
		fwd := core.NewMsg(s.hMcast, len(pl))
		copy(core.Payload(fwd), pl)
		p.SyncSendAndFree(child, fwd)
	}
	if p.MyPe() == caller {
		return
	}
	own := make([]byte, len(user))
	copy(own, user)
	p.HandlerFunc(core.HandlerOf(own))(p, own)
}

// --- reductions ---

// ReduceOp identifies a reduction operator.
type ReduceOp uint8

// Supported reduction operators. The integer operators combine int64
// contributions; the F-prefixed operators combine float64 contributions
// transported through their IEEE-754 bit patterns (used by the
// data-parallel layer).
const (
	OpSum ReduceOp = iota + 1
	OpMax
	OpMin
	OpProd
	OpFSum
	OpFMax
	OpFMin
)

func (op ReduceOp) apply(a, b int64) int64 {
	switch op {
	case OpSum:
		return a + b
	case OpMax:
		if a > b {
			return a
		}
		return b
	case OpMin:
		if a < b {
			return a
		}
		return b
	case OpProd:
		return a * b
	case OpFSum, OpFMax, OpFMin:
		x, y := math.Float64frombits(uint64(a)), math.Float64frombits(uint64(b))
		var r float64
		switch op {
		case OpFSum:
			r = x + y
		case OpFMax:
			r = math.Max(x, y)
		default:
			r = math.Min(x, y)
		}
		return int64(math.Float64bits(r))
	}
	panic(fmt.Sprintf("emi: unknown reduction op %d", op))
}

type redKey struct {
	grp uint64
	seq uint32
}

type redState struct {
	acc   int64
	have  int
	need  int // 0 until the local member contributes
	op    ReduceOp
	valid bool // acc holds at least one contribution
}

// Reduce performs a spanning-tree reduction over the group: every member
// must call it (in the same sequence relative to other Reduce calls on
// the same group) with its contribution. Contributions combine up the
// tree; at the root, Reduce returns (result, true); at other members it
// returns as soon as the subtree value has been sent up, with ok=false.
// While waiting for children, incoming messages are served. On AllGroup
// it is an AllReduce whose result only the root reports.
func (s *State) Reduce(g *Pgrp, contrib int64, op ReduceOp) (result int64, ok bool) {
	me := s.p.MyPe()
	if !g.Contains(me) {
		panic(fmt.Sprintf("emi: pe %d: Reduce on a group it does not belong to", me))
	}
	if g.machine {
		if r := s.AllReduce(g, contrib, op); me == g.RootPE() {
			return r, true
		}
		return 0, false
	}
	s.seqs[g.ID]++
	key := redKey{grp: g.ID, seq: s.seqs[g.ID]}
	st := s.red(key)
	st.op = op
	st.need = 1 + g.NumChildren(me)
	s.contribute(st, contrib)
	s.p.ServeUntil(func() bool { return st.have == st.need })
	delete(s.reductions, key)
	if me == g.RootPE() {
		return st.acc, true
	}
	up := core.NewMsg(s.hReduce, 21)
	pl := core.Payload(up)
	binary.LittleEndian.PutUint64(pl[0:], key.grp)
	binary.LittleEndian.PutUint32(pl[8:], key.seq)
	pl[12] = byte(op)
	binary.LittleEndian.PutUint64(pl[13:], uint64(st.acc))
	s.p.SyncSendAndFree(g.Parent(me), up)
	return 0, false
}

// ReduceFloat is Reduce over float64 contributions; op must be one of
// the F-prefixed operators.
func (s *State) ReduceFloat(g *Pgrp, contrib float64, op ReduceOp) (result float64, ok bool) {
	checkFloatOp(op)
	r, isRoot := s.Reduce(g, int64(math.Float64bits(contrib)), op)
	return math.Float64frombits(uint64(r)), isRoot
}

func checkFloatOp(op ReduceOp) {
	if op != OpFSum && op != OpFMax && op != OpFMin {
		panic(fmt.Sprintf("emi: float reduction with non-float op %d", op))
	}
}

// red returns (creating if needed) the reduction state for key.
func (s *State) red(key redKey) *redState {
	st, ok := s.reductions[key]
	if !ok {
		st = &redState{}
		s.reductions[key] = st
	}
	return st
}

func (s *State) contribute(st *redState, v int64) {
	if st.valid {
		st.acc = st.op.apply(st.acc, v)
	} else {
		st.acc, st.valid = v, true
	}
	st.have++
}

// onReduce folds a child's subtree contribution into the local state.
// It may arrive before the local member has called Reduce; the state is
// created on demand and the op recorded from the message.
func (s *State) onReduce(p *core.Proc, msg []byte) {
	pl := core.Payload(msg)
	key := redKey{
		grp: binary.LittleEndian.Uint64(pl[0:]),
		seq: binary.LittleEndian.Uint32(pl[8:]),
	}
	op := ReduceOp(pl[12])
	v := int64(binary.LittleEndian.Uint64(pl[13:]))
	st := s.red(key)
	st.op = op
	s.contribute(st, v)
}

// --- all-reduce and barrier ---

// AllReduce is Reduce with the result returned on every member: the
// root sends it back down the group's tree. On AllGroup it is one core
// AllReduce over the two-level tree. Every member must call it.
func (s *State) AllReduce(g *Pgrp, contrib int64, op ReduceOp) int64 {
	if g.machine {
		return s.machineAllReduce(contrib, op)
	}
	key := redKey{grp: g.ID, seq: s.seqs[g.ID] + 1} // the sequence Reduce will use
	r, root := s.Reduce(g, contrib, op)
	if !root {
		s.p.ServeUntil(func() bool { _, ok := s.released[key]; return ok })
		r = s.released[key]
		delete(s.released, key)
	}
	for _, child := range g.Children(s.p.MyPe()) {
		rel := core.NewMsg(s.hRelease, 20)
		pl := core.Payload(rel)
		binary.LittleEndian.PutUint64(pl[0:], key.grp)
		binary.LittleEndian.PutUint32(pl[8:], key.seq)
		binary.LittleEndian.PutUint64(pl[12:], uint64(r))
		s.p.SyncSendAndFree(child, rel)
	}
	return r
}

// AllReduceFloat is AllReduce over float64 contributions; op must be one
// of the F-prefixed operators.
func (s *State) AllReduceFloat(g *Pgrp, contrib float64, op ReduceOp) float64 {
	checkFloatOp(op)
	return math.Float64frombits(uint64(s.AllReduce(g, int64(math.Float64bits(contrib)), op)))
}

// onRelease records a result travelling down an explicit group's tree.
func (s *State) onRelease(p *core.Proc, msg []byte) {
	pl := core.Payload(msg)
	key := redKey{
		grp: binary.LittleEndian.Uint64(pl[0:]),
		seq: binary.LittleEndian.Uint32(pl[8:]),
	}
	s.released[key] = int64(binary.LittleEndian.Uint64(pl[12:]))
}

// machineAllReduce is AllReduce on AllGroup: one core AllReduce of an
// [op u8][value u64] payload merged by combineOp, served until the
// result is back. A processor has at most one in flight — it blocks
// until its result arrives, and no result completes without its
// contribution — so results arrive in call order and a counter
// identifies them.
func (s *State) machineAllReduce(v int64, op ReduceOp) int64 {
	msg := s.p.Alloc(9)
	core.SetHandler(msg, s.hAllDone)
	pl := core.Payload(msg)
	pl[0] = byte(op)
	binary.LittleEndian.PutUint64(pl[1:], uint64(v))
	s.allCalls++
	want := s.allCalls
	s.p.AllReduce(s.opComb, msg, core.Transfer)
	s.p.ServeUntil(func() bool { return s.allDone == want })
	return s.allVal
}

func (s *State) onAllDone(p *core.Proc, msg []byte) {
	s.allVal = int64(binary.LittleEndian.Uint64(core.Payload(msg)[1:]))
	s.allDone++
}

// combineOp is the core combiner behind machineAllReduce.
func combineOp(a, b []byte) []byte {
	x, y := int64(binary.LittleEndian.Uint64(a[1:])), int64(binary.LittleEndian.Uint64(b[1:]))
	binary.LittleEndian.PutUint64(a[1:], uint64(ReduceOp(a[0]).apply(x, y)))
	return a
}

// Barrier blocks until every member of the group has called it: an
// AllReduce whose result is ignored (a spanning-tree "global operation"
// in the paper's terms). All members serve incoming messages while
// blocked.
func (s *State) Barrier(g *Pgrp) { s.AllReduce(g, 0, OpSum) }
