package emi

import (
	"encoding/binary"
	"fmt"
	"math"
)

// Pgrp is a processor group organized as a spanning tree rooted at the
// creating processor (§3.1.3-EMI: "calls for establishing process
// groups, broadcasting to an established process group, and carrying out
// reductions and other global operations, as well as spanning-tree based
// operations within a processor group").
//
// The root builds the tree with AddChildren; the descriptor is a plain
// value that can be encoded into messages, so any processor holding it
// can query the topology or initiate group operations. Group operations
// run on the core's collective engine: an explicit group's encoded
// member/parent table is the tree it walks (the multicast carries it
// along, so members need no prior registration), and the machine-wide
// group (AllGroup) names the core's two-level machine tree.
type Pgrp struct {
	ID      uint64
	members []int32 // members[0] is the root
	parent  []int32 // index into members of each member's parent; -1 at root
}

// allGroupID is AllGroup's id; no NewPgrp group takes it.
const allGroupID = 1

// NewPgrp creates a processor group with the calling processor as root
// (CmiPgrpCreate). Its id is unique machine-wide and never AllGroup's.
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
// i's parent is Proc.SpanTreeParent(i)). Its operations walk the core's
// machine tree, which follows the node topology: Multicast is a core
// Broadcast rooted at the caller. The descriptor is built once per
// processor and is identical everywhere, so AllGroup-based collectives
// need no setup communication; it cannot be extended with AddChildren.
// The group id 1 is reserved for it.
func (s *State) AllGroup() *Pgrp {
	if s.all == nil {
		n := s.p.NumPes()
		g := &Pgrp{ID: allGroupID, members: make([]int32, n), parent: make([]int32, n)}
		for pe := range n {
			g.members[pe] = int32(pe)
			g.parent[pe] = int32(s.p.SpanTreeParent(pe))
		}
		s.all = g
	}
	return s.all
}

// tree is the descriptor the core's tree collectives walk: nil, the
// machine tree, for AllGroup; the encoded member/parent table otherwise,
// written into the state's scratch buffer (the core copies what it
// keeps, so the buffer is free again once the call has started).
func (s *State) tree(g *Pgrp) []byte {
	if g.ID == allGroupID {
		return nil
	}
	s.desc = g.appendTo(s.desc[:0])
	return s.desc
}

// AddChildren adds the processors in procs to the group as children of
// member penum (CmiAddChildren). Per the paper this may be called only
// by the group's root processor, before the descriptor is shipped to
// other processors.
func (s *State) AddChildren(g *Pgrp, penum int, procs []int) {
	if s.p.MyPe() != g.RootPE() {
		panic(fmt.Sprintf("emi: pe %d: AddChildren called by non-root (root is %d)", s.p.MyPe(), g.RootPE()))
	}
	if g.ID == allGroupID {
		panic("emi: AddChildren on the machine-wide group")
	}
	pi := g.index(penum)
	for _, pe := range procs {
		if g.Contains(pe) {
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
func (g *Pgrp) Contains(pe int) bool {
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

// Encode serializes the group descriptor in the explicit-tree wire form
// the core's tree collectives walk (internal/core/tree.go parses it;
// TestEncodeLayout pins the bytes both sides agree on). An encoded
// AllGroup decodes as an ordinary group with the same tree.
func (g *Pgrp) Encode() []byte { return g.appendTo(make([]byte, 0, 12+8*len(g.members))) }

// appendTo appends the encoded descriptor — [id u64][n u32], then n ×
// [pe u32][parent index i32], root first — to buf.
func (g *Pgrp) appendTo(buf []byte) []byte {
	buf = binary.LittleEndian.AppendUint64(buf, g.ID)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(g.members)))
	for i := range g.members {
		buf = binary.LittleEndian.AppendUint32(buf, uint32(g.members[i]))
		buf = binary.LittleEndian.AppendUint32(buf, uint32(g.parent[i]))
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
// not belong to the group): a core MulticastTree over the group's tree.
// Delivery forwards along the tree from its root, each member handing
// copies to its children before invoking the message's handler locally;
// on AllGroup it is a core Broadcast excluding the caller. Each
// recipient's handler receives its own copy of msg and owns it (no
// GrabBuffer needed).
func (s *State) Multicast(g *Pgrp, msg []byte) { s.p.MulticastTree(s.tree(g), msg) }

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

// Reduce performs a spanning-tree reduction over the group: every member
// must call it (in the same order relative to its other collectives on
// the same group) with its contribution. Contributions combine up the
// tree — a core ReduceTree of [op u8][value u64] payloads merged by
// combineOp. At the root, Reduce returns (result, true); at other
// members it returns as soon as the subtree value has been sent up, with
// ok=false. While waiting, incoming messages are served.
func (s *State) Reduce(g *Pgrp, contrib int64, op ReduceOp) (result int64, ok bool) {
	r := s.p.ReduceTree(s.tree(g), g.RootPE(), s.opComb, s.opPayload(contrib, op))
	if s.p.MyPe() != g.RootPE() {
		return 0, false
	}
	return int64(binary.LittleEndian.Uint64(r[1:])), true
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

// --- all-reduce and barrier ---

// AllReduce is Reduce with the result returned on every member: one
// core AllReduceTree, whose root sends the result back down the group's
// tree. Every member must call it.
func (s *State) AllReduce(g *Pgrp, contrib int64, op ReduceOp) int64 {
	r := s.p.AllReduceTree(s.tree(g), s.opComb, s.opPayload(contrib, op))
	return int64(binary.LittleEndian.Uint64(r[1:]))
}

// AllReduceFloat is AllReduce over float64 contributions; op must be one
// of the F-prefixed operators.
func (s *State) AllReduceFloat(g *Pgrp, contrib float64, op ReduceOp) float64 {
	checkFloatOp(op)
	return math.Float64frombits(uint64(s.AllReduce(g, int64(math.Float64bits(contrib)), op)))
}

// opPayload encodes a contribution as [op u8][value u64] in the
// state's scratch buffer; the core copies it.
func (s *State) opPayload(v int64, op ReduceOp) []byte {
	s.op[0] = byte(op)
	binary.LittleEndian.PutUint64(s.op[1:], uint64(v))
	return s.op[:]
}

// combineOp is the core combiner behind every group reduction.
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
