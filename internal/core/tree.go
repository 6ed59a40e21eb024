package core

import (
	"encoding/binary"
	"fmt"
)

// The collective engine (bcast.go, reduce.go) walks a spanning tree
// given as "parent and children of a PE". Two generators produce one:
//
//   - The machine tree, named by a nil descriptor, is derived from the
//     node map and computed per hop with no table: a binomial tree over
//     node representatives (each node's first PE, or the root itself on
//     its own node) with every other PE hanging off its node's
//     representative. Any PE can root it: a broadcast roots it at the
//     caller, ReduceTree at the caller's root, and Reduce, AllReduce
//     and Barrier at PE 0 (SpanTreeParent).
//   - An explicit tree is a member/parent table in the wire form
//     [id u64][n u32] followed by n × [pe u32][parent index i32], root
//     first with parent index -1 — the EMI's Pgrp.Encode. The id keys
//     the tree's reductions, so it must be nonzero (0 is the machine
//     tree's) and distinct among the trees a processor reduces over. A
//     multicast carries the descriptor in its envelope, so members need
//     no prior registration.

// treeDescHdr is the size of an explicit descriptor's [id][n] prefix;
// each member adds 8 bytes.
const treeDescHdr = 12

// treeID returns the id keying the tree's reductions: 0 for the
// machine tree.
func treeID(tree []byte) uint64 {
	if tree == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(tree)
}

// treeLen returns an explicit tree's member count; its descriptor is
// treeDescHdr+8*treeLen bytes long.
func treeLen(tree []byte) int { return int(binary.LittleEndian.Uint32(tree[8:])) }

// treeMember returns member i's processor and its parent's index (-1 at
// the root).
func treeMember(tree []byte, i int) (pe, parent int) {
	off := treeDescHdr + 8*i
	return int(binary.LittleEndian.Uint32(tree[off:])), int(int32(binary.LittleEndian.Uint32(tree[off+4:])))
}

// treeIndex returns pe's index in an explicit tree, or -1 if pe is not
// a member.
func treeIndex(tree []byte, pe int) int {
	for i := range treeLen(tree) {
		if m, _ := treeMember(tree, i); m == pe {
			return i
		}
	}
	return -1
}

// treeShape returns this processor's parent in tree (-1 at its root)
// and how many contributions it merges per reduction: its own plus one
// per child. root roots the machine tree; an explicit tree is rooted at
// its first member.
func (p *Proc) treeShape(tree []byte, root int) (parent, need int) {
	me := p.MyPe()
	if tree == nil {
		return p.machineShape(me, root)
	}
	i := treeIndex(tree, me)
	if i < 0 {
		panic(fmt.Sprintf("core: pe %d: collective over tree %d, which it is not a member of", me, treeID(tree)))
	}
	parent, need = -1, 1
	for j := range treeLen(tree) {
		_, par := treeMember(tree, j)
		if j == i && par >= 0 {
			parent, _ = treeMember(tree, par)
		}
		if par == i {
			need++
		}
	}
	return parent, need
}

// forwardTree sends the multicast envelope for caller's user message to
// each of this processor's children in an explicit tree it belongs to.
func (p *Proc) forwardTree(tree []byte, caller int, user []byte) {
	i := treeIndex(tree, p.MyPe())
	for j := range treeLen(tree) {
		if pe, par := treeMember(tree, j); par == i {
			p.SyncSendAndFree(pe, p.treeEnvelope(tree, caller, user))
		}
	}
}

// machineShape returns pe's parent in the machine tree rooted at root
// (-1 for root) and how many contributions pe merges per reduction over
// it: its own, plus — when it is its node's representative — one from
// each other PE of its node and one per child representative in the
// binomial inter-node tree, built over node ranks relative to root's
// node. The tree is a broadcast's from root with its edges reversed.
func (p *Proc) machineShape(pe, root int) (parent, need int) {
	nn, rn, g := p.NumNodes(), p.pe.NodeOf(root), p.pe.NodeOf(pe)
	rep := func(g int) int { // the root on its own node, else the first PE
		if g == rn {
			return root
		}
		return p.nodeFirst[g]
	}
	if pe != rep(g) {
		return rep(g), 1
	}
	lo, hi, par := nodeTreeRange(nn, (g-rn+nn)%nn)
	for need = p.NodeSize(g); hi-lo > 1; need++ {
		hi = (lo + hi + 1) / 2
	}
	if par < 0 {
		return -1, need
	}
	return rep((rn + par) % nn), need
}

// nodeTreeRange replays the binomial tree construction over relative
// node ranks [0, nn), rooted at rank 0, and returns the range rank g
// owned when it acquired ownership — the mids of that range's
// successive halvings are g's children — and the previous owner, g's
// parent (-1 for rank 0).
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
	parent, _ := p.machineShape(pe, 0)
	return parent
}
