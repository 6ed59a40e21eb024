package core

import "encoding/binary"

// Two-level spanning-tree broadcast. The MMI "provides many variants of
// broadcast calls", and the paper's EMI discussion notes the machine
// layer is best placed to optimize group operations using its knowledge
// of the topology. With the node-level machine interface (CmiMyNode and
// friends) the topology has two tiers — wire hops between nodes, memory
// handoffs inside one — so the broadcast tree has two levels to match:
//
//   1. Inter-node: a recursive-halving (binomial-shaped) tree over node
//      representatives (each node's first PE), so only O(NumNodes) wire
//      messages are sent and the caller pays O(log NumNodes) of them.
//   2. Intra-node: each representative fans the plain user message out
//      to its node's remaining PEs — in-memory copies, never the wire.
//
// With the default flat topology (every PE its own node) level 2 is
// empty and this degenerates to the classic per-PE recursive-halving
// tree. The forwarding handler is registered by newProc on every
// processor before any user handler, so its index is uniform
// machine-wide.

// treeHdr is the forwarding envelope: [root u32][relLo u32][relHi u32]
// — *node* ranks relative to the root PE's node (mod NumNodes) —
// followed by the user message. The receiving representative owns
// relative node range [relLo, relHi): it repeatedly splits off the
// upper half to the representative at the half's start, fans out inside
// its own node, and delivers the user message locally.
const treeHdr = 12

// bcastTree ships msg to every PE except this one: inter-node envelopes
// first (so wire transfers start before local work), then the intra-node
// fan-out. All broadcast entry points — Broadcast, the Send sentinels
// and the CmiSyncBroadcast family, AsyncBroadcast's progress arm, an
// AllReduce's result — funnel here; this is the one fan-out
// implementation ("at a lower level ... for the sake of efficiency").
func (p *Proc) bcastTree(msg []byte) {
	if p.NumPes() == 1 {
		return
	}
	p.forwardTreeNodes(p.MyPe(), 0, p.NumNodes(), msg)
	p.fanOutNode(msg)
}

// forwardTreeNodes ships the upper halves of relative node range
// [lo, hi) onward to their representatives, keeping the shrinking lower
// half local. Ranks are node ranks relative to root's node.
func (p *Proc) forwardTreeNodes(root, lo, hi int, user []byte) {
	nn := p.NumNodes()
	rootNode := p.NodeOf(root)
	for hi-lo > 1 {
		mid := (lo + hi + 1) / 2
		dst := p.nodeFirst[(rootNode+mid)%nn]
		env := p.allocMsg(p.treeBcastHandler, treeHdr+len(user))
		pl := Payload(env)
		binary.LittleEndian.PutUint32(pl[0:], uint32(root))
		binary.LittleEndian.PutUint32(pl[4:], uint32(mid))
		binary.LittleEndian.PutUint32(pl[8:], uint32(hi))
		copy(pl[treeHdr:], user)
		p.SyncSendAndFree(dst, env)
		hi = mid
	}
}

// fanOutNode copies the plain user message to every other PE of this
// processor's node — the intra-node level of the broadcast tree. These
// sends never cross the wire: under the simulated machine they are
// pooled in-memory handoffs with no wire time, under the network
// substrate they go straight into the sibling PE's inbox.
func (p *Proc) fanOutNode(user []byte) {
	me := p.MyPe()
	g := p.pe.NodeOf(me)
	first := p.nodeFirst[g]
	for q, n := first, p.NodeSize(g); q < first+n; q++ {
		if q != me {
			p.send(q, user, false)
		}
	}
}

// onTreeBcast runs on a node representative: it forwards the envelope's
// sub-halves to further representatives, fans out inside its own node,
// and delivers the user message locally.
func onTreeBcast(p *Proc, msg []byte) {
	pl := Payload(msg)
	root := int(binary.LittleEndian.Uint32(pl[0:]))
	lo := int(binary.LittleEndian.Uint32(pl[4:]))
	hi := int(binary.LittleEndian.Uint32(pl[8:]))
	user := pl[treeHdr:]
	p.forwardTreeNodes(root, lo, hi, user)
	p.fanOutNode(user)
	own := p.Alloc(len(user) - HeaderSize)
	copy(own, user)
	p.dispatch(own)
}
