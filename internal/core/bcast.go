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

// treeHdr is the machine tree's forwarding envelope: [root u32][relLo
// u32][relHi u32] — *node* ranks relative to the root PE's node (mod
// NumNodes) — followed by the user message. The receiving
// representative owns relative node range [relLo, relHi): it repeatedly
// splits off the upper half to the representative at the half's start,
// fans out inside its own node, and delivers the user message locally.
//
// An explicit tree's envelope is [caller u32 | treeExplicit][descriptor]
// followed by the user message: each member forwards it to its children
// and delivers the user message unless it is the caller.
const (
	treeHdr      = 12
	treeExplicit = 1 << 31
)

// bcastTree ships msg to every PE except this one: inter-node envelopes
// first (so wire transfers start before local work), then the intra-node
// fan-out. All machine-wide broadcast entry points — Broadcast, the Send
// sentinels and the CmiSyncBroadcast family, AsyncBroadcast's progress
// arm, an AllReduce's result — funnel here; with forwardTree for
// explicit trees it is the one fan-out implementation ("at a lower
// level ... for the sake of efficiency").
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

// MulticastTree sends msg to every member of tree except the calling
// processor, which need not be a member (CmiAsyncMulticast). On the
// machine tree (nil) it is Broadcast(msg, ExcludeSelf), rooted at the
// caller. On an explicit tree the envelope, descriptor included, goes
// to the tree's root — even when the caller is the root — and each
// member hands copies to its children before handling its own. Every
// recipient's handler owns its copy; the caller keeps msg.
func (p *Proc) MulticastTree(tree, msg []byte) {
	if tree == nil {
		p.Broadcast(msg, ExcludeSelf)
		return
	}
	p.checkSend(0, msg)
	root, _ := treeMember(tree, 0)
	p.SyncSendAndFree(root, p.treeEnvelope(tree, p.MyPe(), msg))
}

// treeEnvelope builds an explicit tree's multicast envelope.
func (p *Proc) treeEnvelope(tree []byte, caller int, user []byte) []byte {
	n := treeDescHdr + 8*treeLen(tree)
	env := p.allocMsg(p.treeBcastHandler, 4+n+len(user))
	pl := Payload(env)
	binary.LittleEndian.PutUint32(pl, uint32(caller)|treeExplicit)
	copy(pl[4:], tree[:n])
	copy(pl[4+n:], user)
	return env
}

// onTreeBcast runs on a tree member. On the machine tree (a node
// representative) it forwards the envelope's sub-halves to further
// representatives and fans out inside its own node; on an explicit tree
// it forwards to its children. Then it delivers the user message
// locally, unless it called the multicast.
func onTreeBcast(p *Proc, msg []byte) {
	pl := Payload(msg)
	word := binary.LittleEndian.Uint32(pl[0:])
	var user []byte
	if word&treeExplicit != 0 {
		caller := int(word &^ treeExplicit)
		tree := pl[4:]
		user = tree[treeDescHdr+8*treeLen(tree):]
		p.forwardTree(tree, caller, user)
		if caller == p.MyPe() {
			return
		}
	} else {
		lo := int(binary.LittleEndian.Uint32(pl[4:]))
		hi := int(binary.LittleEndian.Uint32(pl[8:]))
		user = pl[treeHdr:]
		p.forwardTreeNodes(int(word), lo, hi, user)
		p.fanOutNode(user)
	}
	own := p.Alloc(len(user) - HeaderSize)
	copy(own, user)
	p.dispatch(own)
}
