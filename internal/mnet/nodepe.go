package mnet

import (
	"fmt"
	"sync/atomic"

	"converse/internal/machine"
)

// NodePE is one of the PEs a worker process hosts: the TCP machine
// layer's only machine.Substrate, as machine.PE is the simulated
// machine's. Each NodePE owns an MPSC inbox
// (machine.Inbox); messages between two PEs of the same node move
// by pointer handoff through it — zero copies, never the wire — while
// messages to other nodes go out on the destination node's link as
// routed data frames. The node's lifecycle (rendezvous, failure,
// teardown) stays on the owning Node.
type NodePE struct {
	n     *Node
	pe    int // global PE number
	inbox *machine.Inbox

	// Block-state bookkeeping for DescribeBlocked (shared diagnostic
	// format with the simulated machine).
	threadsSusp    atomic.Int64
	barrierWaiters atomic.Int64
}

var _ machine.Substrate = (*NodePE)(nil)

// ID returns this processor's logical number (CmiMyPe).
func (s *NodePE) ID() int { return s.pe }

// NumPEs returns the machine size (CmiNumPe).
func (s *NodePE) NumPEs() int { return s.n.cfg.PEs }

// Node returns the node hosting this PE (CmiMyNode): the owning
// process's rank.
func (s *NodePE) Node() int { return s.n.cfg.Rank }

// NumNodes returns the machine's node count (CmiNumNodes).
func (s *NodePE) NumNodes() int { return s.n.topo.NumNodes() }

// NodeSize reports how many PEs the given node hosts (CmiNodeSize).
func (s *NodePE) NodeSize(node int) int { return s.n.topo.NodeSize(node) }

// NodeOf reports the node hosting the given PE (CmiNodeOf).
func (s *NodePE) NodeOf(pe int) int { return s.n.topo.NodeOf(pe) }

// Clock returns wall-clock microseconds since the node joined; all PEs
// of a node share its clock.
func (s *NodePE) Clock() float64 { return s.n.now() }

// Charge is a no-op: real time advances itself.
func (s *NodePE) Charge(dt float64) {}

// AdvanceTo is a no-op: real time advances itself.
func (s *NodePE) AdvanceTo(t float64) {}

// Depot returns the node's shared buffer tier, which internal/core
// puts behind this PE's message pool.
func (s *NodePE) Depot() *machine.Depot { return &s.n.depot }

// Model returns nil: communication is priced by the actual network.
func (s *NodePE) Model() machine.CostModel { return nil }

// SendOwned transmits data to processor dst, taking ownership of the
// slice. A destination on this node is an in-memory inbox handoff that
// never touches the wire (the intra-node path of the two-level
// collectives); anything else is queued with its PE route on the
// destination node's link (blocking under backpressure), so the route
// costs no copy of the message.
func (s *NodePE) SendOwned(dst int, data []byte) {
	n := s.n
	if dst < 0 || dst >= n.cfg.PEs {
		n.Fail(fmt.Errorf("mnet: rank %d: send to invalid PE %d (machine has %d)", n.cfg.Rank, dst, n.cfg.PEs))
		return
	}
	g := n.topo.NodeOf(dst)
	if g == n.cfg.Rank {
		n.deliverLocal(s.pe, dst, data)
		return
	}
	n.peersMu.Lock()
	pl := n.peers[g]
	n.peersMu.Unlock()
	if pl == nil {
		n.Fail(fmt.Errorf("mnet: rank %d: send to rank %d before mesh setup (machine.Run not started?)", n.cfg.Rank, g))
		return
	}
	pl.send(dataMsg{src: uint32(s.pe), dst: uint32(dst), data: data})
}

// deliverLocal publishes one packet into a local PE's inbox (one append
// under the inbox mutex; wakes the PE if it is blocked in Recv). dst is on this
// node: SendOwned routed it here, or decodeData checked the frame's
// route.
func (n *Node) deliverLocal(src, dst int, data []byte) {
	n.lpes[dst-n.lpes[0].pe].inbox.Put(machine.Packet{Src: src, Dst: dst, Data: data, Arrive: n.now()})
}

// Inject publishes a message straight to this PE's own inbox. Safe from
// any goroutine (the inbox is a concurrent MPSC queue): foreign
// observers — the monitor doorbell in internal/core — ring the
// scheduler this way without touching driver-owned state.
func (s *NodePE) Inject(data []byte) {
	s.inbox.Put(machine.Packet{Src: s.pe, Dst: s.pe, Data: data, Arrive: 0})
}

// TryRecv returns the oldest pending packet without blocking; ok=false
// means the inbox is empty.
func (s *NodePE) TryRecv() (machine.Packet, bool) { return s.inbox.TryPop() }

// Recv blocks until a packet arrives; ok=false means the node stopped.
func (s *NodePE) Recv() (machine.Packet, bool) { return s.inbox.Pop() }

// InboxLen reports the number of packets waiting in this PE's inbox.
func (s *NodePE) InboxLen() int { return s.inbox.Len() }

// Stopped reports whether the node has been stopped (Fail, fence, or
// teardown). Scheduler loops poll it so a PE spinning on local
// self-sends still notices an abort that never touches the wire.
func (s *NodePE) Stopped() bool { return s.inbox.Stopped() }

// Printf relays an atomic formatted write to the launcher's standard
// output (CmiPrintf forwarding, as charmrun does).
func (s *NodePE) Printf(format string, args ...any) { s.n.console(false, fmt.Sprintf(format, args...)) }

// Errorf relays an atomic formatted write to the launcher's standard
// error.
func (s *NodePE) Errorf(format string, args ...any) { s.n.console(true, fmt.Sprintf(format, args...)) }

// Scanf is unavailable on the network machine: workers have no usable
// standard input under the launcher.
func (s *NodePE) Scanf(format string, args ...any) (int, error) {
	return 0, fmt.Errorf("mnet: CmiScanf is not supported under converserun (workers have no console input)")
}

// ReadLine is unavailable on the network machine (see Scanf).
func (s *NodePE) ReadLine() (string, error) {
	return "", fmt.Errorf("mnet: console input is not supported under converserun")
}

// NoteThreadsSuspended adjusts the count of suspended thread objects
// (called via core.Proc by the thread layer).
func (s *NodePE) NoteThreadsSuspended(delta int) { s.threadsSusp.Add(int64(delta)) }

// NoteBarrierWaiters adjusts the count of threads blocked at a barrier
// (called via core.Proc by csync).
func (s *NodePE) NoteBarrierWaiters(delta int) { s.barrierWaiters.Add(int64(delta)) }

// DescribeBlocked reports why this PE is blocked, in the machine
// layer's shared diagnostic format.
func (s *NodePE) DescribeBlocked() string {
	st := machine.BlockState{
		RecvWait:         s.inbox.RecvWaiting(),
		InboxLen:         s.inbox.Len(),
		ThreadsSuspended: int(s.threadsSusp.Load()),
		BarrierWaiters:   int(s.barrierWaiters.Load()),
	}
	return machine.FormatBlockState(fmt.Sprintf("rank%d(pe%d)", s.n.cfg.Rank, s.pe), st)
}
