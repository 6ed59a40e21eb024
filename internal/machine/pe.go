package machine

import (
	"sync/atomic"
)

// Packet is a block of bytes in flight between two PEs, the machine-level
// carrier of a Converse generalized message. Packets travel by value
// through the inbound queue so the steady-state receive path performs no
// allocation.
type Packet struct {
	Src, Dst int
	Data     []byte
	// Arrive is the packet's virtual arrival time at the destination,
	// in microseconds: sender clock at send time plus modeled send
	// overhead and wire time.
	Arrive float64
}

// PE is one processing element of a simulated multicomputer. All of its
// methods except the send family must be called only from the PE's own
// driver goroutine (or a context hand-off chain rooted in it); the send
// family may be called by any PE targeting this one.
//
// The inbound queue is an Inbox: senders append under its mutex, and
// the receiver takes everything queued as one batch and pops it without
// locking, so per-sender FIFO follows from the single append order (see
// Inbox).
type PE struct {
	id int
	m  *Machine

	inbox *Inbox

	clock float64 // virtual time in microseconds; owned by the driver

	// lastArrive[dst] is the arrival stamp of the previous packet this
	// PE sent to dst. Links are FIFO (non-overtaking), so a packet's
	// arrival time is never earlier than its predecessor's on the same
	// link. Owned by the driver goroutine.
	lastArrive []float64

	// statistics, owned by the driver goroutine
	sent     uint64
	received uint64
	sentToMe atomic.Uint64 // updated by senders

	// Block-state bookkeeping for deadlock diagnostics (describeBlocked
	// and the network layer's failure reports). The receive-wait flag
	// lives in the inbox; the two counters are maintained by the thread
	// (cth) and synchronization (csync) layers through the
	// NoteThreadsSuspended/NoteBarrierWaiters hooks.
	threadsSusp    atomic.Int64
	barrierWaiters atomic.Int64
}

func newPE(m *Machine, id int) *PE {
	return &PE{id: id, m: m, inbox: NewInbox()}
}

// ID returns the PE's logical processor number (CmiMyPe).
func (pe *PE) ID() int { return pe.id }

// Machine returns the owning machine.
func (pe *PE) Machine() *Machine { return pe.m }

// Model returns the machine's cost model (possibly nil). It is part of
// the substrate interface internal/core consumes.
func (pe *PE) Model() CostModel { return pe.m.model }

// NumPEs reports the machine size (CmiNumPe).
func (pe *PE) NumPEs() int { return len(pe.m.pes) }

// Node reports the node hosting this PE (CmiMyNode). The machine's
// node map comes from Config.NodeSizes; by default every PE is its own
// node.
func (pe *PE) Node() int { return pe.m.topo.NodeOf(pe.id) }

// NumNodes reports the machine's node count (CmiNumNodes).
func (pe *PE) NumNodes() int { return pe.m.topo.NumNodes() }

// NodeSize reports how many PEs the given node hosts (CmiNodeSize).
func (pe *PE) NodeSize(node int) int { return pe.m.topo.NodeSize(node) }

// NodeOf reports the node hosting the given PE (CmiNodeOf).
func (pe *PE) NodeOf(p int) int { return pe.m.topo.NodeOf(p) }

// Clock returns the PE's current virtual time in microseconds
// (the substrate behind CmiTimer).
func (pe *PE) Clock() float64 { return pe.clock }

// Charge advances the PE's virtual clock by dt microseconds. Layers above
// use it to account for software costs that the cost model prices.
func (pe *PE) Charge(dt float64) { pe.clock += dt }

// AdvanceTo moves the clock forward to t if t is later than now.
func (pe *PE) AdvanceTo(t float64) {
	if t > pe.clock {
		pe.clock = t
	}
}

// Send transmits a copy of data to the destination PE. The caller may
// reuse data immediately (CmiSyncSend buffer semantics). The packet's
// virtual arrival time is stamped from this PE's clock and the machine's
// cost model.
func (pe *PE) Send(dst int, data []byte) {
	buf := make([]byte, len(data))
	copy(buf, data)
	pe.SendOwned(dst, buf)
}

// SendOwned transmits data without copying; ownership of the slice
// passes to the destination (the CmiSyncSendAndFree pattern: the sender
// must not touch data afterwards).
//
// Under an explicit node map (Config.NodeSizes) a packet between two
// PEs of the same node pays the send overhead but no wire time: it is
// a pooled in-memory handoff, not a network transit — the property the
// two-level collectives exploit. With the default one-PE-per-node map
// every non-self destination is a wire hop, exactly as before.
func (pe *PE) SendOwned(dst int, data []byte) {
	if dst < 0 || dst >= len(pe.m.pes) {
		panic("machine: send to invalid PE")
	}
	arrive := pe.clock
	if mod := pe.m.model; mod != nil {
		pe.clock += mod.SendOverhead()
		arrive = pe.clock
		if !(pe.m.explicitTopo && pe.m.topo.NodeOf(dst) == pe.m.topo.NodeOf(pe.id)) {
			arrive += mod.WireTime(len(data))
		}
	}
	if pe.lastArrive == nil {
		pe.lastArrive = make([]float64, len(pe.m.pes))
	}
	if arrive < pe.lastArrive[dst] {
		arrive = pe.lastArrive[dst] // FIFO link: no overtaking
	}
	pe.lastArrive[dst] = arrive
	pe.sent++
	pe.m.pes[dst].deliver(Packet{Src: pe.id, Dst: dst, Data: data, Arrive: arrive})
}

// Inject publishes a message straight to this PE's own inbound queue.
// Unlike SendOwned it may be called from any goroutine: it touches no
// driver-owned state (no clock charge, no network model), so foreign
// observers — the monitor doorbell in internal/core — can ring a PE
// without racing its driver. The packet arrives immediately (Arrive 0
// is never ahead of the receiver's clock).
func (pe *PE) Inject(data []byte) {
	pe.deliver(Packet{Src: pe.id, Dst: pe.id, Data: data, Arrive: 0})
}

// deliver publishes a packet to this PE's inbound queue and wakes the
// receiver if it is blocked.
func (pe *PE) deliver(pkt Packet) {
	pe.sentToMe.Add(1)
	pe.inbox.Put(pkt)
}

// TryRecv removes and returns the oldest inbound packet without
// blocking. It returns ok=false if the inbox is empty. On success the
// PE's clock advances to the packet's arrival time plus the model's
// receive overhead.
func (pe *PE) TryRecv() (Packet, bool) {
	pkt, ok := pe.inbox.TryPop()
	if !ok {
		return Packet{}, false
	}
	pe.arrived(&pkt)
	return pkt, true
}

// Recv blocks until a packet is available and returns it. It returns
// ok=false if the machine is stopped while waiting (watchdog or
// explicit Stop).
func (pe *PE) Recv() (Packet, bool) {
	pkt, ok := pe.inbox.Pop()
	if !ok {
		return Packet{}, false
	}
	pe.arrived(&pkt)
	return pkt, true
}

// arrived performs the receive-side clock accounting for a packet.
func (pe *PE) arrived(pkt *Packet) {
	pe.AdvanceTo(pkt.Arrive)
	if mod := pe.m.model; mod != nil {
		pe.clock += mod.RecvOverhead()
	}
	pe.received++
}

// InboxLen reports the number of packets waiting to be received. It is
// safe to call from any goroutine; under concurrent traffic the count
// is a point-in-time approximation.
func (pe *PE) InboxLen() int { return pe.inbox.Len() }

// Stopped reports whether the machine has been stopped. Scheduler
// loops poll it so a PE busy with purely local work still notices an
// abort (a blocked Recv learns the same thing from ok=false).
func (pe *PE) Stopped() bool { return pe.inbox.Stopped() }

// Stats reports the number of packets this PE has sent and received.
func (pe *PE) Stats() (sent, received uint64) { return pe.sent, pe.received }

// NoteThreadsSuspended adjusts the count of thread objects currently
// suspended on this PE. The thread layer (cth) calls it around
// suspend/resume so that blocked-state diagnostics can distinguish "all
// threads parked" from a plain receive wait. Safe from any goroutine.
func (pe *PE) NoteThreadsSuspended(delta int) { pe.threadsSusp.Add(int64(delta)) }

// NoteBarrierWaiters adjusts the count of threads blocked at a
// synchronization barrier on this PE (csync.Barrier.Arrive).
func (pe *PE) NoteBarrierWaiters(delta int) { pe.barrierWaiters.Add(int64(delta)) }

// BlockState summarizes why this PE might not be making progress.
func (pe *PE) BlockState() BlockState {
	return BlockState{
		RecvWait:         pe.inbox.RecvWaiting(),
		InboxLen:         pe.InboxLen(),
		ThreadsSuspended: int(pe.threadsSusp.Load()),
		BarrierWaiters:   int(pe.barrierWaiters.Load()),
	}
}
