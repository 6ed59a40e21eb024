package machine

// Substrate is the whole machine interface the Converse core consumes —
// the seam the paper calls the only machine-dependent layer (CMI/MMI).
// Everything above it (scheduler, handlers, threads, language runtimes)
// is substrate-agnostic: the simulated multicomputer (PE) and the TCP
// network layer (internal/mnet.NodePE) both implement every method, one
// value per processor, and a program switches between them purely by
// configuration.
//
// The clock is in microseconds: virtual time under the simulated
// machine, wall time since node start under a network substrate (where
// Charge and AdvanceTo are no-ops, since real time advances itself).
type Substrate interface {
	// ID is the processor's logical number (CmiMyPe).
	ID() int
	// NumPEs is the machine size (CmiNumPe).
	NumPEs() int
	// Node is the node hosting this processor (CmiMyNode). A node is a
	// group of PEs that share a process (network substrates) or a
	// configured node map (the simulated machine): traffic inside it is
	// an in-memory handoff, traffic between nodes crosses the wire. PEs
	// are numbered so each node's PEs are contiguous. With no configured
	// topology every PE is its own node and Node() == ID().
	Node() int
	// NumNodes is the machine's node count (CmiNumNodes).
	NumNodes() int
	// NodeSize is the number of PEs hosted by the given node
	// (CmiNodeSize).
	NodeSize(node int) int
	// NodeOf is the node hosting the given PE (CmiNodeOf).
	NodeOf(pe int) int
	// Clock returns the current time in microseconds (CmiTimer).
	Clock() float64
	// Charge advances the clock by dt microseconds of modeled software
	// cost (no-op on wall-clock substrates).
	Charge(dt float64)
	// AdvanceTo moves the clock forward to t if t is later than now
	// (no-op on wall-clock substrates).
	AdvanceTo(t float64)
	// SendOwned transmits data to dst, taking ownership of the slice.
	SendOwned(dst int, data []byte)
	// Inject publishes data to this processor's own inbox. Unlike
	// SendOwned it may be called from any goroutine (the monitor
	// doorbell rings the scheduler this way).
	Inject(data []byte)
	// TryRecv returns the oldest inbound packet without blocking;
	// ok=false means none is waiting.
	TryRecv() (Packet, bool)
	// Recv blocks until a packet arrives; ok=false means the machine
	// stopped while waiting.
	Recv() (Packet, bool)
	// Stopped reports whether the machine has been stopped. Scheduler
	// loops poll it so a processor busy with purely local messages,
	// which never blocks in Recv, still notices an abort.
	Stopped() bool
	// InboxLen reports the packets waiting to be received. Safe from
	// any goroutine.
	InboxLen() int
	// Depot is the buffer tier shared by the processors of one node
	// (network substrates) or machine (the simulated machine), behind
	// each processor's private message pool.
	Depot() *Depot
	// Model returns the communication cost model, or nil when
	// communication is priced by the real world (network substrates) or
	// free (functional mode).
	Model() CostModel
	// NoteThreadsSuspended and NoteBarrierWaiters adjust the counts of
	// suspended thread objects and of threads blocked at a barrier,
	// which feed DescribeBlocked. Safe from any goroutine.
	NoteThreadsSuspended(delta int)
	NoteBarrierWaiters(delta int)
	// DescribeBlocked reports why this processor might not be making
	// progress, in the shared diagnostic format (FormatBlockState).
	// Safe from any goroutine.
	DescribeBlocked() string
	// Printf/Errorf perform atomic console writes (CmiPrintf/CmiError);
	// on a network substrate they are relayed to the launcher.
	Printf(format string, args ...any)
	Errorf(format string, args ...any)
	// Scanf/ReadLine perform atomic console reads (CmiScanf).
	Scanf(format string, args ...any) (int, error)
	ReadLine() (string, error)
}

var _ Substrate = (*PE)(nil)
