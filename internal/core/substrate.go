package core

import "converse/internal/machine"

// Substrate is the narrow machine interface the Converse core actually
// consumes — the seam the paper calls the only machine-dependent layer
// (CMI/MMI). Everything above it (scheduler, handlers, threads,
// language runtimes) is substrate-agnostic: the simulated multicomputer
// (internal/machine.PE) and the TCP network layer (internal/mnet.NodePE)
// both satisfy it, one value per processor, and a program switches
// between them purely by configuration.
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
	// TryRecv returns the oldest inbound packet without blocking;
	// ok=false means none is waiting.
	TryRecv() (machine.Packet, bool)
	// Recv blocks until a packet arrives; ok=false means the machine
	// stopped while waiting.
	Recv() (machine.Packet, bool)
	// Model returns the communication cost model, or nil when
	// communication is priced by the real world (network substrates) or
	// free (functional mode).
	Model() machine.CostModel
	// Printf/Errorf perform atomic console writes (CmiPrintf/CmiError);
	// on a network substrate they are relayed to the launcher.
	Printf(format string, args ...any)
	Errorf(format string, args ...any)
	// Scanf/ReadLine perform atomic console reads (CmiScanf).
	Scanf(format string, args ...any) (int, error)
	ReadLine() (string, error)
}

// NetSubstrate is the job-level lifecycle of an out-of-process machine
// layer: the node process that hosts some of the machine's processors,
// the rendezvous barriers around Run, and asynchronous failure (a peer
// process died, the launcher vanished). internal/mnet.Node implements
// it; the processors themselves are its LocalPE Substrates.
type NetSubstrate interface {
	// LocalPEs is the number of the machine's processors this node
	// hosts. A job may hold more worker processes than the machine has
	// nodes (converserun -np 4 running a 2-PE program); surplus nodes
	// host none: they take part in the rendezvous barriers but never run
	// a driver.
	LocalPEs() int
	// LocalPE returns the i-th hosted processor, which must satisfy
	// Substrate (the machine layer cannot import core to say so).
	LocalPE(i int) any
	// Start completes the go-barrier: it returns once every node's mesh
	// is fully connected, so the first user send cannot race an accept.
	Start() error
	// Finish runs the termination barrier: the node announces that its
	// drivers returned and blocks until every active node has done so,
	// then tears down its links. Converse programs coordinate their own
	// completion, so no node may close connections before all are done.
	Finish() error
	// Fail reports a local fatal error to the whole job; the launcher
	// tears everything down. Converse is not fault-tolerant: the only
	// job-level response to a failure is a fast, loud exit.
	Fail(err error)
	// Failure delivers at most one asynchronous job failure (peer death,
	// heartbeat loss, launcher gone).
	Failure() <-chan error
	// Stop unblocks drivers waiting in Recv (ok=false), like
	// machine.Machine.Stop.
	Stop()
	// DescribeBlocked reports the local node's block state in the
	// machine layer's shared diagnostic format, for failure reports.
	DescribeBlocked() string
}

// blockStateNoter is the optional substrate extension behind the
// Proc.NoteThreadsSuspended/NoteBarrierWaiters hooks; both the
// simulated PE and the network NodePE implement it.
type blockStateNoter interface {
	NoteThreadsSuspended(delta int)
	NoteBarrierWaiters(delta int)
}
