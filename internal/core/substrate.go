package core

import "converse/internal/machine"

// NetSubstrate is the job-level lifecycle of an out-of-process machine
// layer: the node process that hosts some of the machine's processors,
// the rendezvous barriers around Run, and asynchronous failure (a peer
// process died, the launcher vanished). internal/mnet.Node implements
// it; the processors themselves are its LocalPE machine.Substrates.
type NetSubstrate interface {
	// LocalPEs is the number of the machine's processors this node
	// hosts. A job may hold more worker processes than the machine has
	// nodes (converserun -np 4 running a 2-PE program); surplus nodes
	// host none: they take part in the rendezvous barriers but never run
	// a driver.
	LocalPEs() int
	// LocalPE returns the i-th hosted processor.
	LocalPE(i int) machine.Substrate
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
	// SetPeerDownHandler registers the callback through which the
	// machine layer reports a peer declared dead (FailRetry, recovery
	// window exhausted). It may run on any goroutine; the core
	// re-posts it through the message path.
	SetPeerDownHandler(f func(pe int, reason string))
}
