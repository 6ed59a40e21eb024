// Package converse is a Go implementation of Converse, the
// interoperable framework for parallel programming of Kale, Bhandarkar,
// Jagathesan and Krishnan (IPPS 1996). Converse lets modules written in
// different parallel paradigms — single-process (SPMD) modules,
// message-driven concurrent objects, and threads — coexist and
// interleave in a single parallel program, under one unified scheduler,
// paying only for the features each module uses.
//
// The package re-exports the core runtime (internal/core); the paper's
// other components have public facade packages:
//
//   - converse/netmodel — communication-cost models for the paper's
//     five evaluation machines (Figures 4-8)
//   - converse/bench — the measurement harness behind those figures and
//     the fast-path benchmarks
//   - converse/cth — thread objects (suspend/resume divorced from
//     scheduling policy)
//   - converse/csync — locks, condition variables, barriers
//   - converse/msgmgr — tagged message managers
//   - converse/ldb — seed-based dynamic load balancing
//   - converse/trace — event tracing, causal merge and Perfetto export
//   - converse/metrics — allocation-free per-PE runtime metrics
//   - converse/lang/{sm,tsm,dp,pvmc,charm,mdt} — language runtimes
//     built on the framework
//
// # Sending and message ownership
//
// Proc.Send is the unified entry point. By default the runtime copies
// the message and the caller keeps its buffer; passing the Transfer
// option hands the buffer to the runtime, which recycles it through
// the per-PE message pool once sent:
//
//	p.Send(dst, msg)                      // copy; caller keeps msg
//	p.Send(dst, msg, converse.Transfer)   // runtime takes msg
//	p.Send(converse.BroadcastOthers, msg) // every other processor
//	p.Send(converse.BroadcastAll, msg, converse.Transfer)
//
// Allocate send buffers with Proc.Alloc to hit the pool's sized
// classes; in steady state a Transfer send then completes without
// heap allocation. On the TCP network machine, small messages to the
// same destination on another node are always coalesced into one link
// frame; on the simulated machine Config.Coalesce.Enabled turns the
// same staging on. Delivery order per sender/receiver pair is
// preserved either way. Packs flush whenever the processor enters the
// scheduler or a receive, and when its driver returns, so a driver
// that waits outside Converse (a Go channel, a sleep) must call
// Proc.Progress first.
//
// # Nodes, topology and collectives
//
// A machine is a set of nodes, each hosting one or more processors —
// the paper's CmiMyNode/CmiNumNodes family. Proc.MyNode, Proc.NumNodes,
// Proc.NodeSize, Proc.NodeOf and Proc.NodeFirstPE expose the node×PE
// map; the old flat-PE helpers (Proc.MyPe, Proc.NumPes) remain and
// describe the same machine. Under the simulated substrate
// Config.NodeSizes shapes the map (nil = one node per PE); under TCP it
// comes from converserun -nodes/-ppn, and processors sharing a node
// share one OS process, exchanging intra-node messages by in-memory
// pointer handoff instead of the wire.
//
// Collectives are topology-aware: Proc.Broadcast, Proc.Reduce and
// Proc.AllReduce (with a Combiner registered machine-wide via
// RegisterCombiner) and Proc.Barrier (an AllReduce of empty
// contributions) all run on one two-level spanning tree — binomial
// across nodes, then a flat fan-out inside each node. The same engine
// also walks explicit trees given as a member/parent table
// (Proc.MulticastTree, Proc.ReduceTree, Proc.AllReduceTree), which is
// how the EMI's processor groups run. The Send sentinels
// BroadcastOthers/BroadcastAll and the language layers' collectives
// (MPI and data-parallel reductions, broadcasts and gathers, charm's
// Rebalance, the PVM, NX and SM barriers) delegate to the same engine.
//
// # Quick start
//
//	cm := converse.NewMachine(converse.Config{PEs: 2})
//	var hPing int
//	hPing = cm.RegisterHandler(func(p *converse.Proc, msg []byte) {
//		if p.MyPe() == 1 {
//			p.SyncSend(0, converse.MakeMsg(hPing, converse.Payload(msg)))
//			return
//		}
//		p.Printf("reply: %s\n", converse.Payload(msg))
//		p.ExitScheduler()
//	})
//	cm.Run(func(p *converse.Proc) {
//		if p.MyPe() == 0 {
//			p.SyncSend(1, converse.MakeMsg(hPing, []byte("hello")))
//		}
//		p.Scheduler(-1)
//	})
//
// See examples/ for multi-paradigm programs and cmd/figures for the
// harness that regenerates the paper's evaluation figures.
package converse

import (
	"converse/internal/core"
	"converse/internal/metrics"
)

// Machine is a Converse machine: a simulated multicomputer with one
// Converse runtime instance per processor.
type Machine = core.Machine

// Config parameterizes a Machine.
type Config = core.Config

// Proc is one processor's Converse runtime instance.
type Proc = core.Proc

// Handler is a message-handler function (registered per processor).
type Handler = core.Handler

// CommHandle tracks an asynchronous communication operation.
type CommHandle = core.CommHandle

// Tracer receives runtime trace events.
type Tracer = core.Tracer

// TraceEvent is one trace record.
type TraceEvent = core.TraceEvent

// CoalesceConfig switches per-peer small-message coalescing on the
// simulated machine (Config.Coalesce); its one field is Enabled. The
// limits are fixed — messages up to 512 B are staged, and a pack holds
// at most 32 messages and 4 KB. The TCP network machine ignores it and
// always coalesces at those limits.
type CoalesceConfig = core.CoalesceConfig

// SendOpt is an option flag for Proc.Send.
type SendOpt = core.SendOpt

// Transfer makes Send take ownership of the message buffer: the
// caller must not touch it afterwards, and the runtime recycles it
// through the message pool.
const Transfer = core.Transfer

// ExcludeSelf makes Proc.Broadcast skip the calling processor (the
// Send sentinel BroadcastOthers passes it for you).
const ExcludeSelf = core.ExcludeSelf

// Combiner merges two reduction contributions into one (Proc.Reduce);
// it must be associative and commutative. Register combiners
// machine-wide with Machine.RegisterCombiner before Run.
type Combiner = core.Combiner

// BroadcastOthers, passed as the destination to Proc.Send, delivers
// the message to every processor except the sender; BroadcastAll
// includes the sender.
const (
	BroadcastOthers = core.BroadcastOthers
	BroadcastAll    = core.BroadcastAll
)

// HeaderSize is the generalized-message header size in bytes.
const HeaderSize = core.HeaderSize

// Transport values for Config.Transport: TransportAuto picks the TCP
// network machine inside a converserun job and the simulated
// multicomputer otherwise; the other two force a substrate.
const (
	TransportAuto = core.TransportAuto
	TransportSim  = core.TransportSim
	TransportTCP  = core.TransportTCP
)

// Failure policies for Config.FailurePolicy on the TCP network
// substrate: FailFast (the default) kills the whole job on the first
// link fault; FailRetry turns on the reliability sub-layer (checksums,
// acks, retransmission, session-resuming reconnection) and converts an
// unrecovered link into a peer-down notification delivered through
// Proc.NotifyPeerDown.
const (
	FailFast  = core.FailFast
	FailRetry = core.FailRetry
)

// NewMachine creates a Converse machine.
func NewMachine(cfg Config) *Machine { return core.NewMachine(cfg) }

// NewMsg allocates a generalized message with the given handler index
// and payload length.
func NewMsg(handler, payloadLen int) []byte { return core.NewMsg(handler, payloadLen) }

// MakeMsg builds a generalized message carrying a copy of payload.
func MakeMsg(handler int, payload []byte) []byte { return core.MakeMsg(handler, payload) }

// SetHandler stores the handler index in a message's header.
func SetHandler(msg []byte, handler int) { core.SetHandler(msg, handler) }

// HandlerOf extracts the handler index from a message's header.
func HandlerOf(msg []byte) int { return core.HandlerOf(msg) }

// Payload returns the message body after the header.
func Payload(msg []byte) []byte { return core.Payload(msg) }

// SetFlags stores the flag word in a message's header.
func SetFlags(msg []byte, flags uint32) { core.SetFlags(msg, flags) }

// FlagsOf extracts the flag word from a message's header.
func FlagsOf(msg []byte) uint32 { return core.FlagsOf(msg) }

// SetImmediate marks a message for dispatch on arrival, bypassing the
// scheduler queue (and the coalescing stage).
func SetImmediate(msg []byte) { core.SetImmediate(msg) }

// IsImmediate reports whether a message carries the immediate flag.
func IsImmediate(msg []byte) bool { return core.IsImmediate(msg) }

// NewMetrics builds a per-PE metrics registry for a machine of the
// given size; attach it via Config.Metrics and read it with
// Registry.Snapshot (safe while the machine runs). With no registry
// attached, the instrumented runtime paths cost only a nil check.
func NewMetrics(pes int) *metrics.Registry { return metrics.New(pes) }

// MetricsRegistry is the per-machine metrics registry type.
type MetricsRegistry = metrics.Registry

// MetricsSnapshot is a merged, read-consistent view of a registry.
type MetricsSnapshot = metrics.Snapshot
