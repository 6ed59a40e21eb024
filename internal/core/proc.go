package core

import (
	"fmt"

	"converse/internal/machine"
	"converse/internal/metrics"
	"converse/internal/queue"
)

// ConverseCosts extends machine.CostModel with the Converse-layer
// software costs: the "few tens of instructions" the framework adds over
// a native implementation (§3), and the scheduler-queue pass measured in
// the Figure 6 experiment. A cost model that implements this interface
// (internal/netmodel.Model does) gets these charged to the virtual
// clock; with any other model they are zero.
type ConverseCosts interface {
	CvsSendOverhead() float64
	CvsRecvOverhead() float64
	SchedOverhead() float64
}

// CoalesceCosts optionally extends a cost model with the per-message
// receive-side cost of splitting a coalesced pack apart
// (netmodel.Model implements it). Without it, unpacking is free in
// virtual time.
type CoalesceCosts interface {
	UnpackOverhead() float64
}

// Tracer receives runtime events for the tracing module (§3.3.2). The
// core, thread, and language layers all emit through this interface;
// internal/trace provides implementations.
type Tracer interface {
	Event(e TraceEvent)
}

// EventKind enumerates the standard trace events that all language
// implementations must record per the paper: message send, receive and
// processing, plus object and thread creation.
type EventKind uint8

// Standard event kinds.
const (
	EvSend          EventKind = iota + 1 // message sent; Src=this PE, Dst, Size, Handler
	EvRecv                               // message picked up from network; Src, Size, Handler
	EvBegin                              // handler processing begins; Handler
	EvEnd                                // handler processing ends; Handler
	EvEnqueue                            // message enqueued in scheduler queue; Handler
	EvThreadCreate                       // thread object created; Aux=thread id
	EvThreadResume                       // thread resumed; Aux=thread id
	EvThreadSuspend                      // thread suspended; Aux=thread id
	EvObjectCreate                       // language-level object created; Aux=object id
	EvUser                               // first self-describing user kind (see internal/trace)
)

// TraceEvent is one trace record in the standard format.
type TraceEvent struct {
	Kind    EventKind
	T       float64 // virtual time, microseconds
	PE      int
	Src     int
	Dst     int
	Size    int
	Handler int
	Aux     int
}

// Proc is one processor's Converse runtime instance: handler table,
// scheduler queue and machine-interface state. Converse keeps all
// runtime state strictly processor-local; a Proc's methods (other than
// those documented as cross-PE, none currently) must be called only from
// its PE's driver or one of that PE's cth thread coroutines.
type Proc struct {
	pe    machine.Substrate
	costs ConverseCosts // nil when the model prices no Converse costs

	handlers []Handler

	q        queue.Sched[[]byte] // the scheduler's queue (pluggable strategies)
	deferred queue.Deque[[]byte] // network messages set aside by GetSpecificMsg

	// Inbound ingestion: machine packets are split out of coalesced
	// packs and queued here as Converse messages (see coalesce.go).
	netq queue.Deque[netMsg]

	// Outbound coalescing state: per-destination staging packs and the
	// total count of staged messages (see coalesce.go).
	co          CoalesceConfig
	stage       []pack
	staged      int
	packHandler int
	unpackOv    float64

	exit bool // set by ExitScheduler

	// Buffer-ownership protocol (CmiGrabBuffer): the CMI owns the
	// buffer of the message currently being handled (dispStack, one
	// frame per nested dispatch) or most recently retrieved (lastGot)
	// unless grabbed; un-grabbed buffers are recycled through pool.
	dispStack []ownedBuf
	lastGot   ownedBuf
	ownSeq    uint64
	pool      msgPool

	// pending asynchronous sends, flushed by the progress engine
	async queue.Deque[*CommHandle]

	// preDispatch hooks run on every network message before handler
	// dispatch; a hook returning true consumes the message (used by the
	// EMI scatter facility).
	pre []func(msg []byte) bool

	atExit []func() // run when the driver returns (AtExit)

	tracer Tracer
	met    *metrics.PE // nil when no metrics registry is attached

	// job tags the machine this processor belongs to with its elastic
	// cluster service job name (core.Config.Job); empty for classic
	// batch machines. Immutable after construction, so handlers may
	// read it freely.
	job string

	// treeBcastHandler is the built-in spanning-tree broadcast
	// forwarder (bcast.go), registered first on every processor.
	treeBcastHandler int

	// nodeFirst caches each node's first global PE (the topology is
	// immutable for the life of the machine), so the two-level
	// collectives pay O(1) per tree edge. [nodeLo, nodeHi) is this
	// processor's own node, which coalescing never stages for.
	nodeFirst      []int
	nodeLo, nodeHi int

	// Collective state (reduce.go): the built-in reduction and
	// blocking-result handlers, the combiner registry, in-flight
	// reductions keyed by (tree, sequence) and completed ones kept for
	// reuse, the next sequence per tree, and blocking results waiting
	// for their call.
	reduceHandler int
	collHandler   int
	combiners     []Combiner
	reds          []*reduction
	redFree       []*reduction
	seqs          map[uint64]uint64
	results       [][]byte
	collOut       []byte
	barCombiner   int

	// peerDownHandler is the built-in peer-death declaration handler
	// (peerdown.go); deadPEs and peerDownFns are its processor-local
	// state.
	peerDownHandler int
	deadPEs         map[int]bool
	peerDownFns     []func(pe int, reason string)

	// ext stores per-processor state for higher layers (thread runtime,
	// language runtimes), keyed by package-chosen strings.
	ext map[string]any

	nIdle uint64 // times the scheduler found nothing to do (stats)

	// bell is the monitor doorbell (monitor.go): bellHandler is the
	// built-in handler that publishes scheduler state into the atomic
	// cells; ProbeSchedState rings it from foreign goroutines.
	bellHandler int
	bell        bellState
}

// ownedBuf is one CMI-owned message buffer awaiting grab-or-recycle.
type ownedBuf struct {
	msg     []byte
	grabbed bool
	seq     uint64
}

func newProc(pe machine.Substrate, co CoalesceConfig) *Proc {
	p := &Proc{pe: pe, co: co, ext: make(map[string]any)}
	p.pool.depot = pe.Depot()
	if cc, ok := pe.Model().(ConverseCosts); ok {
		p.costs = cc
	}
	if uc, ok := pe.Model().(CoalesceCosts); ok {
		p.unpackOv = uc.UnpackOverhead()
	}
	// Built-in handlers come first, uniformly on every processor, so
	// user handler indices stay aligned machine-wide.
	p.treeBcastHandler = p.RegisterHandler(onTreeBcast)
	p.packHandler = p.RegisterHandler(onPack)
	p.peerDownHandler = p.RegisterHandler(onPeerDown)
	p.bellHandler = p.RegisterHandler(onDoorbell)
	p.reduceHandler = p.RegisterHandler(onReduce)
	p.collHandler = p.RegisterHandler(onCollDone)
	p.barCombiner = p.RegisterCombiner(func(acc, _ []byte) []byte { return acc })
	p.bell.done = make(chan struct{}, 1)
	// Cache the node→first-PE map; the topology is immutable.
	nn := pe.NumNodes()
	p.nodeFirst = make([]int, nn)
	for g := 1; g < nn; g++ {
		p.nodeFirst[g] = p.nodeFirst[g-1] + pe.NodeSize(g-1)
	}
	p.nodeLo = p.nodeFirst[pe.Node()]
	p.nodeHi = p.nodeLo + pe.NodeSize(pe.Node())
	return p
}

// MyNode returns the node hosting this processor (CmiMyNode). A node is
// a group of PEs sharing a process (network substrates) or a configured
// node map (simulated machine); with no configured topology every PE is
// its own node.
func (p *Proc) MyNode() int { return p.pe.Node() }

// NumNodes returns the machine's node count (CmiNumNodes).
func (p *Proc) NumNodes() int { return p.pe.NumNodes() }

// NodeSize returns the number of PEs hosted by the given node
// (CmiNodeSize).
func (p *Proc) NodeSize(node int) int { return p.pe.NodeSize(node) }

// NodeOf returns the node hosting the given PE (CmiNodeOf).
func (p *Proc) NodeOf(pe int) int { return p.pe.NodeOf(pe) }

// NodeFirstPE returns the lowest-numbered PE of the given node
// (CmiNodeFirst); nodes host contiguous PE ranges.
func (p *Proc) NodeFirstPE(node int) int { return p.nodeFirst[node] }

// MyPe returns this processor's logical id (CmiMyPe).
func (p *Proc) MyPe() int { return p.pe.ID() }

// NumPes returns the machine size (CmiNumPe).
func (p *Proc) NumPes() int { return p.pe.NumPEs() }

// PE exposes the underlying machine-level substrate: the simulated
// processing element (*machine.PE) or the network one (*mnet.NodePE),
// behind the interface the core consumes.
func (p *Proc) PE() machine.Substrate { return p.pe }

// Timer returns the current virtual time in seconds since startup
// (CmiTimer; "usually has at least microsecond accuracy").
func (p *Proc) Timer() float64 { return p.pe.Clock() / 1e6 }

// TimerUs returns the current virtual time in microseconds.
func (p *Proc) TimerUs() float64 { return p.pe.Clock() }

// RegisterHandler adds a message handler to this processor's table and
// returns its index (CmiRegisterHandler). For SPMD use, register
// handlers in the same order on every processor so indices agree, as in
// Converse itself.
func (p *Proc) RegisterHandler(h Handler) int {
	if h == nil {
		panic("core: RegisterHandler(nil)")
	}
	p.handlers = append(p.handlers, h)
	return len(p.handlers) - 1
}

// HandlerFunc returns the handler function registered under index id
// (CmiGetHandlerFunction).
func (p *Proc) HandlerFunc(id int) Handler {
	if id < 0 || id >= len(p.handlers) {
		panic(fmt.Sprintf("core: pe %d: no handler registered under index %d", p.MyPe(), id))
	}
	return p.handlers[id]
}

// SetTracer installs (or removes, with nil) the event tracer.
func (p *Proc) SetTracer(t Tracer) { p.tracer = t }

// Tracer returns the installed tracer, or nil.
func (p *Proc) Tracer() Tracer { return p.tracer }

// SetMetrics installs (or removes, with nil) this processor's metrics
// registry. Like the tracer it is normally wired machine-wide through
// Config.Metrics.
func (p *Proc) SetMetrics(m *metrics.PE) { p.met = m }

// Metrics returns the processor's metrics registry, or nil when
// observability is off. Higher layers (cth, ldb, language runtimes)
// record through it with a nil check, mirroring the tracer discipline.
func (p *Proc) Metrics() *metrics.PE { return p.met }

// Job returns the name of the elastic-service job this processor's
// machine executes (core.Config.Job), or "" for classic batch
// machines. The tag is immutable for the machine's lifetime.
func (p *Proc) Job() string { return p.job }

// trace emits an event if a tracer is installed.
func (p *Proc) trace(kind EventKind, src, dst, size, handler, aux int) {
	if p.tracer == nil {
		return
	}
	p.tracer.Event(TraceEvent{
		Kind: kind, T: p.pe.Clock(), PE: p.MyPe(),
		Src: src, Dst: dst, Size: size, Handler: handler, Aux: aux,
	})
}

// --- metrics hook points (§3.3.2 observability) ---
//
// Each note* helper is a single nil check when no registry is attached;
// BenchmarkMetricsDisabled asserts the disabled cost (0 allocs, a few
// ns) on the dispatch and send hot paths.

// noteSend records a message sent to dst in the metrics registry.
func (p *Proc) noteSend(dst, n int) {
	if p.met != nil {
		p.met.MsgSent(dst, n)
	}
}

// noteRecv records a message received from src.
func (p *Proc) noteRecv(src, n int) {
	if p.met != nil {
		p.met.MsgRecv(src, n)
	}
}

// noteEnqueue records a scheduler-queue enqueue and its resulting depth.
func (p *Proc) noteEnqueue() {
	if p.met != nil {
		p.met.Enqueued(p.q.Len())
	}
}

// noteIdleStart samples the clock before a blocking network wait.
func (p *Proc) noteIdleStart() float64 {
	if p.met == nil {
		return 0
	}
	return p.pe.Clock()
}

// noteIdleEnd charges the virtual time that passed while blocked idle.
func (p *Proc) noteIdleEnd(from float64) {
	if p.met != nil {
		p.met.SchedIdle(p.pe.Clock() - from)
	}
}

// NoteThreadsSuspended adjusts the substrate's count of suspended
// thread objects, feeding the blocked-state diagnostics (the thread
// layer calls it around suspend/resume).
func (p *Proc) NoteThreadsSuspended(delta int) { p.pe.NoteThreadsSuspended(delta) }

// NoteBarrierWaiters adjusts the substrate's count of threads blocked
// at a synchronization barrier (called by csync.Barrier).
func (p *Proc) NoteBarrierWaiters(delta int) { p.pe.NoteBarrierWaiters(delta) }

// AtExit registers f to run on this processor when its driver's start
// function returns, before Run counts the driver finished. It is the
// seam through which a layer releases what it holds per processor —
// cth unwinds the threads still suspended there. Functions run in
// registration order. A driver that panics skips them: the machine
// reports the panic with the processor's state as the panic left it.
func (p *Proc) AtExit(f func()) { p.atExit = append(p.atExit, f) }

// driverExit runs the AtExit functions.
func (p *Proc) driverExit() {
	for _, f := range p.atExit {
		f()
	}
}

// AddPreDispatch registers a hook that sees every network message before
// handler dispatch; returning true consumes the message. The EMI scatter
// ("advance receive") facility is built on this.
func (p *Proc) AddPreDispatch(f func(msg []byte) bool) { p.pre = append(p.pre, f) }

// SetExt stores per-processor extension state for a higher layer.
func (p *Proc) SetExt(key string, v any) { p.ext[key] = v }

// Ext retrieves extension state stored with SetExt, or nil.
func (p *Proc) Ext(key string) any { return p.ext[key] }

// Printf performs an atomic formatted write to standard output
// (CmiPrintf).
func (p *Proc) Printf(format string, args ...any) { p.pe.Printf(format, args...) }

// Errorf performs an atomic formatted write to standard error
// (CmiError).
func (p *Proc) Errorf(format string, args ...any) { p.pe.Errorf(format, args...) }

// Scanf performs an atomic, blocking formatted read from standard input
// (CmiScanf).
func (p *Proc) Scanf(format string, args ...any) (int, error) {
	return p.pe.Scanf(format, args...)
}

// ScanfAsync is the non-blocking CmiScanf variant: it reads one input
// line and sends it to the given handler on this processor as the
// payload of a generalized message; the recipient can re-scan it
// (fmt.Sscanf), as the paper describes. Delivery happens through the
// normal message path, so the result is picked up by the scheduler.
func (p *Proc) ScanfAsync(handler int) error {
	line, err := p.pe.ReadLine()
	if err != nil {
		return err
	}
	p.SyncSend(p.MyPe(), MakeMsg(handler, []byte(line)))
	return nil
}
