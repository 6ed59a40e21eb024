// Package machine implements the simulated multicomputer substrate that
// stands in for the parallel hardware of the paper's evaluation (Sun/HP
// workstation networks, Cray T3D, IBM SP, Intel Paragon).
//
// A Machine is a set of logical processing elements (PEs). Each PE's
// driver is a coroutine, and one conductor loop on the goroutine that
// calls Run switches between them (conductor.go), so exactly one PE
// runs at a time and a message hand-off costs a coroutine switch. Each
// PE owns a private address space by convention (nothing is shared
// except through messages) and has a thread-safe inbound packet queue
// fed by the other PEs and by foreign goroutines (Inject). This is the
// layer below the Converse machine interface (CMI): internal/core
// implements CmiSyncSend, CmiGetMsg and friends on top of it.
//
// Every packet carries a virtual arrival time in microseconds, computed
// from the sending PE's virtual clock plus a pluggable CostModel (wire
// latency + software overheads). With a nil model all costs are zero and
// the machine is a purely functional message-passing substrate; with one
// of the internal/netmodel models attached, the virtual clocks reproduce
// the timing behaviour of the paper's target machines.
package machine

import (
	"fmt"
	"sync"
	"time"
)

// CostModel prices communication in virtual microseconds. Implementations
// live in internal/netmodel; a nil model means every cost is zero.
type CostModel interface {
	// WireTime is the network transit time for a packet of the given
	// total size in bytes (latency plus per-byte cost, including any
	// packetization effects).
	WireTime(bytes int) float64
	// SendOverhead is the per-message software cost charged to the
	// sender's clock at send time.
	SendOverhead() float64
	// RecvOverhead is the per-message software cost charged to the
	// receiver's clock when it picks the packet up.
	RecvOverhead() float64
}

// Config parameterizes a Machine.
type Config struct {
	// PEs is the number of processing elements; must be >= 1.
	PEs int
	// NodeSizes, when non-nil, groups the PEs into nodes: NodeSizes[g]
	// PEs on node g, numbered contiguously, summing to PEs. Packets
	// between PEs of the same node pay no wire time (an in-memory
	// handoff), which is how the simulated machine presents any
	// nodes×PEs topology for in-process testing. Nil means the classic
	// flat map — one node per PE — with unchanged timing.
	NodeSizes []int
	// Model prices communication in virtual time. Nil means free.
	Model CostModel
	// Watchdog, if nonzero, aborts Run after the given wall-clock
	// duration, unblocking every PE. It exists so that tests of
	// blocking primitives fail with an error instead of hanging.
	Watchdog time.Duration
}

// Machine is a simulated multicomputer: Config.PEs processing elements
// connected by a reliable, non-overtaking-per-pair transport.
type Machine struct {
	pes      []*PE
	model    CostModel
	console  console
	watchdog time.Duration

	// topo is the node map (never nil); explicitTopo records whether it
	// was configured, which turns on the intra-node wire-time discount.
	topo         *Topology
	explicitTopo bool

	stopMu  sync.Mutex
	stopped bool

	depot Depot // the buffer tier behind every PE's pool (PE.Depot)

	cd conductor // runs the PEs during Run (conductor.go)
}

// New creates a machine with the given configuration.
func New(cfg Config) *Machine {
	if cfg.PEs < 1 {
		panic(fmt.Sprintf("machine: PEs must be >= 1, got %d", cfg.PEs))
	}
	m := &Machine{model: cfg.Model}
	if cfg.NodeSizes != nil {
		m.topo = NewTopology(cfg.NodeSizes)
		m.explicitTopo = true
		if m.topo.NumPEs() != cfg.PEs {
			panic(fmt.Sprintf("machine: node map %v covers %d PEs, machine has %d",
				cfg.NodeSizes, m.topo.NumPEs(), cfg.PEs))
		}
	} else {
		m.topo = FlatTopology(cfg.PEs)
	}
	m.console.init()
	m.cd.init(cfg.PEs)
	m.pes = make([]*PE, cfg.PEs)
	for i := range m.pes {
		m.pes[i] = newPE(m, i)
	}
	if cfg.Watchdog > 0 {
		m.watchdog = cfg.Watchdog
	}
	return m
}

// NumPEs reports the number of processing elements.
func (m *Machine) NumPEs() int { return len(m.pes) }

// PE returns the processing element with the given id.
func (m *Machine) PE(id int) *PE { return m.pes[id] }

// Topology returns the machine's node map (never nil; the flat
// one-node-per-PE map unless Config.NodeSizes set one).
func (m *Machine) Topology() *Topology { return m.topo }

// Model returns the machine's cost model (possibly nil).
func (m *Machine) Model() CostModel { return m.model }

// Stop marks the machine stopped and unblocks every PE blocked in a
// receive; their blocking calls return ok=false. Stop is idempotent and
// safe to call from any goroutine.
func (m *Machine) Stop() {
	m.stopMu.Lock()
	if m.stopped {
		m.stopMu.Unlock()
		return
	}
	m.stopped = true
	m.stopMu.Unlock()
	for _, pe := range m.pes {
		pe.inbox.Stop()
		m.cd.mark(pe.id)
	}
}

// Stopped reports whether Stop has been called.
func (m *Machine) Stopped() bool {
	m.stopMu.Lock()
	defer m.stopMu.Unlock()
	return m.stopped
}

// BlockState is a point-in-time summary of why one processing element
// may not be making progress. It distinguishes a driver blocked in a
// receive from one whose threads are all suspended or parked at a
// barrier, which is the difference between "waiting for a message that
// never comes" and "local synchronization bug".
type BlockState struct {
	RecvWait         bool // the driver is asleep inside Recv
	InboxLen         int  // packets waiting, unconsumed
	ThreadsSuspended int  // cth thread objects currently suspended
	BarrierWaiters   int  // threads blocked at a csync barrier
}

// FormatBlockState renders one PE's block state in the shared
// diagnostic format. The simulated machine's watchdog report and the
// network machine layer's failure report (internal/mnet) both use it,
// so a distributed hang reads the same as a local one.
func FormatBlockState(label string, st BlockState) string {
	s := label
	if st.RecvWait {
		s += " blocked-in-recv"
	} else {
		s += " running"
	}
	s += fmt.Sprintf(" inbox=%d", st.InboxLen)
	if st.ThreadsSuspended > 0 {
		s += fmt.Sprintf(" threads-suspended=%d", st.ThreadsSuspended)
	}
	if st.BarrierWaiters > 0 {
		s += fmt.Sprintf(" barrier-waiters=%d", st.BarrierWaiters)
	}
	return s
}

// DescribeBlocked reports every PE's block state in one line, the
// diagnostic attached to watchdog expiries: whether each driver is
// asleep in a receive, its inbox depth, and any suspended threads or
// barrier waiters.
func (m *Machine) DescribeBlocked() string {
	s := ""
	for _, pe := range m.pes {
		if s != "" {
			s += ", "
		}
		s += pe.DescribeBlocked()
	}
	return s
}
