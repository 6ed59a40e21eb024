package core

import (
	"fmt"
	"io"
	"runtime"
	"time"

	"converse/internal/machine"
	"converse/internal/metrics"
)

// Transport names for Config.Transport.
const (
	// TransportAuto (the empty string) selects the TCP network layer
	// when the process runs inside a converserun job (CONVERSE_NET_*
	// environment set by the launcher) and the in-process simulated
	// multicomputer otherwise. Programs need no source changes to run
	// under either substrate.
	TransportAuto = ""
	// TransportSim forces the in-process simulated multicomputer even
	// inside a converserun job (used by benchmarks to measure the
	// in-process baseline next to the wire).
	TransportSim = "sim"
	// TransportTCP requires the TCP network layer; NewMachine panics if
	// the process is not part of a converserun job.
	TransportTCP = "tcp"
)

// Failure policies for Config.FailurePolicy (network substrate). The
// strings equal internal/mnet's FailFast/FailRetry — asserted by a core
// test — because netmachine.go is deliberately the only core file that
// may import mnet.
const (
	// FailFast (the default) kills the whole job on the first link
	// fault — the paper's fail-stop posture.
	FailFast = "failfast"
	// FailRetry turns on the machine layer's reliability sub-layer:
	// checksummed, sequenced, acked frames; retransmission; and
	// session-resuming reconnection inside Config.RecoveryWindow. A peer
	// whose link stays down past the window is declared dead through the
	// peer-down notification path (Proc.NotifyPeerDown) instead of
	// killing the job.
	FailRetry = "retry"
)

// Config parameterizes a Converse machine.
type Config struct {
	// PEs is the number of processors; must be >= 1.
	PEs int
	// NodeSizes, when non-nil, groups the PEs into nodes — NodeSizes[g]
	// PEs on node g, numbered contiguously, summing to PEs — so the
	// simulated substrate presents any nodes×PEs topology for in-process
	// testing (see machine.Config.NodeSizes). Nil means the flat map:
	// one node per PE. Ignored by the TCP substrate, whose node map
	// comes from the launcher (-nodes/-ppn).
	NodeSizes []int
	// Transport selects the machine substrate: TransportAuto (default),
	// TransportSim, or TransportTCP. Under TCP each processor is an OS
	// process connected over the internal/mnet machine layer.
	Transport string
	// Model prices communication in virtual microseconds (see
	// internal/netmodel). If it also implements ConverseCosts, the
	// Converse software overheads are charged too. Nil means all
	// communication is free (functional mode).
	Model machine.CostModel
	// Watchdog, if nonzero, aborts Run after the given wall-clock time,
	// turning deadlocks in tests into errors.
	Watchdog time.Duration
	// Tracer, if non-nil, is called once per PE to build its event
	// tracer.
	Tracer func(pe int) Tracer
	// Metrics, if non-nil, attaches the per-PE observability registry
	// (internal/metrics): scheduler idle/busy time, queue depth
	// high-water marks, per-handler dispatch latency, per-peer message
	// volume. It must have been built for the same number of PEs. When
	// nil, the instrumented hot paths cost one nil check.
	Metrics *metrics.Registry
	// Coalesce switches sender-side small-message coalescing on the
	// simulated machine (see CoalesceConfig), its ablation knob; the
	// zero value leaves coalescing off. The network machine ignores it:
	// it always coalesces inter-node sends.
	Coalesce CoalesceConfig
	// FailurePolicy selects the network substrate's reaction to link
	// faults: FailFast (the default) or FailRetry. It overrides the
	// launcher-provided policy (converserun -failure) when set, and is
	// ignored by the simulated substrate, which has no wire to fail.
	FailurePolicy string
	// RecoveryWindow bounds how long a lost link may stay down under
	// FailRetry before its peer is declared dead. Zero means the machine
	// layer's default (a small multiple of the heartbeat).
	RecoveryWindow time.Duration
	// Job, when non-empty, tags this machine as belonging to one named
	// job of the elastic cluster service (internal/service): the tag
	// flows into every processor (Proc.Job) and into monitor snapshots
	// (ccs.Snapshot.Job) so introspection tooling can attribute load
	// per job on a host running many machines. Empty for classic
	// one-machine batch runs.
	Job string
	// Faults is a fault-injection plan in the internal/faultnet grammar
	// (e.g. "seed=7,drop=1%,killlink=1-0@120") for the TCP substrate;
	// empty means no injection. Faults hit outbound data frames *below*
	// the reliability layer, so FailRetry must repair them. The
	// simulated machine has no wire to fault: NewMachine panics if a
	// plan is set there.
	Faults string
}

// Machine is a Converse machine: one Converse runtime instance (Proc)
// per processor on some machine substrate. On the simulated
// multicomputer all processors live in this process; on a network
// substrate this process holds its node's processors (none on a surplus
// node) and the rest are peer OS processes. It is the Go counterpart of
// the ConverseInit/ConverseExit bracket — New builds and initializes all
// components, Run coordinates startup and termination.
type Machine struct {
	m     *machine.Machine // simulated substrate; nil under net
	net   NetSubstrate     // network substrate; nil under sim
	npes  int
	wdog  time.Duration
	procs []*Proc           // all PEs under sim; this process's PEs under net
	met   *metrics.Registry // Config.Metrics, for the monitor endpoint
	job   string            // Config.Job, for monitor snapshots
}

// NewMachine creates a Converse machine on the substrate selected by
// Config.Transport (see TransportAuto).
func NewMachine(cfg Config) *Machine {
	switch cfg.Transport {
	case TransportAuto:
		if netInJob() {
			return newNetMachine(cfg)
		}
	case TransportSim:
	case TransportTCP:
		if !netInJob() {
			panic("core: Transport \"tcp\" outside a converserun job (no CONVERSE_NET_* environment); start the program with cmd/converserun")
		}
		return newNetMachine(cfg)
	default:
		panic(fmt.Sprintf("core: unknown Transport %q (want %q, %q or %q)",
			cfg.Transport, TransportAuto, TransportSim, TransportTCP))
	}
	if cfg.Faults != "" {
		panic(fmt.Sprintf("core: Config.Faults %q needs the TCP substrate (Transport %q under converserun): fault plans act on its data frames, and the simulated machine has no wire", cfg.Faults, TransportTCP))
	}
	m := machine.New(machine.Config{PEs: cfg.PEs, NodeSizes: cfg.NodeSizes, Model: cfg.Model, Watchdog: cfg.Watchdog})
	cm := newMachine(cfg, cfg.Coalesce, cfg.PEs, func(i int) machine.Substrate { return m.PE(i) })
	cm.m = m
	return cm
}

// NewMachineOn creates a Converse machine on an external substrate: the
// local node is sub (one OS process of a multi-process machine, hosting
// one or more PEs), and Run coordinates with the peers through the
// substrate's lifecycle. Most callers use NewMachine with
// Config.Transport instead; this constructor is the seam tests and
// alternative launchers plug into. Its processors always coalesce small
// inter-node sends; Config.Coalesce is ignored.
func NewMachineOn(sub NetSubstrate, cfg Config) *Machine {
	// One runtime instance per hosted PE; a surplus node builds none.
	cm := newMachine(cfg, CoalesceConfig{Enabled: true}, sub.LocalPEs(), sub.LocalPE)
	cm.net = sub
	// A peer declared dead (mnet under FailRetry) is reported through
	// the generalized-message path: the notification is posted to each
	// local PE's built-in peer-down handler, so user callbacks
	// (Proc.NotifyPeerDown) always run in scheduler context.
	sub.SetPeerDownHandler(func(pe int, reason string) {
		for _, p := range cm.procs {
			p.pe.SendOwned(p.pe.ID(), makePeerDownMsg(p.peerDownHandler, pe, reason))
		}
	})
	return cm
}

// newMachine builds a Converse machine over the n processors this
// process hosts, pe(0) to pe(n-1): it checks cfg's metrics registry
// and each processor against the machine size, then gives every
// processor its runtime instance, tagged and instrumented as cfg asks.
func newMachine(cfg Config, co CoalesceConfig, n int, pe func(i int) machine.Substrate) *Machine {
	if cfg.Metrics != nil && cfg.Metrics.NumPEs() != cfg.PEs {
		panic(fmt.Sprintf("core: metrics registry built for %d PEs, machine has %d",
			cfg.Metrics.NumPEs(), cfg.PEs))
	}
	cm := &Machine{npes: cfg.PEs, wdog: cfg.Watchdog, met: cfg.Metrics, job: cfg.Job}
	cm.procs = make([]*Proc, 0, n)
	for i := 0; i < n; i++ {
		s := pe(i)
		if s.NumPEs() != cfg.PEs {
			panic(fmt.Sprintf("core: substrate joined a %d-PE machine, Config.PEs is %d", s.NumPEs(), cfg.PEs))
		}
		p := newProc(s, co)
		p.job = cfg.Job
		if cfg.Tracer != nil {
			p.SetTracer(cfg.Tracer(s.ID()))
		}
		if cfg.Metrics != nil {
			p.SetMetrics(cfg.Metrics.PE(s.ID()))
		}
		cm.procs = append(cm.procs, p)
	}
	return cm
}

// NumPes reports the machine size.
func (cm *Machine) NumPes() int { return cm.npes }

// Proc returns the Converse runtime instance of processor pe. It is
// intended for pre-Run setup and post-Run inspection; during Run each
// processor must use only its own Proc. On a network substrate only the
// processors hosted by this process are addressable.
func (cm *Machine) Proc(pe int) *Proc {
	if cm.net != nil {
		for _, p := range cm.procs {
			if p.pe.ID() == pe {
				return p
			}
		}
		panic(fmt.Sprintf("core: Proc(%d) on a network node: only this process's local processors are addressable", pe))
	}
	return cm.procs[pe]
}

// Machine exposes the underlying simulated multicomputer.
func (cm *Machine) Machine() *machine.Machine { return cm.m }

// RegisterHandler registers h on every processor (they all receive the
// same index) and returns that index. It must be called before Run; it
// matches the common Converse idiom of registering all handlers during
// startup so indices agree across processors.
func (cm *Machine) RegisterHandler(h Handler) int {
	idx := -1
	for _, p := range cm.procs {
		i := p.RegisterHandler(h)
		if idx == -1 {
			idx = i
		} else if i != idx {
			panic("core: handler index mismatch across PEs; register machine-wide handlers before per-PE ones")
		}
	}
	return idx
}

// RegisterCombiner registers a reduction combiner on every processor
// (they all receive the same index) and returns that index. Like
// RegisterHandler it must be called before Run.
func (cm *Machine) RegisterCombiner(c Combiner) int {
	idx := -1
	for _, p := range cm.procs {
		i := p.RegisterCombiner(c)
		if idx == -1 {
			idx = i
		} else if i != idx {
			panic("core: combiner index mismatch across PEs; register machine-wide combiners before per-PE ones")
		}
	}
	return idx
}

// SetConsole redirects the machine's atomic standard output/error. On a
// network substrate console output is relayed to the launcher and this
// call is a no-op.
func (cm *Machine) SetConsole(out, errw io.Writer) {
	if cm.m != nil {
		cm.m.SetConsole(out, errw)
	}
}

// SetInput redirects the machine's standard input (simulated substrate
// only).
func (cm *Machine) SetInput(r io.Reader) {
	if cm.m != nil {
		cm.m.SetInput(r)
	}
}

// Run starts the program: one driver per processor executing start with
// that processor's Proc, returning when all have finished (or with an
// error on panic or watchdog expiry). No Converse call may be made after
// Run returns, except for inspection of Procs.
//
// On a network substrate, "all" spans OS processes: Run executes start
// on each local processor (none on a surplus node), then holds the node
// in the job's termination barrier until every peer's driver has also
// returned, so no process tears down links a peer still needs.
func (cm *Machine) Run(start func(p *Proc)) error {
	if cm.net != nil {
		return cm.runNet(start)
	}
	return cm.m.Run(func(pe *machine.PE) {
		p := cm.procs[pe.ID()]
		start(p)
		// A driver that returns right after sending must not strand
		// staged coalescing packs.
		p.flushAll()
		p.driverExit()
	})
}

// runNet is Run on a network substrate: go-barrier, one local driver
// per hosted PE with panic recovery, watchdog, asynchronous failure,
// termination barrier.
func (cm *Machine) runNet(start func(p *Proc)) error {
	sub := cm.net
	if err := sub.Start(); err != nil {
		sub.Fail(err)
		return err
	}
	// One driver goroutine per local PE: an SMP-style node hosts its PEs
	// as concurrent schedulers sharing the process (and its zero-copy
	// in-memory message path).
	done := make(chan error, len(cm.procs))
	for _, p := range cm.procs {
		go func(p *Proc) {
			defer func() {
				if r := recover(); r != nil {
					buf := make([]byte, 16<<10)
					n := runtime.Stack(buf, false)
					done <- fmt.Errorf("core: pe %d panicked: %v\n%s", p.pe.ID(), r, buf[:n])
				}
			}()
			start(p)
			p.flushAll()
			p.driverExit()
			done <- nil
		}(p)
	}
	drivers := len(cm.procs)

	var timeout <-chan time.Time
	if cm.wdog > 0 {
		t := time.NewTimer(cm.wdog)
		defer t.Stop()
		timeout = t.C
	}

	var runErr error
	for drivers > 0 && runErr == nil {
		select {
		case err := <-done:
			drivers--
			runErr = err
		case err := <-sub.Failure():
			// A peer died or the launcher vanished. Unblock the local
			// drivers and fail fast; do not wait for them (they may be
			// wedged in user code, and the job is already lost).
			sub.Stop()
			runErr = err
		case <-timeout:
			sub.Stop()
			runErr = fmt.Errorf("core: watchdog expired after %v (likely distributed deadlock: %s)",
				cm.wdog, sub.DescribeBlocked())
		}
	}
	if runErr != nil {
		sub.Fail(runErr)
		return runErr
	}
	return sub.Finish()
}

// Stop aborts the machine, unblocking all processors.
func (cm *Machine) Stop() {
	if cm.net != nil {
		cm.net.Stop()
		return
	}
	cm.m.Stop()
}
