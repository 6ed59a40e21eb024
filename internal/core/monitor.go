// The monitor doorbell: the scheduler-side half of the live
// introspection plane (internal/ccs).
//
// All scheduler state — queue depths, the dispatch stack, the idle
// counter — is strictly driver-goroutine-local, so a monitor thread
// must not read it directly. Instead it "rings the doorbell": it
// injects a tiny immediate self-message through the substrate's
// foreign-safe Inject path and waits briefly. The scheduler dispatches
// the doorbell like any other immediate message — between handlers, or
// inline while blocked in GetSpecificMsg — and the handler publishes a
// consistent snapshot of the driver-local state into atomic cells the
// monitor then reads. The scheduler is never blocked, never locked, and
// pays nothing while no probe is in flight; a wedged or long-running
// handler simply makes the probe time out, returning the last published
// (stale) state with ok=false.
package core

import (
	"sync"
	"sync/atomic"
	"time"

	"converse/internal/ccs"
)

// SchedState is a point-in-time view of one processor's scheduler,
// published by the doorbell handler. It is defined in internal/ccs
// (the introspection plane's snapshot schema) and re-exported here.
type SchedState = ccs.SchedState

// bellState is the doorbell's shared mailbox: the handler (driver
// goroutine) stores, probes (any goroutine) load.
type bellState struct {
	queueLen      atomic.Int64
	deferredLen   atomic.Int64
	netqLen       atomic.Int64
	dispatchDepth atomic.Int64
	idleCount     atomic.Uint64
	seq           atomic.Uint64

	// done is signaled (capacity 1, nonblocking) by the handler after a
	// publish; mu serializes probers so one drained signal answers one
	// probe.
	done chan struct{}
	mu   sync.Mutex
}

// onDoorbell publishes the driver-local scheduler state into the atomic
// mailbox and signals the waiting prober. It runs on the scheduler's
// own goroutine, so the plain reads of q/deferred/netq/dispStack/nIdle
// are race-free; everything it writes is an atomic cell and it
// allocates nothing, keeping the probe invisible to the hot path.
//
//converse:hotpath
func onDoorbell(p *Proc, msg []byte) {
	b := &p.bell
	b.queueLen.Store(int64(p.q.Len()))
	b.deferredLen.Store(int64(p.deferred.Len()))
	b.netqLen.Store(int64(p.netq.Len()))
	// The doorbell's own dispatch frame is on the stack; don't count it.
	b.dispatchDepth.Store(int64(len(p.dispStack) - 1))
	b.idleCount.Store(p.nIdle)
	b.seq.Add(1)
	select {
	case b.done <- struct{}{}:
	default:
	}
}

// load reads the mailbox (any goroutine).
func (b *bellState) load() SchedState {
	return SchedState{
		QueueLen:      int(b.queueLen.Load()),
		DeferredLen:   int(b.deferredLen.Load()),
		NetqLen:       int(b.netqLen.Load()),
		DispatchDepth: int(b.dispatchDepth.Load()),
		IdleCount:     b.idleCount.Load(),
		Seq:           b.seq.Load(),
	}
}

// ProbeSchedState rings this processor's doorbell and waits up to
// timeout for the scheduler to answer. It may be called from any
// goroutine. ok reports freshness: true means the returned state was
// published in response to this probe; false means the scheduler didn't
// get to the doorbell in time (busy in a long handler) and the state is
// the last published one — possibly zero, never torn.
func (p *Proc) ProbeSchedState(timeout time.Duration) (st SchedState, ok bool) {
	b := &p.bell
	b.mu.Lock()
	defer b.mu.Unlock()
	// Drain a stale completion from a previously timed-out probe so the
	// wait below pairs with this ring.
	select {
	case <-b.done:
	default:
	}
	before := b.seq.Load()
	msg := NewMsg(p.bellHandler, 0)
	SetImmediate(msg)
	p.pe.Inject(msg)
	t := time.NewTimer(timeout)
	defer t.Stop()
	select {
	case <-b.done:
		return b.load(), b.seq.Load() != before
	case <-t.C:
		return b.load(), false
	}
}

// procSource adapts one Proc to the monitor's Source interface. All of
// its methods stay off driver-local state: the probe goes through the
// doorbell, and block/inbox state comes from the substrate's
// foreign-safe diagnostics.
type procSource struct {
	p *Proc
}

func (s procSource) PEID() int { return s.p.pe.ID() }

func (s procSource) Probe(timeout time.Duration) (SchedState, bool) {
	return s.p.ProbeSchedState(timeout)
}

func (s procSource) Blocked() string { return s.p.pe.DescribeBlocked() }

func (s procSource) Node() int { return s.p.pe.Node() }

func (s procSource) InboxLen() int { return s.p.pe.InboxLen() }

// StartMonitor opens a live introspection endpoint (internal/ccs) for
// this machine on addr ("127.0.0.1:0" for an ephemeral port). Every
// processor living in this process becomes an observable source; the
// machine's metrics registry (Config.Metrics), if any, is served with
// each snapshot. token, when non-empty, must accompany every request.
// The endpoint runs on its own goroutines until Close and never blocks
// the schedulers: all scheduler state flows through the doorbell.
func (cm *Machine) StartMonitor(addr, token string) (*ccs.Monitor, error) {
	cfg := ccs.Config{
		Addr:     addr,
		Token:    token,
		NumPEs:   cm.npes,
		Registry: cm.met,
		Job:      cm.job,
	}
	for _, p := range cm.procs {
		cfg.Sources = append(cfg.Sources, procSource{p: p})
	}
	if len(cm.procs) > 0 {
		cfg.Rank = cm.procs[0].pe.Node() // node 0 under the simulated substrate
	}
	return ccs.NewMonitor(cfg)
}
