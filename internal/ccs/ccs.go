// Package ccs is the live introspection plane: a Converse
// client-server (CCS-style) monitor endpoint each rank opens on demand,
// plus the client and launcher-side aggregator that read it.
//
// The Charm lineage pairs the scheduler with a client-server interface
// so a running machine can be observed without stopping it; this
// package is that interface for this runtime. Each endpoint serves, on
// request:
//
//   - a point-in-time snapshot: the metrics registry (PR 1), scheduler
//     queue state published through the core's doorbell (so nothing
//     ever reads driver-local state from a foreign goroutine and the
//     scheduler is never blocked), inbox depth, and the blocked-thread
//     description,
//   - pprof CPU and heap captures, streamed back as frames.
//
// The protocol reuses the mnet wire framing (internal/wire) with its
// own kind range and the job's auth token, so a monitor speaks the same
// checksummed byte format as the mesh but a cross-connected client
// fails loudly. One request per connection; responses are JSON for
// snapshots and raw chunk frames for profiles.
//
// Design rule: this package must not import internal/core or
// internal/mnet. The core adapts itself to the Source interface and
// dials in; that keeps observation decoupled from the scheduler the
// same way fibers are decoupled from pthreads — by interface, not by
// embedding.
package ccs

import (
	"errors"
	"fmt"
	"io"
	"net"
	"runtime"
	"runtime/pprof"
	"sync"
	"time"

	"converse/internal/metrics"
	"converse/internal/wire"
)

// Frame kinds, in a range disjoint from internal/mnet's so a client
// dialing the wrong port gets a loud kind error, not silent misparse.
const (
	kReq       byte = 64 + iota // client request (JSON, reqMsg)
	kSnap                       // snapshot response (JSON, Snapshot)
	kProfChunk                  // one chunk of a pprof capture
	kProfEnd                    // end of a pprof capture stream
	kErr                        // request failed (JSON, wire.Error)
)

// Ops a request can ask for.
const (
	OpSnapshot = "snapshot"
	OpProfile  = "profile"
)

// Profile kinds.
const (
	ProfileCPU  = "cpu"
	ProfileHeap = "heap"
)

const (
	// probeTimeout bounds how long a snapshot waits for one scheduler
	// to answer its doorbell before reporting the last published state
	// as stale.
	probeTimeout = 250 * time.Millisecond
	// defaultProfileSeconds is the CPU capture window when the request
	// does not name one; maxProfileSeconds bounds it.
	defaultProfileSeconds = 2.0
	maxProfileSeconds     = 60.0
	// ioTimeout bounds single reads/writes on monitor connections.
	ioTimeout = 30 * time.Second
)

// SchedState is a point-in-time view of one processor's scheduler,
// published by the core's doorbell handler (internal/core re-exports
// this type; the doorbell is documented there).
type SchedState struct {
	// QueueLen is the scheduler queue depth (CsdLength).
	QueueLen int `json:"queue_len"`
	// DeferredLen counts messages set aside by GetSpecificMsg.
	DeferredLen int `json:"deferred_len"`
	// NetqLen counts network messages ingested but not yet scheduled.
	NetqLen int `json:"netq_len"`
	// DispatchDepth is the nested-dispatch depth at publish time (0 =
	// between handlers; >0 = ringed from inside a blocking receive
	// under a live handler).
	DispatchDepth int `json:"dispatch_depth"`
	// IdleCount is how many times the scheduler has blocked idle.
	IdleCount uint64 `json:"idle_count"`
	// Seq increments on every doorbell publish.
	Seq uint64 `json:"seq"`
}

// Source is one observable processor: the core adapts each local Proc
// to this interface. All methods must be safe to call from the
// monitor's goroutines.
type Source interface {
	// PEID is the processor's machine-wide id.
	PEID() int
	// Probe rings the processor's doorbell and returns its scheduler
	// state; ok=false means the answer is stale (scheduler busy or the
	// substrate cannot inject).
	Probe(timeout time.Duration) (SchedState, bool)
	// Blocked describes why the processor is blocked, in the shared
	// diagnostic format, or "" if unknown.
	Blocked() string
	// InboxLen is the machine-level inbound queue depth.
	InboxLen() int
}

// PEView is one processor's entry in a Snapshot.
type PEView struct {
	PE   int `json:"pe"`
	Rank int `json:"rank"`
	// Node is the PE's node in the machine's node×PE topology
	// (CmiNodeOf); equal to Rank on classic 1-PE-per-node jobs. Sources
	// that don't know their node report 0.
	Node  int        `json:"node"`
	Sched SchedState `json:"sched"`
	// Fresh reports whether Sched was published in answer to this
	// snapshot's doorbell ring (false = last known, possibly stale).
	Fresh    bool   `json:"fresh"`
	Blocked  string `json:"blocked,omitempty"`
	InboxLen int    `json:"inbox_len"`
	// Metrics is the PR 1 registry view for this processor; nil when
	// the machine runs without a metrics registry.
	Metrics *metrics.PESnapshot `json:"metrics,omitempty"`
}

// Snapshot is a mesh- or process-wide monitor snapshot.
type Snapshot struct {
	// Schema names the snapshot layout for scripts.
	Schema string `json:"schema"`
	// Job names the elastic-service job this snapshot belongs to;
	// empty for classic batch machines.
	Job string `json:"job,omitempty"`
	// NumPEs is the machine size; PEs holds the processors this
	// endpoint (or aggregate) could reach.
	NumPEs int      `json:"num_pes"`
	PEs    []PEView `json:"pes"`
	// Missing lists ranks an aggregate view could not reach.
	Missing []int `json:"missing,omitempty"`
	// UnixNanos stamps when the snapshot was assembled (client rate
	// computations divide by the delta between two snapshots).
	UnixNanos int64 `json:"unix_nanos"`
}

// SchemaV1 is the current Snapshot.Schema value.
const SchemaV1 = "converse-ccs/1"

type reqMsg struct {
	Token   string  `json:"token,omitempty"`
	Op      string  `json:"op"`
	Profile string  `json:"profile,omitempty"`
	Seconds float64 `json:"seconds,omitempty"`
	// Rank selects one rank's endpoint through an aggregator (profiles
	// are always per-process); -1 or absent means "this endpoint" and,
	// for snapshots through an aggregator, "all ranks".
	Rank int `json:"rank,omitempty"`
}

// Config parameterizes a per-process Monitor endpoint.
type Config struct {
	// Addr is the TCP listen address ("127.0.0.1:0" for an ephemeral
	// local port).
	Addr string
	// Token, when non-empty, must match every request's token (the
	// launcher passes the job token through).
	Token string
	// NumPEs is the machine size reported in snapshots.
	NumPEs int
	// Rank is this process's rank (0 under the sim substrate).
	Rank int
	// Registry, if non-nil, contributes per-PE metrics to snapshots.
	Registry *metrics.Registry
	// Sources are the processors living in this process.
	Sources []Source
	// Job, when non-empty, names the elastic-service job this machine
	// executes; it is stamped on every snapshot so viewers can
	// attribute load per job.
	Job string
}

// server is the request loop Monitor and Aggregate share: one accept
// loop and one request reader (read, kind check, decode, token check),
// then dispatch to the owner's snapshot or profile op. Any error a
// request meets becomes its one kErr reply.
type server struct {
	ln    net.Listener
	token string
	ops   ops

	mu     sync.Mutex
	closed bool
}

// ops answers a server's requests: Monitor for its own process,
// Aggregate for the mesh behind it.
type ops interface {
	snapshot() *Snapshot
	// profile streams one capture to c; an error it returns is sent as
	// the request's kErr reply.
	profile(c net.Conn, req reqMsg) error
}

// Monitor is a running per-process introspection endpoint.
type Monitor struct {
	*server
	cfg Config
}

// cpuMu serializes CPU profiling process-wide: the runtime supports one
// CPU profile at a time regardless of how many monitors ask.
var cpuMu sync.Mutex

// NewMonitor opens an endpoint and serves it on background goroutines
// until Close.
func NewMonitor(cfg Config) (*Monitor, error) {
	m := &Monitor{cfg: cfg}
	m.server = &server{token: cfg.Token, ops: m}
	if err := m.start(cfg.Addr); err != nil {
		return nil, err
	}
	return m, nil
}

// start opens addr and serves it on a background goroutine until Close.
func (s *server) start(addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return fmt.Errorf("ccs: listen %s: %w", addr, err)
	}
	s.ln = ln
	go s.acceptLoop()
	return nil
}

// Addr is the endpoint's actual listen address.
func (s *server) Addr() string { return s.ln.Addr().String() }

// Close stops the endpoint. In-flight requests finish on their own.
func (s *server) Close() error {
	s.mu.Lock()
	s.closed = true
	s.mu.Unlock()
	return s.ln.Close()
}

func (s *server) acceptLoop() {
	for {
		c, err := s.ln.Accept()
		if err != nil {
			s.mu.Lock()
			done := s.closed
			s.mu.Unlock()
			if done {
				return
			}
			// Transient accept errors (EMFILE etc): back off and retry.
			time.Sleep(50 * time.Millisecond)
			continue
		}
		go s.serveConn(c)
	}
}

// serveConn handles one request-response exchange and closes.
func (s *server) serveConn(c net.Conn) {
	defer c.Close()
	c.SetReadDeadline(time.Now().Add(ioTimeout))
	var req reqMsg
	err := wire.ReadJSON(c, kReq, kErr, &req)
	if err == nil && s.token != "" && req.Token != s.token {
		err = errors.New("ccs: bad token")
	}
	if err == nil {
		c.SetReadDeadline(time.Time{})
		switch req.Op {
		case OpSnapshot:
			c.SetWriteDeadline(time.Now().Add(ioTimeout))
			err = wire.WriteJSON(c, kSnap, s.ops.snapshot())
		case OpProfile:
			err = s.ops.profile(c, req)
		default:
			err = fmt.Errorf("ccs: unknown op %q", req.Op)
		}
	}
	if err != nil {
		c.SetWriteDeadline(time.Now().Add(ioTimeout))
		wire.WriteJSON(c, kErr, wire.Error{Text: err.Error()})
	}
}

// snapshot assembles this process's view. All sources are probed
// concurrently so one busy scheduler delays the snapshot by at most one
// probe timeout, not one per PE.
func (m *Monitor) snapshot() *Snapshot {
	snap := &Snapshot{
		Schema:    SchemaV1,
		Job:       m.cfg.Job,
		NumPEs:    m.cfg.NumPEs,
		PEs:       make([]PEView, len(m.cfg.Sources)),
		UnixNanos: time.Now().UnixNano(),
	}
	var reg *metrics.Snapshot
	if m.cfg.Registry != nil {
		s := m.cfg.Registry.Snapshot()
		reg = &s
	}
	var wg sync.WaitGroup
	for i, src := range m.cfg.Sources {
		wg.Add(1)
		go func(i int, src Source) {
			defer wg.Done()
			st, fresh := src.Probe(probeTimeout)
			v := PEView{
				PE:       src.PEID(),
				Rank:     m.cfg.Rank,
				Sched:    st,
				Fresh:    fresh,
				Blocked:  src.Blocked(),
				InboxLen: src.InboxLen(),
			}
			// Per-node grouping: sources that know their place in the
			// node×PE topology (core's procSource) report it; plain
			// test fakes fall back to node 0.
			if ns, ok := src.(interface{ Node() int }); ok {
				v.Node = ns.Node()
			}
			if reg != nil && v.PE >= 0 && v.PE < len(reg.PEs) {
				pe := reg.PEs[v.PE]
				v.Metrics = &pe
			}
			snap.PEs[i] = v
		}(i, src)
	}
	wg.Wait()
	return snap
}

// profile streams one pprof capture back as chunk frames.
func (m *Monitor) profile(c net.Conn, req reqMsg) error {
	w := &chunkWriter{c: c}
	switch req.Profile {
	case ProfileCPU:
		secs := req.Seconds
		if secs <= 0 {
			secs = defaultProfileSeconds
		}
		if secs > maxProfileSeconds {
			secs = maxProfileSeconds
		}
		if !cpuMu.TryLock() {
			return errors.New("ccs: a CPU profile is already being captured")
		}
		err := pprof.StartCPUProfile(w)
		if err == nil {
			time.Sleep(time.Duration(secs * float64(time.Second)))
			pprof.StopCPUProfile()
		}
		cpuMu.Unlock()
		if err != nil {
			return fmt.Errorf("ccs: cpu profile: %v", err)
		}
	case ProfileHeap:
		runtime.GC() // material allocations only, per pprof convention
		if err := pprof.WriteHeapProfile(w); err != nil {
			return fmt.Errorf("ccs: heap profile: %v", err)
		}
	default:
		return fmt.Errorf("ccs: unknown profile %q (want %q or %q)", req.Profile, ProfileCPU, ProfileHeap)
	}
	if w.err != nil {
		return w.err // client went away mid-stream
	}
	c.SetWriteDeadline(time.Now().Add(ioTimeout))
	return wire.WriteFrame(c, kProfEnd, nil)
}

// chunkWriter frames every Write as one profile chunk.
type chunkWriter struct {
	c   net.Conn
	err error
}

func (w *chunkWriter) Write(p []byte) (int, error) {
	if w.err != nil {
		return 0, w.err
	}
	w.c.SetWriteDeadline(time.Now().Add(ioTimeout))
	if err := wire.WriteFrame(w.c, kProfChunk, p); err != nil {
		w.err = err
		return 0, err
	}
	return len(p), nil
}

var _ io.Writer = (*chunkWriter)(nil)
