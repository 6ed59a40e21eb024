package mnet

// ControlServer is the launcher side of the rendezvous protocol,
// extracted from Launch so it can serve jobs whose workers are not
// child processes of this process: cmd/converserun wraps it around
// spawned workers, and the elastic cluster service (internal/service)
// runs one per admitted job, with conversed daemons joining the round
// as in-process nodes. One ControlServer coordinates one job: a fixed
// worker count, one token, and any number of sequential rendezvous
// rounds (a program that builds machines in sequence joins once per
// machine, like under converserun).

import (
	"bufio"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"converse/internal/wire"
)

// ControlCallbacks connect a ControlServer to its owner. All callbacks
// may be nil; they are invoked from connection-reader goroutines and
// must be safe for concurrent use.
type ControlCallbacks struct {
	// Console receives forwarded CmiPrintf/CmiError output.
	Console func(rank int, isErr bool, text string)
	// MonitorAddr receives a worker's reported introspection endpoint.
	MonitorAddr func(rank int, addr string)
	// Fail receives the job's first fatal error (worker-reported fatal,
	// protocol violation, or — when RankLost declines to tolerate it — a
	// lost control connection). The server keeps running; stopping the
	// job is the owner's call.
	Fail func(err error)
	// RankLost is consulted when a rank's control connection is lost
	// before its round released. Returning true tolerates the loss: the
	// rank is marked dead so release barriers don't wait for it
	// (converserun's FailRetry posture, and the service's daemon-drain
	// path). Returning false — or a nil callback — escalates to Fail.
	RankLost func(rank int, err error) bool
	// Released fires when a round's release barrier completes: every
	// active node reported done and the release was broadcast.
	Released func(round int)
}

// ControlServer serves the worker side of one job's control
// connections. Construct with NewControlServer, then Serve on a
// listener owned by the caller.
type ControlServer struct {
	np    int
	ppn   int
	token string
	hb    time.Duration
	cbs   ControlCallbacks

	mu      sync.Mutex
	rounds  map[int]*round
	conns   map[net.Conn]struct{} // live worker control connections
	aborted bool

	// done suppresses failure reports during orderly shutdown, when
	// connection teardown is expected rather than diagnostic.
	done atomic.Bool
	// connWg tracks live control-connection readers so an owner can
	// drain final console frames before tearing down.
	connWg sync.WaitGroup
}

// NewControlServer builds a control server for a job of np workers,
// each hosting up to ppn PEs (0 or 1 means the classic one PE per
// process), guarded by token. hb is the worker liveness interval: a
// control connection silent for heartbeatMissFactor intervals is
// treated as a lost rank.
func NewControlServer(np, ppn int, token string, hb time.Duration, cbs ControlCallbacks) *ControlServer {
	if ppn < 1 {
		ppn = 1
	}
	if hb <= 0 {
		hb = defaultHeartbeat
	}
	return &ControlServer{
		np: np, ppn: ppn, token: token, hb: hb, cbs: cbs,
		rounds: map[int]*round{},
		conns:  map[net.Conn]struct{}{},
	}
}

// Serve accepts and serves control connections until the listener
// closes. It blocks; run it on its own goroutine.
func (s *ControlServer) Serve(ls net.Listener) {
	for {
		conn, err := ls.Accept()
		if err != nil {
			return
		}
		s.mu.Lock()
		if s.aborted {
			s.mu.Unlock()
			conn.Close()
			continue
		}
		s.conns[conn] = struct{}{}
		s.mu.Unlock()
		s.connWg.Add(1)
		go func() {
			defer s.connWg.Done()
			s.handleConn(conn)
			s.mu.Lock()
			delete(s.conns, conn)
			s.mu.Unlock()
		}()
	}
}

// Shutdown marks the server as winding down: subsequent connection
// losses are expected teardown, not failures. The caller closes the
// listener itself.
func (s *ControlServer) Shutdown() { s.done.Store(true) }

// Abort is Shutdown plus force: it severs every live worker control
// connection. Shutdown alone leaves workers to notice on their own,
// which can take a full handshake timeout for a rank still blocked in
// rendezvous — its missing peer will never say hello, and no frame
// reaches it until the table broadcast. Closing the connection makes
// the worker's control reader fail the node immediately ("launcher
// connection lost"), so a doomed gang drains in milliseconds. Late
// dialers are covered too: Serve accepts and immediately closes new
// connections after Abort, which beats closing the listener — workers
// retry a refused connect with backoff until their handshake deadline,
// but an accepted-then-closed connection fails them at once. Owners
// with workers worth preserving must use Shutdown instead.
func (s *ControlServer) Abort() {
	s.done.Store(true)
	s.mu.Lock()
	s.aborted = true
	conns := make([]net.Conn, 0, len(s.conns))
	for c := range s.conns {
		conns = append(conns, c)
	}
	s.mu.Unlock()
	for _, c := range conns {
		c.Close()
	}
}

// Drain waits up to timeout for the connection readers to finish, so
// final console frames are delivered before the owner returns.
func (s *ControlServer) Drain(timeout time.Duration) {
	drained := make(chan struct{})
	go func() { s.connWg.Wait(); close(drained) }()
	select {
	case <-drained:
	case <-time.After(timeout):
	}
}

func (s *ControlServer) fail(err error) {
	if s.cbs.Fail != nil {
		s.cbs.Fail(err)
	}
}

// handleConn serves one worker control connection. The rolling read
// deadline is the worker-liveness detector: workers ping every
// heartbeat interval, so heartbeatMissFactor intervals of silence mean
// the worker is wedged. A clean close is expected only after the
// worker's round was released.
func (s *ControlServer) handleConn(conn net.Conn) {
	defer conn.Close()
	r := bufio.NewReader(conn)
	allowance := time.Duration(heartbeatMissFactor) * s.hb
	var rd *round
	rank := -1
	for {
		conn.SetReadDeadline(time.Now().Add(allowance))
		k, payload, err := readFrame(r)
		if err != nil {
			if s.done.Load() {
				return
			}
			s.mu.Lock()
			released := rd != nil && rd.released
			s.mu.Unlock()
			if released || rank < 0 {
				return // normal post-release close, or a stray connection
			}
			if isTimeout(err) {
				err = fmt.Errorf("no ping for %v (worker wedged)", allowance)
			}
			if s.cbs.RankLost != nil && s.cbs.RankLost(rank, err) {
				// Tolerated loss (converserun FailRetry, service daemon
				// drain): mark the rank dead so barriers don't wait on it.
				s.MarkDead(rank)
				return
			}
			s.fail(fmt.Errorf("mnet: lost control connection to worker rank %d: %v", rank, err))
			return
		}
		switch k {
		case fHello:
			var h helloMsg
			if err := wire.DecodeJSON(byte(k), payload, &h); err != nil {
				s.fail(err)
				return
			}
			if err := s.hello(conn, h); err != nil {
				s.fail(err)
				return
			}
			rank = h.Rank
			s.mu.Lock()
			rd = s.rounds[h.Round]
			s.mu.Unlock()
		case fMeshOK:
			var m meshOKMsg
			if err := wire.DecodeJSON(byte(k), payload, &m); err != nil {
				s.fail(err)
				return
			}
			s.meshOK(m)
		case fDone:
			var d doneMsg
			if err := wire.DecodeJSON(byte(k), payload, &d); err != nil {
				s.fail(err)
				return
			}
			s.workerDone(d)
		case fConsole:
			var c consoleMsg
			if err := wire.DecodeJSON(byte(k), payload, &c); err != nil {
				s.fail(err)
				return
			}
			if s.cbs.Console != nil {
				s.cbs.Console(c.Rank, c.Err, c.Text)
			}
		case fFail:
			var f failMsg
			if wire.DecodeJSON(byte(k), payload, &f) == nil {
				s.fail(fmt.Errorf("mnet: worker rank %d reports fatal error: %s", f.Rank, f.Text))
			} else {
				s.fail(fmt.Errorf("mnet: worker rank %d reports fatal error", rank))
			}
			return
		case fMonitorAddr:
			var m monitorAddrMsg
			if err := wire.DecodeJSON(byte(k), payload, &m); err != nil {
				s.fail(err)
				return
			}
			if s.cbs.MonitorAddr != nil {
				s.cbs.MonitorAddr(m.Rank, m.Addr)
			}
		case fPing:
			// Receiving it already refreshed the deadline.
		default:
			s.fail(fmt.Errorf("mnet: unexpected %v frame from worker rank %d", k, rank))
			return
		}
	}
}

// hello registers one worker in its rendezvous round; the NP-th hello
// completes the round's membership and broadcasts the node table.
func (s *ControlServer) hello(conn net.Conn, h helloMsg) error {
	if h.Magic != protoMagic || h.Version != protoVersion {
		return fmt.Errorf("mnet: worker hello with magic %q version %d (launcher speaks %q version %d; mixed binaries?)",
			h.Magic, h.Version, protoMagic, protoVersion)
	}
	if h.Token != s.token {
		return fmt.Errorf("mnet: worker hello with wrong job token (stray connection?)")
	}
	if h.Rank < 0 || h.Rank >= s.np {
		return fmt.Errorf("mnet: worker hello with rank %d outside job of %d", h.Rank, s.np)
	}
	if h.PEs < 1 || h.PEs > s.np*s.ppn {
		return fmt.Errorf("mnet: program builds a %d-PE machine but the job holds at most %d (%d workers × %d PEs per node; raise converserun -np/-nodes or -ppn)",
			h.PEs, s.np*s.ppn, s.np, s.ppn)
	}
	if h.Nodes < 1 || h.Nodes > s.np {
		return fmt.Errorf("mnet: program needs %d node processes but the job has only %d workers (raise converserun -np/-nodes)",
			h.Nodes, s.np)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	rd := s.rounds[h.Round]
	if rd == nil {
		rd = &round{
			num: h.Round, pes: h.PEs, nodes: h.Nodes,
			addrs:   make([]string, s.np),
			conns:   make([]net.Conn, s.np),
			doneSet: map[int]bool{},
		}
		s.rounds[h.Round] = rd
	}
	if h.PEs != rd.pes || h.Nodes != rd.nodes {
		return fmt.Errorf("mnet: round %d: rank %d builds a %d-PE/%d-node machine but others build %d-PE/%d-node (drifted SPMD program?)",
			h.Round, h.Rank, h.PEs, h.Nodes, rd.pes, rd.nodes)
	}
	if rd.conns[h.Rank] != nil {
		return fmt.Errorf("mnet: round %d: duplicate hello from rank %d", h.Round, h.Rank)
	}
	rd.conns[h.Rank] = conn
	rd.addrs[h.Rank] = h.Addr
	rd.hellos++
	if rd.hellos == s.np {
		tbl := tableMsg{Round: rd.num, PEs: rd.pes, Addrs: rd.addrs}
		for _, c := range rd.conns {
			if err := wire.WriteJSON(c, byte(fTable), tbl); err != nil {
				return fmt.Errorf("mnet: broadcasting node table: %w", err)
			}
		}
	}
	return nil
}

// meshOK counts mesh completions; the NP-th releases the go barrier.
func (s *ControlServer) meshOK(m meshOKMsg) {
	s.mu.Lock()
	defer s.mu.Unlock()
	rd := s.rounds[m.Round]
	if rd == nil {
		return
	}
	rd.meshoks++
	if rd.meshoks == s.np {
		for _, c := range rd.conns {
			if c != nil {
				wire.WriteJSON(c, byte(fGo), goMsg{Round: rd.num})
			}
		}
	}
}

// workerDone records an active node's completed drivers; when all of
// the round's node processes are done, every worker (surplus included)
// is released.
func (s *ControlServer) workerDone(d doneMsg) {
	s.mu.Lock()
	rd := s.rounds[d.Round]
	if rd == nil || rd.released {
		s.mu.Unlock()
		return
	}
	if d.Rank < rd.nodes {
		rd.doneSet[d.Rank] = true
	}
	released := s.maybeRelease(rd)
	s.mu.Unlock()
	if released && s.cbs.Released != nil {
		s.cbs.Released(rd.num)
	}
}

// maybeRelease broadcasts the release once every active node is done.
// Caller holds mu; reports whether the release happened on this call.
func (s *ControlServer) maybeRelease(rd *round) bool {
	if rd.released || len(rd.doneSet) != rd.nodes {
		return false
	}
	rd.released = true
	for _, c := range rd.conns {
		if c != nil {
			wire.WriteJSON(c, byte(fRelease), releaseMsg{Round: rd.num})
		}
	}
	return true
}

// MarkDead treats a dead rank as done in every round: the release
// barrier must not wait forever on a rank that can never report, or
// every survivor would hang in Finish until the timeout.
func (s *ControlServer) MarkDead(rank int) {
	var released []int
	s.mu.Lock()
	for _, rd := range s.rounds {
		if rd.released || rank >= rd.nodes {
			continue
		}
		rd.doneSet[rank] = true
		if s.maybeRelease(rd) {
			released = append(released, rd.num)
		}
	}
	s.mu.Unlock()
	if s.cbs.Released != nil {
		for _, num := range released {
			s.cbs.Released(num)
		}
	}
}

// Describe summarizes the rounds' progress for timeout reports.
func (s *ControlServer) Describe() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.rounds) == 0 {
		return "no worker reached the rendezvous"
	}
	out := ""
	for _, rd := range s.rounds {
		if out != "" {
			out += "; "
		}
		out += fmt.Sprintf("round %d (%d PEs on %d nodes): %d/%d hellos, %d/%d meshok, %d/%d done",
			rd.num, rd.pes, rd.nodes, rd.hellos, s.np, rd.meshoks, s.np, len(rd.doneSet), rd.nodes)
	}
	return out
}
