package mnet

// ControlServer is the launcher side of the rendezvous protocol,
// extracted from Launch so it can serve jobs whose workers are not
// child processes of this process: cmd/converserun wraps it around
// spawned workers, and the elastic cluster service (internal/service)
// runs one per admitted job, with conversed daemons joining the round
// as in-process nodes whose control links ride the daemons' sessions.
// One ControlServer coordinates one job: a fixed worker count, one
// token, and any number of sequential rendezvous rounds (a program that
// builds machines in sequence joins once per machine, like under
// converserun).

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"converse/internal/wire"
)

// ControlCallbacks connect a ControlServer to its owner. All callbacks
// may be nil; they are invoked from the transports' reader goroutines
// and must be safe for concurrent use.
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
	// RankLost is consulted when a rank's control link is lost before
	// its round released. Returning true tolerates the loss: the rank is
	// marked dead so release barriers don't wait for it (converserun's
	// FailRetry posture, and the service's lost daemon sessions).
	// Returning false — or a nil callback — escalates to Fail.
	RankLost func(rank int, err error) bool
}

// ControlServer serves the worker side of one job's control links.
// Construct with NewControlServer; then either Serve on a listener owned
// by the caller, one TCP connection per rank, or attach each rank's
// link over a transport the owner already runs (Link).
type ControlServer struct {
	np    int
	ppn   int
	token string
	hb    time.Duration
	cbs   ControlCallbacks

	mu     sync.Mutex
	rounds map[int]*round

	// done suppresses failure reports during orderly shutdown, when
	// link teardown is expected rather than diagnostic.
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
		s.connWg.Add(1)
		go func() {
			defer s.connWg.Done()
			s.handleConn(conn)
		}()
	}
}

// Shutdown marks the server as winding down: subsequent link losses are
// expected teardown, not failures. The caller closes the listener itself.
func (s *ControlServer) Shutdown() { s.done.Store(true) }

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

// RankLink is the launcher's end of one rank's control link, whatever
// carries it: frames to the rank leave through the send function the
// transport gave Link, the transport hands frames from the rank to
// Deliver, and reports its own death to Lost. The TCP transport
// (Serve) and a host's session (the conversed gateway's daemon
// sessions) drive the same handlers.
type RankLink struct {
	s    *ControlServer
	send func(kind byte, payload []byte) error
	// Under s.mu: rank and rd are set by the link's hello; closed once
	// the link is finished (Deliver refused a frame, or Lost), after
	// which it takes nothing more — as a TCP link's reader stops.
	rank   int
	rd     *round
	closed bool
}

// Link attaches one rank's control link whose outbound frames go
// through send. The rank is known once its hello arrives.
func (s *ControlServer) Link(send func(kind byte, payload []byte) error) *RankLink {
	return &RankLink{s: s, send: send, rank: -1}
}

// handleConn serves one worker control connection. The rolling read
// deadline is the worker-liveness detector: workers ping every
// heartbeat interval, so heartbeatMissFactor intervals of silence mean
// the worker is wedged.
func (s *ControlServer) handleConn(conn net.Conn) {
	defer conn.Close()
	l := s.Link(func(k byte, payload []byte) error { return wire.WriteFrame(conn, k, payload) })
	r := bufio.NewReader(conn)
	allowance := time.Duration(heartbeatMissFactor) * s.hb
	for {
		conn.SetReadDeadline(time.Now().Add(allowance))
		k, payload, err := readFrame(r)
		if err != nil {
			if isTimeout(err) {
				err = fmt.Errorf("no ping for %v (worker wedged)", allowance)
			}
			l.Lost(err)
			return
		}
		if l.Deliver(byte(k), payload) != nil {
			return
		}
	}
}

// Lost reports the death of the link's transport, or of the rank at
// its end. It is expected after the rank's round released, during
// shutdown, and before any hello (a stray connection); otherwise
// RankLost decides between marking the rank dead and failing the job.
func (l *RankLink) Lost(err error) {
	s := l.s
	s.mu.Lock()
	rank, released, closed := l.rank, l.rd != nil && l.rd.released, l.closed
	l.closed = true
	s.mu.Unlock()
	if closed || released || rank < 0 || s.done.Load() {
		return
	}
	if s.cbs.RankLost != nil && s.cbs.RankLost(rank, err) {
		// Tolerated loss (converserun FailRetry, a lost daemon session):
		// mark the rank dead so barriers don't wait on it.
		s.MarkDead(rank)
		return
	}
	s.fail(fmt.Errorf("mnet: lost control connection to worker rank %d: %v", rank, err))
}

// Deliver handles one frame from the rank. A non-nil error means the
// link is finished — a protocol violation or the rank's own fatal
// report, already passed to the Fail callback — and the transport
// should stop reading it.
func (l *RankLink) Deliver(k byte, payload []byte) error {
	err := l.deliver(k, payload)
	if err != nil {
		l.s.mu.Lock()
		l.closed = true
		l.s.mu.Unlock()
	}
	return err
}

func (l *RankLink) deliver(k byte, payload []byte) error {
	s := l.s
	s.mu.Lock()
	closed := l.closed
	s.mu.Unlock()
	if closed {
		return errLinkClosed
	}
	switch kind(k) {
	case fHello:
		var h helloMsg
		err := wire.DecodeJSON(k, payload, &h)
		if err == nil {
			err = s.hello(l, h)
		}
		if err != nil {
			s.fail(err)
			return err
		}
	case fDone:
		var d doneMsg
		if err := wire.DecodeJSON(k, payload, &d); err != nil {
			s.fail(err)
			return err
		}
		s.workerDone(d)
	case fConsole:
		var c consoleMsg
		if err := wire.DecodeJSON(k, payload, &c); err != nil {
			s.fail(err)
			return err
		}
		if s.cbs.Console != nil {
			s.cbs.Console(c.Rank, c.Err, c.Text)
		}
	case fFail:
		var f failMsg
		err := fmt.Errorf("mnet: worker rank %d reports fatal error", l.rankNow())
		if wire.DecodeJSON(k, payload, &f) == nil {
			err = fmt.Errorf("mnet: worker rank %d reports fatal error: %s", f.Rank, f.Text)
		}
		s.fail(err)
		return err
	case fMonitorAddr:
		var m monitorAddrMsg
		if err := wire.DecodeJSON(k, payload, &m); err != nil {
			s.fail(err)
			return err
		}
		if s.cbs.MonitorAddr != nil {
			s.cbs.MonitorAddr(m.Rank, m.Addr)
		}
	case fPing:
		// Receiving it already refreshed the transport's deadline.
	default:
		err := fmt.Errorf("mnet: unexpected %v frame from worker rank %d", kind(k), l.rankNow())
		s.fail(err)
		return err
	}
	return nil
}

// errLinkClosed refuses frames on a finished link.
var errLinkClosed = errors.New("mnet: control link closed")

func (l *RankLink) rankNow() int {
	l.s.mu.Lock()
	defer l.s.mu.Unlock()
	return l.rank
}

// hello registers one worker in its rendezvous round; the NP-th hello
// completes the round's membership and broadcasts the node table.
func (s *ControlServer) hello(l *RankLink, h helloMsg) error {
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
			links:   make([]*RankLink, s.np),
			doneSet: map[int]bool{},
		}
		s.rounds[h.Round] = rd
	}
	if h.PEs != rd.pes || h.Nodes != rd.nodes {
		return fmt.Errorf("mnet: round %d: rank %d builds a %d-PE/%d-node machine but others build %d-PE/%d-node (drifted SPMD program?)",
			h.Round, h.Rank, h.PEs, h.Nodes, rd.pes, rd.nodes)
	}
	if rd.links[h.Rank] != nil {
		return fmt.Errorf("mnet: round %d: duplicate hello from rank %d", h.Round, h.Rank)
	}
	rd.links[h.Rank] = l
	rd.addrs[h.Rank] = h.Addr
	l.rank, l.rd = h.Rank, rd
	rd.hellos++
	if rd.hellos == s.np {
		tbl, err := json.Marshal(tableMsg{Round: rd.num, PEs: rd.pes, Addrs: rd.addrs})
		if err != nil {
			return err
		}
		// Every write to a link happens under s.mu, which orders them.
		for _, rl := range rd.links {
			if err := rl.send(byte(fTable), tbl); err != nil {
				return fmt.Errorf("mnet: broadcasting node table: %w", err)
			}
		}
	}
	return nil
}

// workerDone records an active node's completed drivers; when all of
// the round's node processes are done, every worker (surplus included)
// is released.
func (s *ControlServer) workerDone(d doneMsg) {
	s.mu.Lock()
	defer s.mu.Unlock()
	rd := s.rounds[d.Round]
	if rd == nil || rd.released {
		return
	}
	if d.Rank < rd.nodes {
		rd.doneSet[d.Rank] = true
	}
	s.maybeRelease(rd)
}

// maybeRelease broadcasts the release once every active node is done.
// Caller holds mu.
func (s *ControlServer) maybeRelease(rd *round) {
	if rd.released || len(rd.doneSet) != rd.nodes {
		return
	}
	rd.released = true
	rel, _ := json.Marshal(releaseMsg{Round: rd.num})
	for _, l := range rd.links {
		if l != nil {
			l.send(byte(fRelease), rel)
		}
	}
}

// MarkDead treats a dead rank as done in every round: the release
// barrier must not wait forever on a rank that can never report, or
// every survivor would hang in Finish until the timeout.
func (s *ControlServer) MarkDead(rank int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, rd := range s.rounds {
		if rd.released || rank >= rd.nodes {
			continue
		}
		rd.doneSet[rank] = true
		s.maybeRelease(rd)
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
		out += fmt.Sprintf("round %d (%d PEs on %d nodes): %d/%d hellos, %d/%d done",
			rd.num, rd.pes, rd.nodes, rd.hellos, s.np, len(rd.doneSet), rd.nodes)
	}
	return out
}
