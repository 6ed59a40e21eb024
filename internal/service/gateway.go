package service

import (
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"converse/internal/mnet"
	"converse/internal/wire"
)

// GatewayConfig parameterizes the service gateway.
type GatewayConfig struct {
	// Addr is the client/daemon listen address ("127.0.0.1:0" for an
	// ephemeral port).
	Addr string
	// Token, when non-empty, must accompany every client request and
	// daemon registration (the service's job auth token).
	Token string
	// BacklogCap bounds the admission queue; submits beyond it are
	// rejected with a reason (default 64).
	BacklogCap int
	// MaxRequeues bounds how many times one job may be re-queued after
	// daemon loss before it fails (default 3).
	MaxRequeues int
	// Heartbeat is the per-job worker liveness interval handed to each
	// job's control server and ranks (default 500ms).
	Heartbeat time.Duration
	// JobWatchdog bounds one job attempt's wall-clock runtime; a wedged
	// gang is aborted and counted as failed (default 60s).
	JobWatchdog time.Duration
	// StateDir, when non-empty, makes the gateway durable: job lifecycle
	// records append to a journal there, and a restart replays it and
	// reconciles with re-registering daemons instead of starting empty.
	StateDir string
	// RecoveryWindow bounds how long a restarted gateway waits for the
	// daemons of formerly in-flight jobs to re-register before requeueing
	// those gangs as lost (default 5s).
	RecoveryWindow time.Duration
	// DrainTimeout bounds how long Drain waits for running gangs before
	// shutting down anyway (default 10s).
	DrainTimeout time.Duration
	// Logf receives service diagnostics (default os.Stderr).
	Logf func(format string, args ...any)
}

// daemonSession is one registered daemon's persistent control session;
// its slots and load live in the core's roster under the same name.
type daemonSession struct {
	name string
	conn net.Conn
	// advertise is the daemon's cross-host-reachable mesh host (empty
	// for loopback-only clusters), shown in the cluster view.
	advertise string
	// ready is closed once the register reply is written: the reply must
	// be the session's first frame, so every other send waits for it.
	ready   chan struct{}
	writeMu sync.Mutex
}

// send frames one message to the daemon; write errors surface through
// the session reader's next read, which owns the loss handling.
func (d *daemonSession) send(kind byte, msg any) error {
	b, err := json.Marshal(msg)
	if err != nil {
		return err
	}
	return d.sendFrame(kind, b)
}

// sendFrame writes one frame whose payload is the concatenation of
// parts, once the register reply has gone out.
func (d *daemonSession) sendFrame(kind byte, parts ...[]byte) error {
	<-d.ready
	d.writeMu.Lock()
	defer d.writeMu.Unlock()
	d.conn.SetWriteDeadline(time.Now().Add(reqTimeout))
	return wire.WriteFrame(d.conn, kind, parts...)
}

// ctrlSender is the outbound half of one rank's control link over this
// session: each mnet control frame leaves as a kCtrl frame. A nil
// session (the daemon left before launch) refuses every frame.
func (d *daemonSession) ctrlSender(job string, attempt, rank int) func(byte, []byte) error {
	return func(k byte, payload []byte) error {
		if d == nil {
			return errDaemonGone
		}
		return d.sendFrame(kCtrl, ctrlEnv{kind: k, attempt: attempt, rank: rank, job: job}.head(), payload)
	}
}

// attemptIO is the shell's side of one attempt: the job's control
// server (none for a recovered stand-in), each rank's control link and
// the daemon session it rides, and the attempt's watchdog.
type attemptIO struct {
	seq   int
	cs    *mnet.ControlServer
	links []*mnet.RankLink
	sess  []*daemonSession
	wdog  *time.Timer
}

// jobLog is one job's captured console output and its live followers,
// signalled (coalesced) on every append and on the terminal transition.
// Most jobs are never followed, so followers is made by the first
// follow and dropped by the last unfollow.
type jobLog struct {
	chunks    []logChunk
	followers map[chan struct{}]struct{}
}

func (l *jobLog) wake() {
	if l == nil {
		return
	}
	for ch := range l.followers {
		select {
		case ch <- struct{}{}:
		default:
		}
	}
}

// Gateway accepts jobs, admits them against a bounded backlog,
// gang-schedules admitted jobs onto registered daemons, captures their
// console output, and requeues gangs orphaned by daemon loss. It is the
// shell around the core (fleet): every decision is a core event, and
// the gateway only moves bytes, timers and the journal.
type Gateway struct {
	cfg GatewayConfig
	ls  net.Listener
	// jn is the lifecycle journal (nil without StateDir).
	jn *journal

	// mu guards the core and everything below, and serialises journal
	// appends in the order the core applied the records.
	mu       sync.Mutex
	f        *fleet
	sessions map[string]*daemonSession
	io       map[string]*attemptIO // by job
	logs     map[string]*jobLog    // by job, made by the first chunk or follow
	closed   bool
	// recoverTimer ends the post-restart reconciliation window.
	recoverTimer *time.Timer
	// idle, while a Drain waits, is closed once no attempt is left.
	idle chan struct{}

	// clients holds every live inbound connection, marked busy while it
	// serves a request or a daemon session, so Close and Drain can cut
	// the idle ones at once. accepted counts the connections the
	// listener took.
	clients  map[net.Conn]bool
	accepted atomic.Int64

	// done is closed once, by the teardown. It ends every followed log
	// stream, which would otherwise hold wg until its job ends.
	done chan struct{}
	wg   sync.WaitGroup
}

// errShuttingDown refuses work, and ends log streams, once the gateway
// is closing.
var errShuttingDown = errors.New("service: gateway is shutting down")

// NewGateway binds and starts a gateway.
func NewGateway(cfg GatewayConfig) (*Gateway, error) {
	if cfg.BacklogCap <= 0 {
		cfg.BacklogCap = 64
	}
	if cfg.MaxRequeues <= 0 {
		cfg.MaxRequeues = 3
	}
	if cfg.Heartbeat <= 0 {
		cfg.Heartbeat = 500 * time.Millisecond
	}
	if cfg.JobWatchdog <= 0 {
		cfg.JobWatchdog = 60 * time.Second
	}
	if cfg.RecoveryWindow <= 0 {
		cfg.RecoveryWindow = 5 * time.Second
	}
	if cfg.DrainTimeout <= 0 {
		cfg.DrainTimeout = 10 * time.Second
	}
	if cfg.Logf == nil {
		cfg.Logf = func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, "conversed: "+format+"\n", args...)
		}
	}
	f := newFleet()
	var jn *journal
	if cfg.StateDir != "" {
		var err error
		if jn, f, err = openJournal(cfg.StateDir, cfg.Logf); err != nil {
			return nil, err
		}
	}
	f.maxRequeues, f.backlogCap = cfg.MaxRequeues, cfg.BacklogCap
	f.watchdog, f.recoveryWindow = cfg.JobWatchdog, cfg.RecoveryWindow
	ls, err := net.Listen("tcp", cfg.Addr)
	if err != nil {
		jn.close()
		return nil, fmt.Errorf("service: binding gateway %s: %w", cfg.Addr, err)
	}
	g := &Gateway{
		cfg:      cfg,
		ls:       ls,
		jn:       jn,
		f:        f,
		sessions: map[string]*daemonSession{},
		io:       map[string]*attemptIO{},
		logs:     map[string]*jobLog{},
		clients:  map[net.Conn]bool{},
		done:     make(chan struct{}),
	}
	if jn != nil {
		g.step(func(f *fleet, now time.Time) { f.boot(now) })
	}
	g.wg.Add(1)
	go func() { defer g.wg.Done(); g.acceptLoop() }()
	return g, nil
}

// Addr is the gateway's actual listen address.
func (g *Gateway) Addr() string { return g.ls.Addr().String() }

// Close stops the gateway: no new connections, daemon sessions closed,
// queued and running jobs cancelled. Running job machines on daemons
// are aborted by their daemons when the session drops.
func (g *Gateway) Close() error { return g.stop(false) }

// step feeds one event to the core under mu: fn runs the core entry,
// the records it applied are appended to the journal in apply order,
// and the commands it emitted run once mu is released. A closed
// gateway's core takes no more events, so nothing reaches the journal
// after the teardown. step returns the fences a daemon's registration
// produced.
func (g *Gateway) step(fn func(f *fleet, now time.Time)) []fenceEntry {
	g.mu.Lock()
	if g.closed {
		g.mu.Unlock()
		return nil
	}
	fn(g.f, time.Now())
	run, fences := g.commitLocked()
	g.mu.Unlock()
	for _, r := range run {
		r()
	}
	return fences
}

// commitLocked journals what the core applied and resolves its commands
// against the shell's handles: timers and the attempt table change
// here, under mu, in command order; the I/O comes back to run unlocked.
func (g *Gateway) commitLocked() (run []func(), fences []fenceEntry) {
	recs, cmds := g.f.take()
	for _, rec := range recs {
		g.jn.append(rec)
		if tr, ok := rec.(jTransRec); ok && State(tr.To).Terminal() {
			g.logs[tr.ID].wake()
		}
	}
	if g.jn.due() {
		g.jn.compact(g.f.epoch, g.f.order, time.Now())
	}
	for _, c := range cmds {
		switch c.kind {
		case cLaunch:
			run = append(run, func() { g.launch(c.job, c.seq) })
		case cAbort:
			to := make([]*daemonSession, 0, len(c.daemons))
			for _, name := range c.daemons {
				if d := g.sessions[name]; d != nil {
					to = append(to, d)
				}
			}
			var cs *mnet.ControlServer
			if e := g.io[c.job]; e != nil && e.seq == c.seq {
				cs = e.cs
			}
			run = append(run, func() { abortAttempt(c, to, cs) })
		case cRelease:
			if e := g.io[c.job]; e != nil && e.seq == c.seq {
				delete(g.io, c.job)
				if e.wdog != nil {
					e.wdog.Stop()
				}
				run = append(run, e.close)
			}
		case cArm:
			if c.job == "" {
				g.recoverTimer = time.AfterFunc(c.after, func() {
					g.step(func(f *fleet, now time.Time) { f.endRecovery(now) })
				})
				break
			}
			g.ioLocked(c.job, c.seq).wdog = time.AfterFunc(c.after, func() { g.watchdogFired(c.job, c.seq) })
		case cFence:
			fences = append(fences, fenceEntry{Job: c.job, Attempt: c.seq, Reason: c.text})
		case cLog:
			run = append(run, func() { g.cfg.Logf(c.text, c.args...) })
		}
	}
	if g.idle != nil && len(g.f.attempts) == 0 {
		close(g.idle)
		g.idle = nil
	}
	return run, fences
}

// ioLocked returns an attempt's shell handles, making them on first
// use. Caller holds mu.
func (g *Gateway) ioLocked(id string, seq int) *attemptIO {
	e := g.io[id]
	if e == nil || e.seq != seq {
		e = &attemptIO{seq: seq}
		g.io[id] = e
	}
	return e
}

// close shuts an attempt's control server down.
func (e *attemptIO) close() {
	if e.cs != nil {
		e.cs.Shutdown()
	}
}

func (g *Gateway) acceptLoop() {
	for {
		conn, err := g.ls.Accept()
		if err != nil {
			return
		}
		g.accepted.Add(1)
		g.wg.Add(1)
		go func() { defer g.wg.Done(); g.handleConn(conn) }()
	}
}

// setBusy records whether conn is serving a request (busy) or waiting
// for the next one, and reports false once the gateway is closed: the
// connection must then go. Close and Drain cut idle connections
// themselves; a busy one finishes its request and leaves here.
func (g *Gateway) setBusy(conn net.Conn, busy bool) bool {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.closed {
		return false
	}
	g.clients[conn] = busy
	return true
}

// idleClientsLocked lists the client connections waiting for their
// next request, for a closing gateway to cut: nothing else ends their
// wait before reqTimeout. Caller holds mu.
func (g *Gateway) idleClientsLocked() []net.Conn {
	var idle []net.Conn
	for conn, busy := range g.clients {
		if !busy {
			idle = append(idle, conn)
		}
	}
	return idle
}

// handleConn serves one inbound connection: client requests back to
// back until the client hangs up, reqTimeout passes with no request, or
// a frame is unreadable or refused; or a daemon session, which a
// kRegister turns the connection into for good.
func (g *Gateway) handleConn(conn net.Conn) {
	defer conn.Close()
	defer func() {
		g.mu.Lock()
		delete(g.clients, conn)
		g.mu.Unlock()
	}()
	for g.setBusy(conn, false) && g.serveRequest(conn) {
	}
}

// serveRequest reads and serves one request frame: a single reply, a
// logs stream, or a daemon session. Version and token are checked here,
// on every request frame, for every kind, and every handler's error
// becomes the one kErr reply written here. A handler returns the reply
// to a single request (sent under the request's kind), or nil once it
// has served a stream or session itself. It reports whether the
// connection may carry another request.
func (g *Gateway) serveRequest(conn net.Conn) bool {
	conn.SetReadDeadline(time.Now().Add(reqTimeout))
	k, payload, err := wire.ReadFrame(conn)
	if err != nil || !g.setBusy(conn, true) {
		return false
	}
	var serve func(net.Conn, []byte) (any, error)
	switch k {
	case kSubmit:
		serve = g.serveSubmit
	case kStatus:
		serve = g.serveStatus
	case kCancel:
		serve = g.serveCancel
	case kJobs:
		serve = g.serveJobs
	case kCluster:
		serve = g.serveCluster
	case kLogs:
		serve = g.serveLogs
	case kRegister:
		serve = g.serveDaemon
	default:
		err = fmt.Errorf("service: unexpected frame kind %d", k)
	}
	var h reqHead
	if err == nil {
		err = wire.DecodeJSON(k, payload, &h)
	}
	if err == nil {
		err = g.auth(h)
	}
	// A frame refused before any handler ran ends the connection: the
	// stream is not one this gateway will serve.
	refused := err != nil
	var reply any
	if !refused {
		reply, err = serve(conn, payload)
	}
	conn.SetWriteDeadline(time.Now().Add(reqTimeout))
	switch {
	case err != nil:
		err = wire.WriteJSON(conn, kErr, wire.Error{Text: err.Error()})
	case reply != nil:
		err = wire.WriteJSON(conn, k, reply)
	}
	return !refused && err == nil && k != kRegister
}

// auth validates a request's version and token.
func (g *Gateway) auth(h reqHead) error {
	if h.V != protoV {
		return fmt.Errorf("service: protocol version %d (gateway speaks %d; mixed binaries?)", h.V, protoV)
	}
	if g.cfg.Token != "" && h.Token != g.cfg.Token {
		return fmt.Errorf("service: bad or missing service token")
	}
	return nil
}

// serveSubmit validates a job and feeds it to the core's admission
// control, which either queues it or rejects it with a reason.
func (g *Gateway) serveSubmit(_ net.Conn, payload []byte) (any, error) {
	var m submitMsg
	if err := wire.DecodeJSON(kSubmit, payload, &m); err != nil {
		return nil, err
	}
	if m.Gang < 1 {
		return nil, fmt.Errorf("service: gang must be >= 1, got %d", m.Gang)
	}
	if m.DeadlineMS < 0 || m.MaxMemMB < 0 {
		return nil, fmt.Errorf("service: negative job limits (deadline %dms, maxmem %dMB)", m.DeadlineMS, m.MaxMemMB)
	}
	if _, err := LookupWorkload(m.Workload); err != nil {
		return nil, err
	}
	if m.Name == "" {
		m.Name = m.Workload
	}
	id := newID(m.Name)
	// The name is the id's prefix: every job the gateway ever ran keeps
	// both, so let them share one copy.
	m.Name = id[:len(m.Name)]
	err := errShuttingDown
	g.step(func(f *fleet, now time.Time) { err = f.submit(id, m, now) })
	if err != nil {
		return nil, err
	}
	return submitReply{ID: id}, nil
}

func (g *Gateway) serveStatus(_ net.Conn, payload []byte) (any, error) {
	var m statusMsg
	if err := wire.DecodeJSON(kStatus, payload, &m); err != nil {
		return nil, err
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	j := g.f.jobs[m.ID]
	if j == nil {
		return nil, unknownJob(m.ID)
	}
	return j.info(time.Now()), nil
}

func unknownJob(id string) error { return fmt.Errorf("service: unknown job %q", id) }

func (g *Gateway) serveCancel(_ net.Conn, payload []byte) (any, error) {
	var m cancelMsg
	if err := wire.DecodeJSON(kCancel, payload, &m); err != nil {
		return nil, err
	}
	err := errShuttingDown
	g.step(func(f *fleet, now time.Time) { err = f.cancel(m.ID, "cancelled by client", now) })
	return okMsg{OK: true}, err
}

// serveJobs and serveCluster carry nothing past the request head,
// which handleConn has already decoded and checked.
func (g *Gateway) serveJobs(net.Conn, []byte) (any, error) {
	g.mu.Lock()
	defer g.mu.Unlock()
	now := time.Now()
	out := jobListMsg{Jobs: make([]JobInfo, 0, len(g.f.order))}
	for _, j := range g.f.order {
		out.Jobs = append(out.Jobs, j.info(now))
	}
	return out, nil
}

func (g *Gateway) serveCluster(net.Conn, []byte) (any, error) {
	g.mu.Lock()
	defer g.mu.Unlock()
	f := g.f
	out := clusterInfoMsg{
		Backlog: len(f.queue), BacklogCap: g.cfg.BacklogCap,
		Epoch: f.epoch, Recovering: f.recovering,
	}
	names := make([]string, 0, len(f.daemons))
	for n := range f.daemons {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		d := f.daemons[n]
		out.Daemons = append(out.Daemons, DaemonInfo{
			Name: n, Slots: d.slots, Busy: d.busy, Live: true,
			Advertise: g.sessions[n].advertise, Draining: d.draining,
		})
	}
	return out, nil
}

// appendLog records one console chunk of a job and wakes its followers.
func (g *Gateway) appendLog(id, text string, isErr bool) {
	g.mu.Lock()
	defer g.mu.Unlock()
	l := g.logLocked(id)
	l.chunks = append(l.chunks, logChunk{Text: text, Err: isErr})
	l.wake()
}

// logLocked returns a job's log, making it on first use. Caller holds mu.
func (g *Gateway) logLocked(id string) *jobLog {
	l := g.logs[id]
	if l == nil {
		l = &jobLog{}
		g.logs[id] = l
	}
	return l
}

// follow registers (on) or drops a log follower of a job.
func (g *Gateway) follow(id string, ch chan struct{}, on bool) error {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.f.jobs[id] == nil {
		return unknownJob(id)
	}
	l := g.logLocked(id)
	if on {
		if l.followers == nil {
			l.followers = map[chan struct{}]struct{}{}
		}
		l.followers[ch] = struct{}{}
		return nil
	}
	delete(l.followers, ch)
	if len(l.followers) == 0 {
		l.followers = nil
		if len(l.chunks) == 0 {
			// Nothing to keep: a silent job's follow leaves no log behind.
			delete(g.logs, id)
		}
	}
	return nil
}

// logsFrom copies a job's chunks at and after index from, returning the
// new high-water index and the job's state and error.
func (g *Gateway) logsFrom(id string, from int) (chunks []logChunk, next int, st State, errText string, err error) {
	g.mu.Lock()
	defer g.mu.Unlock()
	j := g.f.jobs[id]
	if j == nil {
		return nil, 0, "", "", unknownJob(id)
	}
	if l := g.logs[id]; l != nil {
		chunks = append(chunks, l.chunks[min(from, len(l.chunks)):]...)
		next = len(l.chunks)
	}
	return chunks, next, j.State, j.Err, nil
}

// serveLogs streams a job's console output: the backlog first, then —
// under Follow — new chunks until the job is terminal or the gateway
// closes (the stream then ends with errShuttingDown).
func (g *Gateway) serveLogs(conn net.Conn, payload []byte) (any, error) {
	var m logsMsg
	if err := wire.DecodeJSON(kLogs, payload, &m); err != nil {
		return nil, err
	}
	var ch chan struct{}
	var recheck *time.Timer
	if m.Follow {
		ch = make(chan struct{}, 1)
		if err := g.follow(m.ID, ch, true); err != nil {
			return nil, err
		}
		defer g.follow(m.ID, ch, false)
		recheck = time.NewTimer(time.Second)
		defer recheck.Stop()
	}
	conn.SetReadDeadline(time.Time{})
	from := 0
	for shutdown := false; ; {
		chunks, next, st, errText, err := g.logsFrom(m.ID, from)
		if err != nil {
			return nil, err
		}
		from = next
		for _, c := range chunks {
			conn.SetWriteDeadline(time.Now().Add(reqTimeout))
			if err := wire.WriteJSON(conn, kLogChunk, c); err != nil {
				return nil, nil
			}
		}
		if !m.Follow || st.Terminal() {
			conn.SetWriteDeadline(time.Now().Add(reqTimeout))
			wire.WriteJSON(conn, kLogEnd, logEndMsg{State: string(st), Error: errText})
			return nil, nil
		}
		if shutdown {
			return nil, errShuttingDown
		}
		// Periodic re-check so a follower of a job cancelled while idle
		// still terminates promptly. Since go 1.23 a Reset timer never
		// delivers a stale tick.
		recheck.Reset(time.Second)
		select {
		case <-ch:
		case <-recheck.C:
		case <-g.done:
			shutdown = true // one more pass sends what the job logged meanwhile
		}
	}
}
