package service

import (
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
	// Advertise, when non-empty, is the host daemons on other machines
	// should dial for per-job control servers; those listeners then bind
	// all interfaces instead of loopback.
	Advertise string
	// Logf receives service diagnostics (default os.Stderr).
	Logf func(format string, args ...any)
}

// daemonSession is one registered daemon's persistent control session.
type daemonSession struct {
	name  string
	slots int
	busy  int
	live  bool
	// advertise is the daemon's cross-host-reachable mesh address (empty
	// for loopback-only clusters); echoed into its assignments.
	advertise string
	// draining means the daemon asked to leave: it keeps its gangs but
	// gets no new placements.
	draining bool

	conn    net.Conn
	writeMu sync.Mutex
}

// send frames one message to the daemon; write errors surface through
// the session reader's next read, which owns the loss handling.
func (d *daemonSession) send(kind byte, msg any) error {
	d.writeMu.Lock()
	defer d.writeMu.Unlock()
	d.conn.SetWriteDeadline(time.Now().Add(reqTimeout))
	return wire.WriteJSON(d.conn, kind, msg)
}

// jobAttempt is the gateway-side state of one scheduled gang attempt:
// the job's private control server plus its rank->daemon placement.
type jobAttempt struct {
	job *Job
	// seq numbers the job's attempts; rank updates must echo it, so a
	// straggler from a drained attempt can't finalize its requeue.
	seq     int
	cs      *mnet.ControlServer
	ls      net.Listener
	token   string
	daemons []*daemonSession // by rank; nil slots on a recovered stand-in
	sizes   []int            // PEs per rank
	wdog    *time.Timer
	// ranks is the gang's rank count: len(daemons) for a live placement,
	// but recorded separately because a recovered stand-in starts with
	// nil daemon slots.
	ranks int
	// reported dedups rank updates: synthesized loss reports (daemon
	// death, recovery expiry) and real resumed updates may race for the
	// same rank, and each rank must count exactly once. Guarded by g.mu.
	reported []bool
	// recovered marks a stand-in attempt rebuilt from the journal after
	// a restart: no control server, daemons filled in (adopted) as they
	// re-register. adopted is guarded by g.mu.
	recovered bool
	adopted   []bool
}

// Gateway accepts jobs, admits them against a bounded backlog,
// gang-schedules admitted jobs onto registered daemons, captures their
// console output, and requeues gangs orphaned by daemon loss.
type Gateway struct {
	cfg GatewayConfig
	ls  net.Listener

	// jn is the lifecycle journal (nil without StateDir); epoch is this
	// gateway incarnation's number, fixed at start — updates stamped
	// with another epoch are fenced off as stragglers of a previous
	// life.
	jn    *journal
	epoch int64

	mu       sync.Mutex
	daemons  map[string]*daemonSession
	jobs     map[string]*Job
	order    []string // job IDs in submit order, for listing
	queue    []*Job   // admission queue, FIFO with backfill
	attempts map[string]*jobAttempt
	closed   bool
	// recovering is the post-restart reconciliation window: daemons may
	// still re-register and hand running gangs back, so capacity checks
	// are suspended and recovered attempts wait before requeueing.
	recovering   bool
	recoverTimer *time.Timer
	// draining refuses new admissions while running gangs finish.
	draining bool

	// clients holds every live inbound connection, marked busy while it
	// serves a request or a daemon session, so Close and Drain can cut
	// the idle ones at once. accepted counts the connections the
	// listener took.
	clients  map[net.Conn]bool
	accepted atomic.Int64

	schedCh chan struct{} // scheduler doorbell (coalesced)
	// done is closed once, by Close or Drain. It ends every followed
	// log stream, which would otherwise hold wg until its job ends.
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
	var jn *journal
	var st *replayed
	if cfg.StateDir != "" {
		var err error
		jn, st, err = openJournal(cfg.StateDir, cfg.Logf)
		if err != nil {
			return nil, err
		}
	}
	ls, err := net.Listen("tcp", cfg.Addr)
	if err != nil {
		if jn != nil {
			jn.close()
		}
		return nil, fmt.Errorf("service: binding gateway %s: %w", cfg.Addr, err)
	}
	g := &Gateway{
		cfg:      cfg,
		ls:       ls,
		jn:       jn,
		daemons:  map[string]*daemonSession{},
		jobs:     map[string]*Job{},
		attempts: map[string]*jobAttempt{},
		clients:  map[net.Conn]bool{},
		schedCh:  make(chan struct{}, 1),
		done:     make(chan struct{}),
	}
	if jn != nil {
		g.epoch = st.epoch + 1
		jn.epochStart(g.epoch)
		g.restore(st)
	}
	g.wg.Add(2)
	go func() { defer g.wg.Done(); g.acceptLoop() }()
	go func() { defer g.wg.Done(); g.schedLoop() }()
	return g, nil
}

// Addr is the gateway's actual listen address.
func (g *Gateway) Addr() string { return g.ls.Addr().String() }

// Close stops the gateway: no new connections, daemon sessions closed,
// queued jobs cancelled. Running job machines on daemons are aborted
// by their daemons when the session drops.
func (g *Gateway) Close() error {
	g.mu.Lock()
	if g.closed {
		g.mu.Unlock()
		return nil
	}
	g.closed = true
	ds := make([]*daemonSession, 0, len(g.daemons))
	for _, d := range g.daemons {
		ds = append(ds, d)
	}
	queued := g.queue
	g.queue = nil
	atts := make([]*jobAttempt, 0, len(g.attempts))
	for _, at := range g.attempts {
		atts = append(atts, at)
	}
	idle := g.idleClientsLocked()
	g.mu.Unlock()
	for _, conn := range idle {
		conn.Close()
	}
	for _, j := range queued {
		j.setError("gateway shut down")
		j.transition(Cancelled)
	}
	for _, at := range atts {
		at.job.setError("gateway shut down")
		at.job.transition(Cancelled)
		g.releaseAttempt(at)
	}
	for _, d := range ds {
		d.conn.Close()
	}
	close(g.done) // after the cancels: a follower of a cancelled job gets its end
	err := g.ls.Close()
	g.kick()
	g.wg.Wait()
	if g.recoverTimer != nil {
		g.recoverTimer.Stop()
	}
	g.jn.close()
	return err
}

// kick rings the scheduler doorbell (coalesced).
func (g *Gateway) kick() {
	select {
	case g.schedCh <- struct{}{}:
	default:
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

// capacityLocked totals the live, non-draining daemons' slots. Caller holds
// mu.
func (g *Gateway) capacityLocked() int {
	total := 0
	for _, d := range g.daemons {
		if d.live && !d.draining {
			total += d.slots
		}
	}
	return total
}

// submit runs admission control and either queues the job or rejects
// it with a reason. Exported through Client.Submit.
func (g *Gateway) submit(m submitMsg) (string, error) {
	if m.Gang < 1 {
		return "", fmt.Errorf("service: gang must be >= 1, got %d", m.Gang)
	}
	if m.DeadlineMS < 0 || m.MaxMemMB < 0 {
		return "", fmt.Errorf("service: negative job limits (deadline %dms, maxmem %dMB)", m.DeadlineMS, m.MaxMemMB)
	}
	if _, err := LookupWorkload(m.Workload); err != nil {
		return "", err
	}
	name := m.Name
	if name == "" {
		name = m.Workload
	}
	id := newID(name)
	job := newJob(id, name, m.Workload, m.Args, m.Gang)
	job.deadline = time.Duration(m.DeadlineMS) * time.Millisecond
	job.maxMemMB = m.MaxMemMB
	job.jn = g.jn

	g.mu.Lock()
	if g.closed {
		g.mu.Unlock()
		return "", errShuttingDown
	}
	if g.draining {
		g.mu.Unlock()
		return "", fmt.Errorf("service: gateway is draining; resubmit to its successor")
	}
	// Admission control: a full backlog and an impossible gang are both
	// rejected now, with a reason, rather than queued to rot.
	if len(g.queue) >= g.cfg.BacklogCap {
		n := len(g.queue)
		g.mu.Unlock()
		return "", fmt.Errorf("service: backlog full (%d jobs queued, cap %d); retry later", n, g.cfg.BacklogCap)
	}
	// The capacity check is suspended during recovery: right after a
	// restart no daemon has re-registered yet, and rejecting every
	// submit for a few seconds would turn a survived crash into an
	// outage anyway.
	if cp := g.capacityLocked(); !g.recovering && m.Gang > cp {
		g.mu.Unlock()
		return "", fmt.Errorf("service: gang of %d exceeds cluster capacity of %d PEs", m.Gang, cp)
	}
	g.jobs[id] = job
	g.order = append(g.order, id)
	g.queue = append(g.queue, job)
	g.jn.submit(id, name, m.Workload, m.Args, m.Gang, job.deadline, m.MaxMemMB)
	g.mu.Unlock()
	g.kick()
	return id, nil
}

func (g *Gateway) serveSubmit(_ net.Conn, payload []byte) (any, error) {
	var m submitMsg
	if err := wire.DecodeJSON(kSubmit, payload, &m); err != nil {
		return nil, err
	}
	id, err := g.submit(m)
	return submitReply{ID: id}, err
}

func (g *Gateway) lookupJob(id string) (*Job, error) {
	g.mu.Lock()
	defer g.mu.Unlock()
	j, ok := g.jobs[id]
	if !ok {
		return nil, fmt.Errorf("service: unknown job %q", id)
	}
	return j, nil
}

func (g *Gateway) serveStatus(_ net.Conn, payload []byte) (any, error) {
	var m statusMsg
	if err := wire.DecodeJSON(kStatus, payload, &m); err != nil {
		return nil, err
	}
	j, err := g.lookupJob(m.ID)
	if err != nil {
		return nil, err
	}
	return j.info(), nil
}

// cancel aborts one job wherever it is: a queued job leaves the queue,
// a scheduled one has its ranks aborted on their daemons. Terminal
// states win races silently (cancel-after-done is not an error).
func (g *Gateway) cancel(id string) error {
	g.mu.Lock()
	j, ok := g.jobs[id]
	if !ok {
		g.mu.Unlock()
		return fmt.Errorf("service: unknown job %q", id)
	}
	// Drop it from the queue if still there.
	for i, q := range g.queue {
		if q == j {
			g.queue = append(g.queue[:i], g.queue[i+1:]...)
			break
		}
	}
	at := g.attempts[id]
	g.mu.Unlock()

	if !j.transition(Cancelled) {
		// Already terminal, or mid-edge; a Requeued job cancels on its
		// way back through the queue.
		if st := j.State(); !st.Terminal() && st == Requeued {
			j.transition(Cancelled)
		}
		return nil
	}
	j.setError("cancelled by client")
	if at != nil {
		g.abortAttempt(at, "cancelled by client")
	}
	return nil
}

func (g *Gateway) serveCancel(_ net.Conn, payload []byte) (any, error) {
	var m cancelMsg
	if err := wire.DecodeJSON(kCancel, payload, &m); err != nil {
		return nil, err
	}
	return okMsg{OK: true}, g.cancel(m.ID)
}

// serveJobs and serveCluster carry nothing past the request head,
// which handleConn has already decoded and checked.
func (g *Gateway) serveJobs(net.Conn, []byte) (any, error) {
	g.mu.Lock()
	jobs := make([]*Job, 0, len(g.order))
	for _, id := range g.order {
		jobs = append(jobs, g.jobs[id])
	}
	g.mu.Unlock()
	out := jobListMsg{Jobs: make([]JobInfo, 0, len(jobs))}
	for _, j := range jobs {
		out.Jobs = append(out.Jobs, j.info())
	}
	return out, nil
}

func (g *Gateway) serveCluster(net.Conn, []byte) (any, error) {
	g.mu.Lock()
	out := clusterInfoMsg{
		Backlog: len(g.queue), BacklogCap: g.cfg.BacklogCap,
		Epoch: g.epoch, Recovering: g.recovering,
	}
	names := make([]string, 0, len(g.daemons))
	for n := range g.daemons {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		d := g.daemons[n]
		out.Daemons = append(out.Daemons, DaemonInfo{
			Name: d.name, Slots: d.slots, Busy: d.busy, Live: d.live,
			Advertise: d.advertise, Draining: d.draining,
		})
	}
	g.mu.Unlock()
	return out, nil
}

// serveLogs streams a job's console output: the backlog first, then —
// under Follow — new chunks until the job is terminal or the gateway
// closes (the stream then ends with errShuttingDown).
func (g *Gateway) serveLogs(conn net.Conn, payload []byte) (any, error) {
	var m logsMsg
	if err := wire.DecodeJSON(kLogs, payload, &m); err != nil {
		return nil, err
	}
	j, err := g.lookupJob(m.ID)
	if err != nil {
		return nil, err
	}
	conn.SetReadDeadline(time.Time{})
	var ch chan struct{}
	var recheck *time.Timer
	if m.Follow {
		ch = j.follow()
		defer j.unfollow(ch)
		recheck = time.NewTimer(time.Second)
		defer recheck.Stop()
	}
	from := 0
	for shutdown := false; ; {
		chunks, next, st, errText := j.logsFrom(from)
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
