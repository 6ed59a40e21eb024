package service

// The conversed daemon: one per host, registered with the gateway over
// a persistent session, with one standing mesh listener. Assignments
// arrive as frames; each becomes an in-process mnet node plus a core
// machine with its own handler tables, metrics registry, and job tag —
// the per-job isolation boundary. The node's control link to the job's
// control server rides the session (kCtrl frames) and its mesh links
// arrive through the daemon's listener, so a job binds nothing and
// dials only its mesh links. Nothing is exec'd: the daemon process is
// the warm node, and a job costs one goroutine set and its mesh links,
// not a process spawn.
//
// The session is crash-tolerant from the daemon's side: losing the
// gateway no longer kills local jobs. They keep running (their mnet
// nodes tolerate the control-server loss), the daemon redials with
// seeded-jitter backoff, and the re-register carries the gateway epoch
// it last saw plus per-job attempt state — still-running ranks for the
// recovered gateway to re-adopt, and a small ring of finished results
// whose original updates may have died with the old gateway's socket.

import (
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"math/rand"
	"net"
	"runtime"
	"sync"
	"time"

	"converse/internal/core"
	"converse/internal/metrics"
	"converse/internal/mnet"
	"converse/internal/wire"
)

// finishedRingCap bounds the buffered finished-update entries a daemon
// carries into a re-register.
const finishedRingCap = 256

// memSampleEvery is the heap-watchdog sampling interval.
const memSampleEvery = 100 * time.Millisecond

// DaemonConfig parameterizes one conversed daemon.
type DaemonConfig struct {
	// Gateway is the gateway's address.
	Gateway string
	// Token is the service auth token (must match the gateway's).
	Token string
	// Name labels the daemon; the gateway uniquifies it.
	Name string
	// Slots is the number of PEs this daemon offers (default 4).
	Slots int
	// Handshake bounds one job's rendezvous (default 10s).
	Handshake time.Duration
	// Advertise is the host other machines should dial to reach this
	// daemon's mesh listener (empty: loopback-only).
	Advertise string
	// ReconnectWindow bounds how long the daemon keeps jobs alive and
	// redials after losing the gateway before giving up and aborting
	// them (default 60s; <0 disables reconnection entirely — session
	// loss kills local jobs immediately, the pre-crash-tolerance shape).
	ReconnectWindow time.Duration
	// DrainTimeout bounds Drain's wait for running jobs (default 10s).
	DrainTimeout time.Duration
	// Logf receives daemon diagnostics (default discards).
	Logf func(format string, args ...any)
}

// runningJob is one assignment's local execution state.
type runningJob struct {
	job     string
	attempt int
	rank    int
	node    *mnet.Node

	mu        sync.Mutex
	reason    string // watchdog kill tag (deadline-killed / mem-killed)
	sentBytes uint64 // written by the runner before its final update

	// Under the daemon's mu: joined marks a rank past its rendezvous,
	// reported one whose result is buffered (its node may not have
	// closed yet). Only a joined, unreported rank is running: one still
	// in its rendezvous cannot outlive the session it waits on.
	joined, reported bool
}

func (rj *runningJob) setReason(r string) {
	rj.mu.Lock()
	if rj.reason == "" {
		rj.reason = r
	}
	rj.mu.Unlock()
}

func (rj *runningJob) getReason() string {
	rj.mu.Lock()
	defer rj.mu.Unlock()
	return rj.reason
}

// Daemon is a registered worker host. Start connects and serves until
// Stop or unrecoverable gateway loss.
type Daemon struct {
	cfg  DaemonConfig
	name string

	// conn is the current gateway session, replaced on reconnect; both
	// the conn pointer and writes to it are serialized by writeMu.
	writeMu sync.Mutex
	conn    net.Conn

	// mesh is the listener every hosted rank's inbound mesh links
	// arrive through.
	mesh *mnet.MeshListener

	mu    sync.Mutex
	jobs  map[string]*runningJob // by job ID + attempt (see jobKey)
	done  doneRing               // finished results not yet confirmed re-registered
	epoch int64                  // last gateway epoch seen
	dead  bool

	wg     sync.WaitGroup
	stopCh chan struct{}
	jitter *rand.Rand // seeded from the daemon name: reproducible backoff

	// holdRendezvous, when set (tests; under mu), runs before each
	// rank's rendezvous, after its node is indexed.
	holdRendezvous func(assignMsg)
}

// StartDaemon registers with the gateway and begins serving
// assignments on background goroutines.
func StartDaemon(cfg DaemonConfig) (*Daemon, error) {
	if cfg.Slots <= 0 {
		cfg.Slots = 4
	}
	if cfg.Handshake <= 0 {
		cfg.Handshake = 10 * time.Second
	}
	if cfg.ReconnectWindow == 0 {
		cfg.ReconnectWindow = 60 * time.Second
	}
	if cfg.DrainTimeout <= 0 {
		cfg.DrainTimeout = 10 * time.Second
	}
	if cfg.Logf == nil {
		cfg.Logf = func(format string, args ...any) {}
	}
	h := fnv.New64a()
	h.Write([]byte(cfg.Name))
	mesh, err := mnet.ListenMesh(cfg.Advertise, cfg.Handshake)
	if err != nil {
		return nil, err
	}
	d := &Daemon{
		cfg:    cfg,
		mesh:   mesh,
		jobs:   map[string]*runningJob{},
		stopCh: make(chan struct{}),
		jitter: rand.New(rand.NewSource(int64(h.Sum64()))),
	}
	if err := d.dialRegister(); err != nil {
		mesh.Close()
		return nil, err
	}
	d.wg.Add(2)
	go func() { defer d.wg.Done(); d.sessionLoop() }()
	go func() { defer d.wg.Done(); d.pingLoop() }()
	return d, nil
}

// dialRegister opens a fresh gateway session and registers, carrying
// whatever job state this daemon holds. On success the session is
// installed and the reply applied (uniquified name, gateway epoch,
// fenced jobs killed, confirmed finished entries pruned).
func (d *Daemon) dialRegister() error {
	conn, err := wire.Dial(d.cfg.Gateway, reqTimeout)
	if err != nil {
		return fmt.Errorf("service: dialing gateway %s: %w", d.cfg.Gateway, err)
	}
	resume, nDone, lastEpoch, name := d.resumeState()
	if name == "" {
		name = d.cfg.Name
	}
	err = wire.WriteJSON(conn, kRegister, registerMsg{
		reqHead: reqHead{V: protoV, Token: d.cfg.Token}, Name: name, Slots: d.cfg.Slots,
		Advertise: d.cfg.Advertise, Epoch: lastEpoch, Resume: resume,
	})
	if err != nil {
		conn.Close()
		return err
	}
	var rep registerReply
	if err := wire.ReadJSON(conn, kRegister, kErr, &rep); err != nil {
		conn.Close()
		return fmt.Errorf("service: registering with gateway: %w", err)
	}
	// The register deadline must not outlive the handshake: the session
	// is long-lived and may sit idle between assignments.
	conn.SetDeadline(time.Time{})

	d.writeMu.Lock()
	d.conn = conn
	d.writeMu.Unlock()
	d.mu.Lock()
	d.name = rep.Name
	d.epoch = rep.Epoch
	// The reply means the gateway has folded the resume entries into its
	// state; the confirmed finished results need no further buffering.
	if nDone <= d.done.n {
		d.done.drop(nDone)
	}
	// A job that finished between the resume snapshot and this reply was
	// reported as running and adopted as such; its buffered result would
	// otherwise wait for a re-register that may never come. Flush the
	// unconfirmed tail over the fresh session now — the gateway counts
	// each rank once per attempt, so a duplicate is harmless.
	late := d.done.appendTo(nil)
	var fenced []*runningJob
	for _, k := range rep.Kill {
		if rj := d.jobs[jobKey(k.Job, k.Attempt)]; rj != nil {
			fenced = append(fenced, rj)
		}
	}
	d.mu.Unlock()
	for _, e := range late {
		d.write(kUpdate, updateMsg{
			Job: e.Job, Attempt: e.Attempt, Rank: e.Rank,
			OK: e.OK, Error: e.Error, Reason: e.Reason,
			SentBytes: e.SentBytes, Epoch: rep.Epoch,
		})
	}
	for _, rj := range fenced {
		d.cfg.Logf("gateway fenced %s attempt %d: %s", rj.job, rj.attempt, "stale epoch")
		rj.node.Fail(fmt.Errorf("service: fenced by recovered gateway"))
	}
	return nil
}

// resumeState snapshots the daemon's job state for a register message:
// running ranks plus the buffered finished results, and how many of
// the latter were included (for pruning once the reply confirms them).
func (d *Daemon) resumeState() ([]resumeEntry, int, int64, string) {
	d.mu.Lock()
	defer d.mu.Unlock()
	var out []resumeEntry
	for _, rj := range d.jobs {
		if rj.joined && !rj.reported {
			out = append(out, resumeEntry{Job: rj.job, Attempt: rj.attempt, Rank: rj.rank, Running: true})
		}
	}
	out = d.done.appendTo(out)
	return out, d.done.n, d.epoch, d.name
}

// Name is the gateway-assigned daemon name.
func (d *Daemon) Name() string {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.name
}

// currentConn returns the live session (nil between sessions).
func (d *Daemon) currentConn() net.Conn {
	d.writeMu.Lock()
	defer d.writeMu.Unlock()
	return d.conn
}

// currentEpoch is the gateway incarnation the daemon last registered
// with; rank updates are stamped with it so a recovered gateway can
// fence stragglers.
func (d *Daemon) currentEpoch() int64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.epoch
}

// Stop leaves the cluster: the session closes (the gateway sees a
// leave and drains this daemon's gangs), local job machines are
// aborted, and every goroutine is joined.
func (d *Daemon) Stop() {
	d.shutdown("service: daemon stopping")
	d.wg.Wait()
}

// Drain leaves gracefully: tell the gateway to stop placing gangs
// here, wait (bounded) for the local jobs to finish and report, then
// stop. SIGTERM on a conversed worker runs this.
func (d *Daemon) Drain() {
	if err := d.write(kDrain, drainMsg{Name: d.Name()}); err != nil {
		d.cfg.Logf("drain notify failed: %v", err)
	}
	deadline := time.Now().Add(d.cfg.DrainTimeout)
	for {
		d.mu.Lock()
		n := len(d.jobs)
		dead := d.dead
		d.mu.Unlock()
		if n == 0 || dead || time.Now().After(deadline) {
			break
		}
		time.Sleep(20 * time.Millisecond)
	}
	d.Stop()
}

// shutdown is the idempotent half of Stop: mark dead, stop the
// goroutines, sever the session, abort local jobs, close the mesh
// listener. The reconnect path also lands here when the redial window
// expires.
func (d *Daemon) shutdown(why string) {
	d.mu.Lock()
	if d.dead {
		d.mu.Unlock()
		return
	}
	d.dead = true
	jobs := make([]*runningJob, 0, len(d.jobs))
	for _, rj := range d.jobs {
		jobs = append(jobs, rj)
	}
	d.mu.Unlock()
	close(d.stopCh)
	if c := d.currentConn(); c != nil {
		c.Close()
	}
	for _, rj := range jobs {
		rj.node.Fail(fmt.Errorf("%s", why))
	}
	d.mesh.Close()
}

// Wait blocks until the daemon's session ends (Stop or unrecoverable
// gateway loss) and all local jobs have drained.
func (d *Daemon) Wait() { d.wg.Wait() }

func (d *Daemon) write(kind byte, msg any) error {
	b, err := json.Marshal(msg)
	if err != nil {
		return err
	}
	return d.writeFrame(kind, b)
}

// writeFrame writes one frame whose payload is the concatenation of
// parts on the current session.
func (d *Daemon) writeFrame(kind byte, parts ...[]byte) error {
	d.writeMu.Lock()
	defer d.writeMu.Unlock()
	if d.conn == nil {
		return fmt.Errorf("service: no gateway session")
	}
	d.conn.SetWriteDeadline(time.Now().Add(reqTimeout))
	return wire.WriteFrame(d.conn, kind, parts...)
}

func (d *Daemon) pingLoop() {
	t := time.NewTicker(daemonPing)
	defer t.Stop()
	for {
		select {
		case <-d.stopCh:
			return
		case <-t.C:
			// Write errors are not fatal here: between sessions the
			// reconnect loop owns the recovery, and pings simply resume
			// once a new session is up.
			d.write(kDPing, dPingMsg{Name: d.Name()})
		}
	}
}

// sessionLoop serves gateway sessions for the daemon's lifetime:
// serve, and on loss redial within the reconnect window. The session
// carried every local rank's control link, so its loss is each node's
// control loss; local jobs survive the gap — their nodes tolerate it —
// and die only when the window closes without a gateway.
func (d *Daemon) sessionLoop() {
	for {
		err := d.serveConn()
		if d.stopped() {
			return
		}
		d.mu.Lock()
		local := make([]*runningJob, 0, len(d.jobs))
		for _, rj := range d.jobs {
			local = append(local, rj)
		}
		d.mu.Unlock()
		for _, rj := range local {
			rj.node.LauncherLost(err)
		}
		if d.cfg.ReconnectWindow < 0 {
			d.shutdown("service: gateway session lost")
			return
		}
		d.cfg.Logf("gateway session lost; reconnecting for up to %v", d.cfg.ReconnectWindow)
		if !d.reconnect() {
			d.cfg.Logf("gateway unreachable beyond the reconnect window; aborting local jobs")
			d.shutdown("service: gateway unreachable beyond the reconnect window")
			return
		}
	}
}

func (d *Daemon) stopped() bool {
	select {
	case <-d.stopCh:
		return true
	default:
		return false
	}
}

// reconnect redials the gateway with seeded-jitter exponential backoff
// until the window expires or Stop intervenes.
func (d *Daemon) reconnect() bool {
	deadline := time.Now().Add(d.cfg.ReconnectWindow)
	backoff := 50 * time.Millisecond
	for {
		if d.stopped() {
			return false
		}
		if err := d.dialRegister(); err == nil {
			d.cfg.Logf("re-registered with gateway as %s (epoch %d)", d.Name(), d.currentEpoch())
			return true
		} else if time.Now().After(deadline) {
			return false
		} else {
			d.cfg.Logf("re-register failed: %v (retrying)", err)
		}
		// Seeded jitter in [0.5, 1.5) of the backoff step: daemons that
		// lost the same gateway at the same instant must not redial in
		// lockstep, and a seeded source keeps test runs reproducible.
		d.mu.Lock()
		sleep := time.Duration(float64(backoff) * (0.5 + d.jitter.Float64()))
		d.mu.Unlock()
		select {
		case <-d.stopCh:
			return false
		case <-time.After(sleep):
		}
		if backoff < 2*time.Second {
			backoff *= 2
		}
	}
}

// serveConn reads gateway frames on the current session until it dies,
// and returns why.
func (d *Daemon) serveConn() error {
	conn := d.currentConn()
	if conn == nil {
		return fmt.Errorf("service: no gateway session")
	}
	for {
		k, payload, err := wire.ReadFrame(conn)
		if err != nil {
			return err
		}
		switch k {
		case kAssign:
			var a assignMsg
			if err := wire.DecodeJSON(k, payload, &a); err != nil {
				d.cfg.Logf("bad assign frame: %v", err)
				return err
			}
			d.startJob(a)
		case kUnassign:
			var u unassignMsg
			if err := wire.DecodeJSON(k, payload, &u); err != nil {
				d.cfg.Logf("bad unassign frame: %v", err)
				return err
			}
			if rj := d.job(u.Job, u.Attempt); rj != nil {
				rj.node.Fail(fmt.Errorf("service: job aborted: %s", u.Reason))
			}
		case kCtrl:
			e, frame, err := decodeCtrl(payload)
			if err != nil {
				d.cfg.Logf("bad control frame: %v", err)
				return err
			}
			if rj := d.job(e.job, e.attempt); rj != nil && rj.rank == e.rank {
				rj.node.Deliver(e.kind, frame)
			}
		default:
			d.cfg.Logf("unexpected frame kind %d from gateway", k)
			return fmt.Errorf("service: unexpected frame kind %d from gateway", k)
		}
	}
}

// job returns the local record of one attempt's rank, nil for none.
func (d *Daemon) job(id string, attempt int) *runningJob {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.jobs[jobKey(id, attempt)]
}

// startJob opens one assigned rank's node on the daemon's session and
// mesh listener and indexes it before anything can answer the node's
// hello — the table, or an unassign while it waits in the rendezvous.
// The rank then runs on its own goroutine so a slow rendezvous never
// blocks the session reader. Its update goes out before its node's
// links close.
func (d *Daemon) startJob(a assignMsg) {
	rj := &runningJob{job: a.Job, attempt: a.Attempt, rank: a.Rank}
	err := d.openNode(a, rj)
	d.wg.Add(1)
	go func() {
		defer d.wg.Done()
		if err == nil {
			err = d.runJob(a, rj)
		}
		if errors.Is(err, mnet.ErrLauncherLost) {
			// The rank never started: its rendezvous died with the
			// gateway session. That loss is the gateway's to account —
			// its daemon-loss sweep, or a recovered gateway's recovery
			// window — so the gang requeues instead of failing on a
			// result this rank never earned.
			d.cfg.Logf("%s rank %d lost with the gateway session: %v", a.Job, a.Rank, err)
		} else {
			d.report(a, rj, err)
		}
		if rj.node != nil {
			// A failed run leaves the node's sockets open (Fail skips
			// teardown; worker processes exit instead), and a hosted node
			// keeps them past Finish until its result is out.
			rj.node.Close()
		}
		d.mu.Lock()
		delete(d.jobs, jobKey(a.Job, a.Attempt))
		d.mu.Unlock()
	}()
}

// report sends a rank's result to the gateway. The result is buffered
// before it is written: an update written into a dying gateway's
// socket is lost, and the buffered copy rides the next re-register
// instead. The gateway's per-rank dedup makes the potential duplicate
// harmless. From here on the rank no longer counts as running.
func (d *Daemon) report(a assignMsg, rj *runningJob, err error) {
	u := updateMsg{
		Job: a.Job, Attempt: a.Attempt, Rank: a.Rank,
		OK: err == nil, Reason: rj.getReason(),
		SentBytes: rj.sentBytes, Epoch: d.currentEpoch(),
	}
	if err != nil {
		u.Error = err.Error()
	}
	if rj.node != nil {
		u.Stages = stagesOf(rj.node.Stages())
	}
	d.mu.Lock()
	rj.reported = true
	d.mu.Unlock()
	d.bufferDone(u)
	d.write(kUpdate, u)
}

// openNode builds the rank's node on the daemon's session and mesh
// listener and indexes it.
func (d *Daemon) openNode(a assignMsg, rj *runningJob) error {
	key := jobKey(a.Job, a.Attempt)
	node, err := mnet.Open(mnet.Config{
		Token:     a.JobToken,
		Rank:      a.Rank,
		NP:        a.NP,
		PEs:       a.PEs,
		NodeSizes: a.NodeSizes,
		Round:     1, // every rank of the job shares round 1 of its control server
		Heartbeat: time.Duration(a.HeartbeatMS) * time.Millisecond,
		Handshake: d.cfg.Handshake,
		// The job must survive a gateway restart: losing the session
		// detaches the node instead of failing it, and the re-register
		// protocol reconciles the outcome.
		TolerateCtrlLoss: true,
	}, mnet.Host{
		Send: func(k byte, payload []byte) error {
			return d.writeFrame(kCtrl, ctrlEnv{kind: k, attempt: a.Attempt, rank: a.Rank, job: a.Job}.head(), payload)
		},
		Mesh: d.mesh,
	})
	if err != nil {
		return fmt.Errorf("service: joining job %s mesh: %w", a.Job, err)
	}
	rj.node = node
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.dead {
		node.Fail(fmt.Errorf("service: daemon stopping"))
		return fmt.Errorf("service: daemon stopping")
	}
	d.jobs[key] = rj
	return nil
}

// stagesOf converts a node's stage durations into the update's
// milliseconds.
func stagesOf(s mnet.Stages) *JobStages {
	ms := func(d time.Duration) float64 { return float64(d) / 1e6 }
	return &JobStages{
		RendezvousMS: ms(s.Rendezvous), MeshUpMS: ms(s.MeshUp),
		DriverMS: ms(s.Driver), FinishMS: ms(s.Finish),
	}
}

// bufferDone appends one finished result to the re-register ring.
func (d *Daemon) bufferDone(u updateMsg) {
	d.mu.Lock()
	d.done.push(resumeEntry{
		Job: u.Job, Attempt: u.Attempt, Rank: u.Rank,
		OK: u.OK, Error: u.Error, Reason: u.Reason, SentBytes: u.SentBytes,
	})
	d.mu.Unlock()
}

// doneRing holds the newest finishedRingCap finished results, oldest
// first, in one buffer allocated on the first push: a daemon finishing
// ranks all day overwrites its oldest entry instead of copying the
// ring.
type doneRing struct {
	buf  []resumeEntry // finishedRingCap entries once used
	head int           // index of the oldest entry
	n    int
}

// push appends e, evicting the oldest entry when the ring is full.
func (r *doneRing) push(e resumeEntry) {
	if r.buf == nil {
		r.buf = make([]resumeEntry, finishedRingCap)
	}
	r.buf[(r.head+r.n)%len(r.buf)] = e
	if r.n < len(r.buf) {
		r.n++
	} else {
		r.head = (r.head + 1) % len(r.buf)
	}
}

// appendTo appends the entries to out, oldest first.
func (r *doneRing) appendTo(out []resumeEntry) []resumeEntry {
	for i := 0; i < r.n; i++ {
		out = append(out, r.buf[(r.head+i)%len(r.buf)])
	}
	return out
}

// drop discards the k oldest entries (k <= r.n).
func (r *doneRing) drop(k int) {
	for ; k > 0; k-- {
		r.buf[r.head] = resumeEntry{}
		r.head = (r.head + 1) % len(r.buf)
		r.n--
	}
}

// jobKey scopes a local job record to one scheduling attempt, so a
// requeued attempt's record can never collide with its predecessor's
// teardown on the same daemon.
func jobKey(jobID string, attempt int) string {
	return fmt.Sprintf("%s#%d", jobID, attempt)
}

// startLimits arms the per-job resource watchdog: a deadline timer and
// a heap sampler. Both kill through node.Fail with a distinct reason
// the final update carries to the gateway. The heap sampler reads the
// runtime's allocator stats (the same figures the ccs monitor's heap
// profile endpoint serves) against a job-start baseline: with jobs
// sharing one process, growth since this job began is the closest
// observable to its own footprint.
func (d *Daemon) startLimits(rj *runningJob, a assignMsg) (stop func()) {
	var timer *time.Timer
	if a.DeadlineMS > 0 {
		dl := time.Duration(a.DeadlineMS) * time.Millisecond
		timer = time.AfterFunc(dl, func() {
			rj.setReason("deadline-killed")
			d.cfg.Logf("killing %s rank %d: deadline %v exceeded", a.Job, a.Rank, dl)
			rj.node.Fail(fmt.Errorf("service: job exceeded its %v deadline", dl))
		})
	}
	memStop := make(chan struct{})
	if a.MaxMemMB > 0 {
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		base := int64(ms.HeapAlloc)
		limit := int64(a.MaxMemMB) << 20
		go func() {
			t := time.NewTicker(memSampleEvery)
			defer t.Stop()
			for {
				select {
				case <-memStop:
					return
				case <-t.C:
					runtime.ReadMemStats(&ms)
					if grew := int64(ms.HeapAlloc) - base; grew > limit {
						rj.setReason("mem-killed")
						d.cfg.Logf("killing %s rank %d: heap grew %d MB over the %d MB limit",
							a.Job, a.Rank, grew>>20, a.MaxMemMB)
						rj.node.Fail(fmt.Errorf("service: job heap grew %d MB, over the %d MB limit", grew>>20, a.MaxMemMB))
						return
					}
				}
			}
		}()
	}
	return func() {
		if timer != nil {
			timer.Stop()
		}
		close(memStop)
	}
}

// runJob runs the rank: the rendezvous on the job's control server, the
// isolated machine, and the workload to completion. The node stays up
// for the caller to report and close.
func (d *Daemon) runJob(a assignMsg, rj *runningJob) error {
	node := rj.node
	wl, err := LookupWorkload(a.Workload)
	if err != nil {
		node.Fail(err)
		return err
	}
	d.mu.Lock()
	hold := d.holdRendezvous
	d.mu.Unlock()
	if hold != nil {
		hold(a)
	}
	if err := node.Rendezvous(); err != nil {
		return fmt.Errorf("service: joining job %s mesh: %w", a.Job, err)
	}
	d.mu.Lock()
	rj.joined = true
	d.mu.Unlock()
	if a.DeadlineMS > 0 || a.MaxMemMB > 0 {
		stop := d.startLimits(rj, a)
		defer stop()
	}

	// The isolation boundary: a machine per job per daemon. Its handler
	// tables, metrics registry, and monitor scope belong to this job
	// alone, and the job tag flows into ccs snapshots.
	reg := metrics.New(a.PEs)
	cm := core.NewMachineOn(node, core.Config{PEs: a.PEs, Metrics: reg, Job: a.Job})
	if node.Active() {
		node.SetMetrics(reg.PE(node.ID()))
	}
	driver, err := wl(cm, a.Args)
	if err != nil {
		node.Fail(err)
		return err
	}
	runErr := cm.Run(driver)

	// The rank's share of the job's traffic, for the gateway's
	// bytes-moved accounting: only PEs hosted here have nonzero counts
	// in this process's registry.
	var sent uint64
	snap := reg.Snapshot()
	for _, pe := range snap.PEs {
		sent += pe.TotalSentBytes()
	}
	rj.sentBytes = sent
	return runErr
}
