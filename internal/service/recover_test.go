package service

import (
	"encoding/json"
	"fmt"
	"net"
	"strings"
	"testing"
	"time"

	"converse/internal/core"
)

// hardStop simulates a gateway crash (SIGKILL): every socket dies at
// once — daemon sessions and client connections, idle or busy — and
// nothing is journaled, cancelled, or drained. The journal file is left
// exactly as the crash would leave it.
func hardStop(g *Gateway) {
	g.mu.Lock()
	if g.closed {
		g.mu.Unlock()
		return
	}
	g.closed = true
	ds := make([]*daemonSession, 0, len(g.daemons))
	for _, d := range g.daemons {
		ds = append(ds, d)
	}
	for conn := range g.clients {
		conn.Close()
	}
	atts := make([]*jobAttempt, 0, len(g.attempts))
	for _, at := range g.attempts {
		atts = append(atts, at)
	}
	g.mu.Unlock()
	for _, at := range atts {
		if at.wdog != nil {
			at.wdog.Stop()
		}
		if at.cs != nil {
			at.cs.Shutdown()
		}
		if at.ls != nil {
			at.ls.Close()
		}
	}
	for _, d := range ds {
		d.conn.Close()
	}
	close(g.done)
	g.ls.Close()
	g.kick()
	g.wg.Wait()
	if g.recoverTimer != nil {
		g.recoverTimer.Stop()
	}
	g.jn.close()
}

// memhog grows its heap ~1 MiB per scheduled message up to a 64 MiB
// plateau and never finishes on its own — the mem watchdog's prey.
func init() {
	RegisterWorkload("memhog", func(cm *core.Machine, args json.RawMessage) (func(p *core.Proc), error) {
		var hGrow int
		held := make([][][]byte, cm.NumPes()) // per-PE retained allocations
		hGrow = cm.RegisterHandler(func(p *core.Proc, msg []byte) {
			me := p.MyPe()
			if len(held[me]) < 64 {
				held[me] = append(held[me], make([]byte, 1<<20))
			}
			p.Send(me, core.MakeMsg(hGrow, nil))
		})
		return func(p *core.Proc) {
			p.Send(p.MyPe(), core.MakeMsg(hGrow, nil))
			p.Scheduler(-1)
		}, nil
	})
}

// TestGatewayRestartRecoversQueuedJobs crashes a gateway holding only
// queued jobs and checks the restarted incarnation replays them,
// bumps its epoch, and runs them once a daemon appears.
func TestGatewayRestartRecoversQueuedJobs(t *testing.T) {
	dir := t.TempDir()
	cfg := GatewayConfig{
		Addr: "127.0.0.1:0", Token: "rec", StateDir: dir,
		Heartbeat: 100 * time.Millisecond, RecoveryWindow: 30 * time.Second,
		Logf: t.Logf,
	}
	g1, err := NewGateway(cfg)
	if err != nil {
		t.Fatalf("starting gateway: %v", err)
	}
	c := &Client{Addr: g1.Addr(), Token: "rec"}
	var ids []string
	for i := 0; i < 3; i++ {
		// No daemon is attached: admission leans on the suspended
		// capacity check of the recovery window.
		id, err := c.Submit(fmt.Sprintf("q%d", i), "pingpong", map[string]int{"iters": 5}, 2)
		if err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
		ids = append(ids, id)
	}
	hardStop(g1)

	g2, err := NewGateway(cfg)
	if err != nil {
		t.Fatalf("restarting gateway: %v", err)
	}
	defer g2.Close()
	c2 := &Client{Addr: g2.Addr(), Token: "rec"}
	cl, err := c2.ClusterInfo()
	if err != nil {
		t.Fatalf("cluster: %v", err)
	}
	if cl.Epoch != 2 {
		t.Errorf("epoch = %d after one restart, want 2", cl.Epoch)
	}
	if !cl.Recovering {
		t.Errorf("recovering = false inside the recovery window")
	}
	jobs, err := c2.Jobs()
	if err != nil {
		t.Fatalf("jobs: %v", err)
	}
	if len(jobs) != 3 {
		t.Fatalf("recovered %d jobs, want 3", len(jobs))
	}
	for _, in := range jobs {
		if in.State != string(Queued) {
			t.Errorf("job %s recovered as %s, want queued", in.ID, in.State)
		}
	}

	d, err := StartDaemon(DaemonConfig{Gateway: g2.Addr(), Token: "rec", Slots: 4, Name: "late"})
	if err != nil {
		t.Fatalf("starting daemon: %v", err)
	}
	defer d.Stop()
	for _, id := range ids {
		in, err := c2.WaitJob(id, 30*time.Second)
		if err != nil || in.State != string(Done) {
			t.Fatalf("recovered job %s: %+v, %v", id, in, err)
		}
	}
}

// TestGatewayRestartReadoptsRunningJobs is the kill-and-restart gate:
// a gang running across two daemons survives a gateway crash. The
// daemons keep the ranks alive, re-register with the new incarnation,
// and the job finishes exactly once — adopted, never requeued, tagged
// "recovered".
func TestGatewayRestartReadoptsRunningJobs(t *testing.T) {
	dir := t.TempDir()
	cfg := GatewayConfig{
		Addr: "127.0.0.1:0", Token: "rec", StateDir: dir,
		Heartbeat: 100 * time.Millisecond, RecoveryWindow: 10 * time.Second,
		JobWatchdog: 60 * time.Second, Logf: t.Logf,
	}
	g1, err := NewGateway(cfg)
	if err != nil {
		t.Fatalf("starting gateway: %v", err)
	}
	addr := g1.Addr()
	var daemons []*Daemon
	defer func() {
		for _, d := range daemons {
			d.Stop()
		}
	}()
	for i := 0; i < 2; i++ {
		d, err := StartDaemon(DaemonConfig{
			Gateway: addr, Token: "rec", Name: fmt.Sprintf("ra%d", i), Slots: 2,
		})
		if err != nil {
			t.Fatalf("starting daemon %d: %v", i, err)
		}
		daemons = append(daemons, d)
	}
	c := &Client{Addr: addr, Token: "rec"}
	id, err := c.Submit("adopt", "pingpong", map[string]int{"iters": recLongIters, "bytes": 64}, 4)
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	waitState(t, c, id, string(Running), 10*time.Second)
	// The gang is admitted before its ranks finish joining the job's
	// mesh, whose control server dies with the gateway: crash only once
	// every daemon hosts a joined rank.
	waitRanksJoined(t, daemons, 10*time.Second)

	hardStop(g1)
	// The crashed gateway's port is free again; the successor must bind
	// the same address for the daemons' redial to find it.
	cfg.Addr = addr
	g2, err := NewGateway(cfg)
	if err != nil {
		t.Fatalf("restarting gateway on %s: %v", addr, err)
	}
	defer g2.Close()

	in, err := c.WaitJob(id, 60*time.Second)
	if err != nil {
		t.Fatalf("waiting through restart: %v", err)
	}
	if in.State != string(Done) {
		t.Fatalf("job ended %s (err %q), want done", in.State, in.Error)
	}
	if in.Requeues != 0 {
		t.Errorf("requeues = %d, want 0 (adopted, not re-run)", in.Requeues)
	}
	if in.Reason != "recovered" {
		t.Errorf("reason = %q, want recovered", in.Reason)
	}
	if cl, err := c.ClusterInfo(); err != nil || cl.Epoch != 2 {
		t.Errorf("epoch = %d (%v), want 2", cl.Epoch, err)
	}
}

// TestGatewayRestartRequeuesLostGangs covers the other recovery arm: a
// daemon that died during the outage never re-registers, so the
// recovered gateway requeues its gang onto whoever is left once the
// recovery window closes.
func TestGatewayRestartRequeuesLostGangs(t *testing.T) {
	dir := t.TempDir()
	cfg := GatewayConfig{
		Addr: "127.0.0.1:0", Token: "rec", StateDir: dir,
		Heartbeat: 100 * time.Millisecond, RecoveryWindow: 700 * time.Millisecond,
		JobWatchdog: 60 * time.Second, Logf: t.Logf,
	}
	g1, err := NewGateway(cfg)
	if err != nil {
		t.Fatalf("starting gateway: %v", err)
	}
	addr := g1.Addr()
	doomed, err := StartDaemon(DaemonConfig{Gateway: addr, Token: "rec", Name: "doomed", Slots: 2})
	if err != nil {
		t.Fatalf("starting daemon: %v", err)
	}
	c := &Client{Addr: addr, Token: "rec"}
	id, err := c.Submit("lost", "pingpong", map[string]int{"iters": recLongIters, "bytes": 64}, 2)
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	waitState(t, c, id, string(Running), 10*time.Second)

	hardStop(g1)
	doomed.Stop() // dies during the outage; its ranks are gone for good

	cfg.Addr = addr
	g2, err := NewGateway(cfg)
	if err != nil {
		t.Fatalf("restarting gateway: %v", err)
	}
	defer g2.Close()
	survivor, err := StartDaemon(DaemonConfig{Gateway: addr, Token: "rec", Name: "survivor", Slots: 2})
	if err != nil {
		t.Fatalf("starting survivor: %v", err)
	}
	defer survivor.Stop()

	in, err := c.WaitJob(id, 60*time.Second)
	if err != nil {
		t.Fatalf("waiting through requeue: %v", err)
	}
	if in.State != string(Done) {
		t.Fatalf("job ended %s (err %q), want done after requeue", in.State, in.Error)
	}
	if in.Requeues < 1 {
		t.Errorf("requeues = %d, want >= 1 (gang lost with its daemon)", in.Requeues)
	}
}

// TestGatewayDrainJournalsCleanShutdown checks the graceful path: a
// draining gateway refuses new work, stamps the journal with a clean
// shutdown, and its successor replays warm without a recovery scare.
func TestGatewayDrainJournalsCleanShutdown(t *testing.T) {
	dir := t.TempDir()
	cfg := GatewayConfig{
		Addr: "127.0.0.1:0", Token: "rec", StateDir: dir,
		Heartbeat: 100 * time.Millisecond, DrainTimeout: 500 * time.Millisecond,
		RecoveryWindow: 30 * time.Second, Logf: t.Logf,
	}
	g1, err := NewGateway(cfg)
	if err != nil {
		t.Fatalf("starting gateway: %v", err)
	}
	d, err := StartDaemon(DaemonConfig{Gateway: g1.Addr(), Token: "rec", Name: "drainee", Slots: 2})
	if err != nil {
		t.Fatalf("starting daemon: %v", err)
	}
	defer d.Stop()
	c := &Client{Addr: g1.Addr(), Token: "rec"}
	// One long gang holds the cluster so Drain has something to wait
	// out, and one job sits queued behind it for the successor.
	runID, err := c.Submit("held", "pingpong", map[string]int{"iters": recHeldIters, "bytes": 64}, 2)
	if err != nil {
		t.Fatalf("submit running: %v", err)
	}
	waitState(t, c, runID, string(Running), 10*time.Second)
	if _, err := c.Submit("handoff", "pingpong", map[string]int{"iters": 5}, 2); err != nil {
		t.Fatalf("submit queued: %v", err)
	}
	done := make(chan error, 1)
	go func() { done <- g1.Drain() }()
	// Wait for Drain to stop admissions first: a probe submit that beat
	// it would be admitted and journaled as a third job.
	deadline := time.Now().Add(5 * time.Second)
	for {
		g1.mu.Lock()
		draining := g1.draining
		g1.mu.Unlock()
		if draining {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("Drain never stopped admissions")
		}
		time.Sleep(time.Millisecond)
	}
	// Once draining, submits must be refused with a pointer onward.
	for {
		_, err := c.Submit("late", "pingpong", nil, 1)
		if err != nil && strings.Contains(err.Error(), "draining") {
			break
		}
		if err != nil && strings.Contains(err.Error(), "dialing gateway") {
			t.Fatalf("drain closed the listener before the timeout: %v", err)
		}
		if time.Now().After(deadline) {
			t.Fatalf("draining gateway still admitting (last err %v)", err)
		}
		time.Sleep(10 * time.Millisecond)
	}
	if err := <-done; err != nil {
		t.Fatalf("drain: %v", err)
	}

	_, st, err := openJournal(dir, t.Logf)
	if err != nil {
		t.Fatalf("replaying drained journal: %v", err)
	}
	if !st.clean {
		t.Errorf("clean = false after drain; shutdown record missing")
	}
	if len(st.jobs) != 2 {
		t.Fatalf("drained journal jobs = %+v, want both handed over", st.jobs)
	}
	states := map[string]string{}
	for _, pj := range st.jobs {
		states[pj.Name] = pj.State
	}
	if states["handoff"] != string(Queued) {
		t.Errorf("queued job handed over as %q, want queued", states["handoff"])
	}
	if states["held"] != string(Running) {
		t.Errorf("running job handed over as %q, want running (unfinished at drain timeout)", states["held"])
	}
}

// TestDrainEndsLogFollowers follows a long job's logs while a
// journaling gateway drains. Drain leaves the job running for the next
// incarnation, so nothing ends the follow but the gateway itself: the
// stream must end with the shutdown error, and Drain must return once
// its timeout is out instead of waiting for the job.
func TestDrainEndsLogFollowers(t *testing.T) {
	const drainTimeout = 300 * time.Millisecond
	g, err := NewGateway(GatewayConfig{
		Addr: "127.0.0.1:0", Token: "rec", StateDir: t.TempDir(),
		Heartbeat: 100 * time.Millisecond, DrainTimeout: drainTimeout,
		RecoveryWindow: 30 * time.Second, Logf: t.Logf,
	})
	if err != nil {
		t.Fatalf("starting gateway: %v", err)
	}
	d, err := StartDaemon(DaemonConfig{Gateway: g.Addr(), Token: "rec", Name: "followed", Slots: 2})
	if err != nil {
		t.Fatalf("starting daemon: %v", err)
	}
	defer d.Stop()
	c := &Client{Addr: g.Addr(), Token: "rec"}
	id, err := c.Submit("held", "pingpong", map[string]int{"iters": recHeldIters, "bytes": 64}, 2)
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	waitState(t, c, id, string(Running), 10*time.Second)

	logsDone := make(chan error, 1)
	go func() {
		_, _, err := c.Logs(id, true, nil)
		logsDone <- err
	}()
	g.mu.Lock()
	j := g.jobs[id]
	g.mu.Unlock()
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
		j.mu.Lock()
		following := len(j.followers) > 0
		j.mu.Unlock()
		if following {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("the log follower never registered")
		}
	}

	drained := make(chan error, 1)
	go func() { drained <- g.Drain() }()
	const slack = 3 * time.Second
	select {
	case err := <-drained:
		if err != nil {
			t.Fatalf("drain: %v", err)
		}
	case <-time.After(drainTimeout + slack):
		t.Fatalf("Drain still blocked %v after it started (drain timeout %v): a log follower holds the gateway",
			drainTimeout+slack, drainTimeout)
	}
	select {
	case err := <-logsDone:
		if err == nil || !strings.Contains(err.Error(), "shutting down") {
			t.Errorf("followed stream ended with %v, want the gateway-shutting-down error", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("followed stream still open after the gateway drained")
	}
}

// TestSubmitRetriesThroughRestart covers the client backoff: a submit
// launched while the gateway is down succeeds once a new incarnation
// binds the address, inside the retry window.
func TestSubmitRetriesThroughRestart(t *testing.T) {
	// Reserve an address, then free it for the late gateway.
	ls, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("reserving port: %v", err)
	}
	addr := ls.Addr().String()
	ls.Close()

	dir := t.TempDir()
	gotID := make(chan error, 1)
	c := &Client{Addr: addr, Token: "rec"}
	go func() {
		_, err := c.SubmitJob(SubmitSpec{
			Name: "early", Workload: "pingpong", Gang: 1,
			RetryWindow: 10 * time.Second,
		})
		gotID <- err
	}()
	time.Sleep(400 * time.Millisecond) // let a few dials fail first
	g, err := NewGateway(GatewayConfig{
		Addr: addr, Token: "rec", StateDir: dir,
		Heartbeat: 100 * time.Millisecond, RecoveryWindow: 30 * time.Second,
		Logf: t.Logf,
	})
	if err != nil {
		t.Fatalf("starting gateway: %v", err)
	}
	defer g.Close()
	select {
	case err := <-gotID:
		if err != nil {
			t.Fatalf("retried submit failed: %v", err)
		}
	case <-time.After(15 * time.Second):
		t.Fatalf("retried submit never returned")
	}
}

// TestDeadlineKillsOverrunningJob checks the per-job wall-clock limit:
// the daemon's watchdog fails the job with the deadline-killed reason.
func TestDeadlineKillsOverrunningJob(t *testing.T) {
	g, _ := startCluster(t, 1, 2)
	c := &Client{Addr: g.Addr(), Token: "svc-test"}
	id, err := c.SubmitJob(SubmitSpec{
		Name: "overrun", Workload: "pingpong",
		Args: map[string]int{"iters": 500000, "bytes": 64}, Gang: 2,
		Deadline: 300 * time.Millisecond,
	})
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	in, err := c.WaitJob(id, 30*time.Second)
	if err != nil {
		t.Fatalf("waiting: %v", err)
	}
	if in.State != string(Failed) {
		t.Fatalf("state = %s (err %q), want failed", in.State, in.Error)
	}
	if in.Reason != "deadline-killed" {
		t.Errorf("reason = %q, want deadline-killed", in.Reason)
	}
	if !strings.Contains(in.Error, "deadline") {
		t.Errorf("error = %q, want a deadline mention", in.Error)
	}
}

// TestMaxMemKillsHeapHog checks the per-job heap ceiling: the daemon's
// sampler catches the memhog workload growing past its limit.
func TestMaxMemKillsHeapHog(t *testing.T) {
	g, _ := startCluster(t, 1, 2)
	c := &Client{Addr: g.Addr(), Token: "svc-test"}
	id, err := c.SubmitJob(SubmitSpec{
		Name: "hog", Workload: "memhog", Gang: 1,
		MaxMemMB: 16,
	})
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	in, err := c.WaitJob(id, 30*time.Second)
	if err != nil {
		t.Fatalf("waiting: %v", err)
	}
	if in.State != string(Failed) {
		t.Fatalf("state = %s (err %q), want failed", in.State, in.Error)
	}
	if in.Reason != "mem-killed" {
		t.Errorf("reason = %q, want mem-killed", in.Reason)
	}
}

// waitRanksJoined polls until every daemon hosts a rank that has joined
// its job's mesh, failing the test at the timeout.
func waitRanksJoined(t *testing.T, daemons []*Daemon, timeout time.Duration) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for {
		joined := 0
		for _, d := range daemons {
			d.mu.Lock()
			if len(d.jobs) > 0 {
				joined++
			}
			d.mu.Unlock()
		}
		if joined == len(daemons) {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d of %d daemons joined the job's mesh", joined, len(daemons))
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// waitState polls until the job reports state, failing the test at the
// deadline.
func waitState(t *testing.T, c *Client, id, state string, timeout time.Duration) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for {
		in, err := c.Status(id)
		if err != nil {
			t.Fatalf("status %s: %v", id, err)
		}
		if in.State == state {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s stuck in %s, want %s", id, in.State, state)
		}
		time.Sleep(10 * time.Millisecond)
	}
}
