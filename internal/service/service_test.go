package service

import (
	"bytes"
	"encoding/json"
	"errors"
	"net"
	"os"
	"strings"
	"testing"
	"time"

	"converse/internal/wire"
)

// startCluster brings up a gateway and n daemons with slots PEs each,
// all torn down with the test.
func startCluster(t *testing.T, n, slots int) (*Gateway, []*Daemon) {
	t.Helper()
	g, err := NewGateway(GatewayConfig{
		Addr:        "127.0.0.1:0",
		Token:       "svc-test",
		Heartbeat:   100 * time.Millisecond,
		JobWatchdog: 30 * time.Second,
		Logf:        t.Logf,
	})
	if err != nil {
		t.Fatalf("starting gateway: %v", err)
	}
	t.Cleanup(func() { g.Close() })
	var ds []*Daemon
	for i := 0; i < n; i++ {
		d, err := StartDaemon(DaemonConfig{
			Gateway: g.Addr(),
			Token:   "svc-test",
			Name:    "d" + string(rune('a'+i)),
			Slots:   slots,
		})
		if err != nil {
			t.Fatalf("starting daemon %d: %v", i, err)
		}
		t.Cleanup(d.Stop)
		ds = append(ds, d)
	}
	return g, ds
}

// TestSubmitPingpongSpansDaemons runs one gang across two daemons and
// checks completion, byte accounting, and timing fields.
func TestSubmitPingpongSpansDaemons(t *testing.T) {
	g, _ := startCluster(t, 2, 2)
	c := &Client{Addr: g.Addr(), Token: "svc-test"}
	id, err := c.Submit("pp", "pingpong", map[string]int{"iters": 10, "bytes": 128}, 4)
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	in, err := c.WaitJob(id, 20*time.Second)
	if err != nil {
		t.Fatalf("waiting: %v (job %+v)", err, in)
	}
	if in.State != string(Done) {
		t.Fatalf("job state = %s (err %q), want done", in.State, in.Error)
	}
	if in.BytesMoved == 0 {
		t.Errorf("bytes moved = 0, want > 0")
	}
	if len(in.Daemons) != 2 {
		t.Errorf("daemons = %v, want a 2-daemon gang", in.Daemons)
	}
	if in.RuntimeMS <= 0 {
		t.Errorf("runtime = %v ms, want > 0", in.RuntimeMS)
	}
}

// TestJacobiCompletesAndLogs runs the jacobi workload and checks the
// log plumbing end to end.
func TestJacobiCompletesAndLogs(t *testing.T) {
	g, _ := startCluster(t, 3, 2)
	c := &Client{Addr: g.Addr(), Token: "svc-test"}
	id, err := c.Submit("jb", "jacobi", map[string]int{"n": 32, "iters": 8}, 5)
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	var logText strings.Builder
	state, jobErr, err := c.Logs(id, true, func(text string, isErr bool) {
		logText.WriteString(text)
	})
	if err != nil {
		t.Fatalf("logs: %v", err)
	}
	if state != string(Done) {
		t.Fatalf("log stream final state = %s (err %q), want done", state, jobErr)
	}
}

// TestAdmissionRejection covers the reject-with-reason paths: unknown
// workload, impossible gang, and a saturated backlog.
func TestAdmissionRejection(t *testing.T) {
	g, _ := startCluster(t, 1, 2)
	c := &Client{Addr: g.Addr(), Token: "svc-test"}

	if _, err := c.Submit("x", "no-such-workload", nil, 1); err == nil || !strings.Contains(err.Error(), "unknown workload") {
		t.Errorf("unknown workload: err = %v, want unknown-workload rejection", err)
	}
	if _, err := c.Submit("x", "pingpong", nil, 99); err == nil || !strings.Contains(err.Error(), "exceeds cluster capacity") {
		t.Errorf("oversized gang: err = %v, want capacity rejection", err)
	}
	if _, err := c.Submit("x", "pingpong", nil, 0); err == nil {
		t.Errorf("zero gang: err = nil, want rejection")
	}
	if _, err := (&Client{Addr: g.Addr(), Token: "wrong"}).Submit("x", "pingpong", nil, 1); err == nil || !strings.Contains(err.Error(), "token") {
		t.Errorf("bad token: err = %v, want auth rejection", err)
	}
}

// TestBacklogSaturation fills the queue past its cap and checks that
// overflow submits are refused with the backlog reason.
func TestBacklogSaturation(t *testing.T) {
	g, err := NewGateway(GatewayConfig{
		Addr:       "127.0.0.1:0",
		BacklogCap: 3,
		Heartbeat:  100 * time.Millisecond,
		Logf:       t.Logf,
	})
	if err != nil {
		t.Fatalf("starting gateway: %v", err)
	}
	defer g.Close()
	d, err := StartDaemon(DaemonConfig{Gateway: g.Addr(), Slots: 1})
	if err != nil {
		t.Fatalf("starting daemon: %v", err)
	}
	defer d.Stop()
	c := &Client{Addr: g.Addr()}
	// Saturate: the single slot admits at most one job at a time, so
	// long-ish jobs keep the queue full.
	args := map[string]int{"iters": 2000, "bytes": 64}
	var ids []string
	for i := 0; i < 4; i++ {
		id, err := c.Submit("pp", "pingpong", args, 1)
		if err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
		ids = append(ids, id)
	}
	// The scheduler may have drained the head into Admitted; keep
	// filling until the queue itself holds 3.
	for i := 0; i < 3; i++ {
		if id, err := c.Submit("pp", "pingpong", args, 1); err == nil {
			ids = append(ids, id)
		} else if strings.Contains(err.Error(), "backlog full") {
			for _, id := range ids {
				c.Cancel(id)
			}
			return // saturation observed
		} else {
			t.Fatalf("submit overflow: unexpected error %v", err)
		}
	}
	t.Fatalf("backlog never saturated (cap 3, %d accepted)", len(ids))
}

// TestCancelRunningJob cancels a long-running job and checks the
// terminal state and slot release.
func TestCancelRunningJob(t *testing.T) {
	g, _ := startCluster(t, 2, 2)
	c := &Client{Addr: g.Addr(), Token: "svc-test"}
	id, err := c.Submit("long", "pingpong", map[string]int{"iters": 500000, "bytes": 64}, 4)
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	// Let it reach Running.
	deadline := time.Now().Add(10 * time.Second)
	for {
		in, err := c.Status(id)
		if err != nil {
			t.Fatalf("status: %v", err)
		}
		if in.State == string(Running) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("job stuck in %s", in.State)
		}
		time.Sleep(10 * time.Millisecond)
	}
	if err := c.Cancel(id); err != nil {
		t.Fatalf("cancel: %v", err)
	}
	in, err := c.WaitJob(id, 10*time.Second)
	if err != nil {
		t.Fatalf("waiting post-cancel: %v", err)
	}
	if in.State != string(Cancelled) {
		t.Fatalf("state = %s, want cancelled", in.State)
	}
	// The gang's slots must come back: a follow-up job must run.
	id2, err := c.Submit("after", "pingpong", map[string]int{"iters": 5}, 4)
	if err != nil {
		t.Fatalf("submit after cancel: %v", err)
	}
	if in, err := c.WaitJob(id2, 20*time.Second); err != nil || in.State != string(Done) {
		t.Fatalf("post-cancel job: %+v, %v", in, err)
	}
}

// TestDaemonChurnRequeues kills a daemon under a running job and
// checks the gang requeues onto the survivors and completes.
func TestDaemonChurnRequeues(t *testing.T) {
	g, ds := startCluster(t, 3, 2)
	c := &Client{Addr: g.Addr(), Token: "svc-test"}
	// Gang of 4 spans at least two daemons (2 slots each).
	id, err := c.Submit("churn", "pingpong", map[string]int{"iters": 20000, "bytes": 256}, 4)
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	deadline := time.Now().Add(10 * time.Second)
	var victim *Daemon
	for victim == nil {
		in, err := c.Status(id)
		if err != nil {
			t.Fatalf("status: %v", err)
		}
		if in.State == string(Running) && len(in.Daemons) >= 2 {
			for _, d := range ds {
				for _, name := range in.Daemons {
					if d.Name() == name {
						victim = d
					}
				}
			}
		}
		if time.Now().After(deadline) {
			t.Fatalf("job never ran on a multi-daemon gang: %+v", in)
		}
		time.Sleep(10 * time.Millisecond)
	}
	victim.Stop()
	// The multi-second pingpong cannot finish before the kill propagates; the
	// gang must requeue onto the survivors (4 slots remain) and the
	// job must eventually terminate. A requeued attempt restarts the
	// workload from scratch, so give it room.
	in, err := c.WaitJob(id, 60*time.Second)
	if err != nil {
		t.Fatalf("waiting through churn: %v", err)
	}
	if in.Requeues < 1 {
		t.Errorf("requeues = %d, want >= 1 after daemon kill", in.Requeues)
	}
	if in.State != string(Done) {
		t.Fatalf("state = %s (err %q), want done after requeue", in.State, in.Error)
	}
}

// TestGatewayAuthenticatesEveryKind: the gateway checks version and
// token once, before any handler runs, so every request kind — and a
// daemon registration — is refused with an error naming what was wrong.
// The right head gets past the check for every kind.
func TestGatewayAuthenticatesEveryKind(t *testing.T) {
	g, _ := startCluster(t, 0, 0)
	c := &Client{Addr: g.Addr()}
	reqs := []struct {
		name string
		kind byte
		msg  func(reqHead) any
	}{
		{"submit", kSubmit, func(h reqHead) any { return submitMsg{reqHead: h, Workload: "pingpong", Gang: 1} }},
		{"status", kStatus, func(h reqHead) any { return statusMsg{reqHead: h, ID: "no-such-job"} }},
		{"cancel", kCancel, func(h reqHead) any { return cancelMsg{reqHead: h, ID: "no-such-job"} }},
		{"jobs", kJobs, func(h reqHead) any { return jobsMsg{reqHead: h} }},
		{"cluster", kCluster, func(h reqHead) any { return clusterMsg{reqHead: h} }},
		{"logs", kLogs, func(h reqHead) any { return logsMsg{reqHead: h, ID: "no-such-job"} }},
		{"register", kRegister, func(h reqHead) any { return registerMsg{reqHead: h, Name: "auth-probe", Slots: 1} }},
	}
	heads := []struct {
		head reqHead
		want string
	}{
		{reqHead{V: protoV, Token: "wrong"}, "token"},
		{reqHead{V: protoV, Token: ""}, "token"},
		{reqHead{V: protoV + 1, Token: "svc-test"}, "version"},
	}
	for _, r := range reqs {
		for _, h := range heads {
			var rep any
			err := c.roundTrip(r.kind, r.msg(h.head), &rep)
			var remote wire.Error
			if !errors.As(err, &remote) || !strings.Contains(err.Error(), h.want) {
				t.Errorf("%s with %+v: err = %v, want a gateway rejection naming the %s", r.name, h.head, err, h.want)
			}
		}
		var rep any
		err := c.roundTrip(r.kind, r.msg(reqHead{V: protoV, Token: "svc-test"}), &rep)
		if err != nil && (strings.Contains(err.Error(), "token") || strings.Contains(err.Error(), "version")) {
			t.Errorf("%s with the right head: rejected by the auth check: %v", r.name, err)
		}
	}
}

// TestRequestHeadLeadsEncoding pins the request bytes binaries on
// either side of the reqHead refactor exchange: the embedded head's
// fields come first, in order, exactly as when each request declared
// them itself.
func TestRequestHeadLeadsEncoding(t *testing.T) {
	h := reqHead{V: protoV, Token: "t"}
	for _, tc := range []struct {
		msg  any
		want string
	}{
		{submitMsg{reqHead: h, Name: "n", Workload: "w", Gang: 2}, `{"v":3,"token":"t","name":"n","workload":"w","gang":2}`},
		{logsMsg{reqHead: h, ID: "j", Follow: true}, `{"v":3,"token":"t","id":"j","follow":true}`},
		{jobsMsg{reqHead: reqHead{V: protoV}}, `{"v":3}`},
		{registerMsg{reqHead: h, Name: "d", Slots: 4}, `{"v":3,"token":"t","name":"d","slots":4}`},
	} {
		if b, err := json.Marshal(tc.msg); err != nil || string(b) != tc.want {
			t.Errorf("%T encodes as %s (%v), want %s", tc.msg, b, err, tc.want)
		}
	}
}

// TestCancelBetweenPlacementAndLaunch: placement arms the attempt's
// watchdog and queues its launch, so a cancel — or a daemon loss — can
// land before launch runs. Launch then sends nothing, starts no control
// server and hands the attempt back: a cancelled job ends Cancelled
// through exactly one terminal transition, a job that lost a daemon is
// requeued at once, and neither holds a slot, attempt or timer after.
func TestCancelBetweenPlacementAndLaunch(t *testing.T) {
	for _, tc := range []struct {
		name      string
		interrupt func(f *fleet, now time.Time)
		want      State
		terminal  string
	}{
		{"cancel", func(f *fleet, now time.Time) { f.cancel("job-1", "cancelled by client", now) }, Cancelled, "running->cancelled"},
		{"daemon-loss", func(f *fleet, now time.Time) { f.leave("d1", "killed", now) }, Queued, ""},
	} {
		t.Run(tc.name, func(t *testing.T) {
			jn, _, err := openJournal(t.TempDir(), t.Logf)
			if err != nil {
				t.Fatal(err)
			}
			defer jn.close()
			g := &Gateway{
				cfg: GatewayConfig{Heartbeat: time.Second, JobWatchdog: time.Minute, Logf: t.Logf},
				jn:  jn, f: testFleet(),
				sessions: map[string]*daemonSession{}, io: map[string]*attemptIO{}, logs: map[string]*jobLog{},
			}
			now := time.Now()
			g.mu.Lock()
			for _, name := range []string{"d0", "d1"} {
				// The session is already gone, so a send fails at once
				// instead of waiting for a reader.
				local, remote := net.Pipe()
				remote.Close()
				d := &daemonSession{conn: local, ready: make(chan struct{})}
				close(d.ready) // registered: its reply went out
				g.registerLocked(d, name)
				g.f.join(name, 1, nil, now)
			}
			submitJob(t, g.f, "job-1", 2, now)
			launch, _ := g.commitLocked()
			e := g.io["job-1"]
			g.mu.Unlock()
			if e == nil || e.wdog == nil {
				t.Fatalf("placement armed no watchdog: %+v", e)
			}

			g.step(tc.interrupt)
			for _, run := range launch {
				run()
			}

			g.mu.Lock()
			j, held, ios := g.f.jobs["job-1"], len(g.f.attempts), len(g.io)
			busy := g.f.daemons["d0"].busy
			g.mu.Unlock()
			if j.State != tc.want || (tc.want == Queued && j.Requeues != 1) {
				t.Fatalf("job %s after %d requeues, want %s", j.State, j.Requeues, tc.want)
			}
			if held != 0 || busy != 0 || ios != 0 {
				t.Errorf("after launch: %d attempts held, %d slots busy, %d control servers; want none", held, busy, ios)
			}
			if e.cs != nil {
				t.Error("launch started a control server for an attempt given up before it")
			}
			if e.wdog.Stop() {
				t.Error("attempt watchdog was still armed")
			}

			data, err := os.ReadFile(jn.path)
			if err != nil {
				t.Fatal(err)
			}
			var terminal []string
			for r := bytes.NewReader(data); r.Len() > 0; {
				k, payload, err := wire.ReadFrame(r)
				if err != nil {
					t.Fatal(err)
				}
				var tr jTransRec
				if k == jkTrans && wire.DecodeJSON(k, payload, &tr) == nil && State(tr.To).Terminal() {
					terminal = append(terminal, tr.From+"->"+tr.To)
				}
			}
			if strings.Join(terminal, ",") != tc.terminal {
				t.Errorf("journaled terminal edges: %v, want [%s]", terminal, tc.terminal)
			}
		})
	}
}
