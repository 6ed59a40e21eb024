package service

import (
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"
)

// parkedAddrs lists the local addresses of c's idle connections.
func parkedAddrs(c *Client) []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	var out []string
	for _, ic := range c.idle {
		out = append(out, ic.conn.LocalAddr().String())
	}
	return out
}

// runWarmJob is one warm job as a client sees it: submit a gang, follow
// its logs to the end, read its final status.
func runWarmJob(c *Client, name string, gang int) (JobInfo, error) {
	id, err := c.Submit(name, "pingpong", map[string]int{"iters": 20, "bytes": 64}, gang)
	if err != nil {
		return JobInfo{}, fmt.Errorf("submit: %w", err)
	}
	state, _, err := c.Logs(id, true, nil)
	if err != nil {
		return JobInfo{}, fmt.Errorf("logs: %w", err)
	}
	in, err := c.Status(id)
	if err != nil {
		return in, fmt.Errorf("status: %w", err)
	}
	if state != string(Done) || in.State != string(Done) {
		return in, fmt.Errorf("job %s: log stream ended %s, status %s (%s)", id, state, in.State, in.Error)
	}
	return in, nil
}

// TestClientReusesOneConnection: a caller that submits, follows and
// polls job after job through one Client opens one gateway connection
// in all.
func TestClientReusesOneConnection(t *testing.T) {
	g, _ := startCluster(t, 2, 1)
	c := &Client{Addr: g.Addr(), Token: "svc-test"}
	before := g.accepted.Load() // the daemons' sessions
	for i := 0; i < 20; i++ {
		in, err := runWarmJob(c, fmt.Sprintf("warm%d", i), 2)
		if err != nil {
			t.Fatalf("cycle %d: %v", i, err)
		}
		if len(in.Daemons) != 2 {
			t.Fatalf("cycle %d: gang ran on %v, want both daemons", i, in.Daemons)
		}
	}
	if n := g.accepted.Load() - before; n != 1 {
		t.Errorf("gateway accepted %d client connections over 20 jobs, want 1", n)
	}
}

// TestClientDropsClosedIdleConnection: a gateway crash cuts the
// Client's parked connection. The next request notices before writing,
// dials the successor on the same address and succeeds there, and a
// submit is admitted exactly once.
func TestClientDropsClosedIdleConnection(t *testing.T) {
	cfg := GatewayConfig{
		Addr: "127.0.0.1:0", Token: "reuse", StateDir: t.TempDir(),
		Heartbeat: 100 * time.Millisecond, RecoveryWindow: 10 * time.Second,
		Logf: t.Logf,
	}
	g, err := NewGateway(cfg)
	if err != nil {
		t.Fatalf("starting gateway: %v", err)
	}
	defer func() { g.Close() }()
	cfg.Addr = g.Addr()
	d, err := StartDaemon(DaemonConfig{Gateway: cfg.Addr, Token: "reuse", Slots: 1, Name: "d"})
	if err != nil {
		t.Fatalf("starting daemon: %v", err)
	}
	defer d.Stop()
	c := &Client{Addr: cfg.Addr, Token: "reuse"}
	first, err := runWarmJob(c, "first", 1)
	if err != nil {
		t.Fatal(err)
	}

	// restart crashes the gateway under c's parked connection and brings
	// up its successor, returning the connection's address.
	restart := func() string {
		t.Helper()
		parked := parkedAddrs(c)
		if len(parked) != 1 {
			t.Fatalf("client parks %v before the crash, want one connection", parked)
		}
		hardStop(g)
		if g, err = NewGateway(cfg); err != nil {
			t.Fatalf("restarting gateway: %v", err)
		}
		return parked[0]
	}
	// freshDial checks the last request left a new connection parked.
	freshDial := func(what, old string) {
		t.Helper()
		if parked := parkedAddrs(c); len(parked) != 1 || parked[0] == old {
			t.Errorf("after %s: client parks %v, want one connection other than the cut %s", what, parked, old)
		}
	}

	old := restart()
	in, err := c.Status(first.ID)
	if err != nil || in.State != string(Done) {
		t.Fatalf("status across the restart: %+v, %v", in, err)
	}
	freshDial("status", old)

	old = restart()
	id, err := c.Submit("second", "pingpong", map[string]int{"iters": 5}, 1)
	if err != nil {
		t.Fatalf("submit across the restart: %v", err)
	}
	freshDial("submit", old)
	if in, err := c.WaitJob(id, 30*time.Second); err != nil || in.State != string(Done) {
		t.Fatalf("job submitted across the restart: %+v, %v", in, err)
	}
	jobs, err := c.Jobs()
	if err != nil {
		t.Fatalf("jobs: %v", err)
	}
	held := 0
	for _, in := range jobs {
		if in.Name == "second" {
			held++
		}
	}
	if held != 1 {
		t.Errorf("successor holds %d jobs named second, want exactly 1 (%+v)", held, jobs)
	}
}

// TestClientConcurrentUse: one Client serves concurrent callers, each
// on a connection of its own, while another caller follows a log
// stream; the idle set never grows past its bound.
func TestClientConcurrentUse(t *testing.T) {
	g, _ := startCluster(t, 2, 2)
	c := &Client{Addr: g.Addr(), Token: "svc-test"}
	followed, err := c.Submit("followed", "pingpong", map[string]int{"iters": 2000, "bytes": 64}, 2)
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		if state, _, err := c.Logs(followed, true, nil); err != nil || state != string(Done) {
			t.Errorf("following %s: state %q, %v", followed, state, err)
		}
	}()
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 5; i++ {
				id, err := c.Submit(fmt.Sprintf("w%d-%d", w, i), "pingpong", map[string]int{"iters": 5}, 1)
				if err != nil {
					t.Errorf("worker %d: submit: %v", w, err)
					return
				}
				if _, err := c.Status(id); err != nil {
					t.Errorf("worker %d: status: %v", w, err)
					return
				}
				if i%2 == 1 {
					if err := c.Cancel(id); err != nil {
						t.Errorf("worker %d: cancel: %v", w, err)
						return
					}
				}
				if in, err := c.WaitJob(id, 30*time.Second); err != nil {
					t.Errorf("worker %d: waiting for %s: %+v, %v", w, id, in, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if parked := parkedAddrs(c); len(parked) > maxIdleConns {
		t.Errorf("client parks %d connections, bound %d", len(parked), maxIdleConns)
	}
}

// TestGatewayCloseCutsIdleClients: a parked client connection holds a
// gateway goroutine, and Close — or Drain, which shuts down without
// cancelling — must cut it at once rather than wait out the idle limit.
func TestGatewayCloseCutsIdleClients(t *testing.T) {
	for _, stop := range []struct {
		name string
		stop func(*Gateway) error
	}{
		{"Close", (*Gateway).Close},
		{"Drain", (*Gateway).Drain},
	} {
		t.Run(stop.name, func(t *testing.T) {
			baseline := runtime.NumGoroutine()
			g, err := NewGateway(GatewayConfig{
				Addr: "127.0.0.1:0", Token: "idle", StateDir: t.TempDir(), Logf: t.Logf,
			})
			if err != nil {
				t.Fatalf("starting gateway: %v", err)
			}
			c := &Client{Addr: g.Addr(), Token: "idle"}
			if _, err := c.Jobs(); err != nil {
				t.Fatalf("jobs: %v", err)
			}
			if parked := parkedAddrs(c); len(parked) != 1 {
				t.Fatalf("client parks %v, want one connection", parked)
			}
			start := time.Now()
			stop.stop(g)
			if took := time.Since(start); took > reqTimeout/10 {
				t.Errorf("%s took %v with a parked client connection, want well under %v", stop.name, took, reqTimeout)
			}
			var n int
			for wait := time.Now().Add(5 * time.Second); ; {
				n = runtime.NumGoroutine()
				if n <= baseline {
					break
				}
				if time.Now().After(wait) {
					buf := make([]byte, 1<<20)
					t.Fatalf("goroutine leak: %d running, baseline %d\n%s", n, baseline, buf[:runtime.Stack(buf, true)])
				}
				time.Sleep(10 * time.Millisecond)
			}
			// The cut reaches the client as a dead parked connection: the
			// next request dials, and with the gateway gone that fails.
			if _, err := c.Jobs(); err == nil {
				t.Errorf("jobs against a stopped gateway succeeded")
			}
		})
	}
}

// BenchmarkWarmJob is one warm gang-2 job from a client's side — submit,
// follow the logs to done, read the status — on an in-process journaling
// gateway with two 1-slot daemons. conns/op counts the connections the
// gateway accepts per job once the client is warm; it should be 0, as
// the ranks' control links ride the daemons' sessions. meshconns/op
// counts the connections the daemons' mesh listeners accept per job; it
// should be NP-1 = 1, the job's one mesh link.
func BenchmarkWarmJob(b *testing.B) {
	g, err := NewGateway(GatewayConfig{
		Addr: "127.0.0.1:0", Token: "bench", StateDir: b.TempDir(),
		Logf: func(string, ...any) {},
	})
	if err != nil {
		b.Fatalf("starting gateway: %v", err)
	}
	defer g.Close()
	var ds []*Daemon
	for i := 0; i < 2; i++ {
		d, err := StartDaemon(DaemonConfig{Gateway: g.Addr(), Token: "bench", Name: fmt.Sprintf("d%d", i), Slots: 1})
		if err != nil {
			b.Fatalf("starting daemon %d: %v", i, err)
		}
		defer d.Stop()
		ds = append(ds, d)
	}
	meshAccepted := func() (n int64) {
		for _, d := range ds {
			n += d.mesh.Accepted()
		}
		return n
	}
	c := &Client{Addr: g.Addr(), Token: "bench"}
	for i := 0; i < 3; i++ {
		if _, err := runWarmJob(c, "warmup", 2); err != nil {
			b.Fatal(err)
		}
	}
	accepted, meshed := g.accepted.Load(), meshAccepted()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := runWarmJob(c, "bench", 2); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(g.accepted.Load()-accepted)/float64(b.N), "conns/op")
	b.ReportMetric(float64(meshAccepted()-meshed)/float64(b.N), "meshconns/op")
}
