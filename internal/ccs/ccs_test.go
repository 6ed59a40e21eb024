package ccs_test

// End-to-end tests over the real stack: a sim-substrate machine opens a
// monitor endpoint (core.Machine.StartMonitor adapts its processors to
// ccs.Source), and the client functions read it over a real socket.

import (
	"bytes"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"converse/internal/ccs"
	"converse/internal/core"
	"converse/internal/metrics"
)

// startServing builds a PEs-wide sim machine whose drivers serve until
// released, returning the machine, a stop function, and the Run error
// channel.
func startServing(t *testing.T, pes int, reg *metrics.Registry) (*core.Machine, func()) {
	t.Helper()
	cm := core.NewMachine(core.Config{PEs: pes, Metrics: reg})
	var stop atomic.Bool
	errCh := make(chan error, 1)
	go func() {
		errCh <- cm.Run(func(p *core.Proc) {
			p.ServeUntil(func() bool { return stop.Load() })
		})
	}()
	release := func() {
		stop.Store(true)
		// Wake any idle-blocked scheduler so it re-evaluates the
		// predicate: the probe's doorbell is itself the wakeup.
		for i := 0; i < pes; i++ {
			cm.Proc(i).ProbeSchedState(time.Second)
		}
		if err := <-errCh; err != nil {
			t.Errorf("machine run: %v", err)
		}
	}
	return cm, release
}

func TestSnapshotLiveSimMachine(t *testing.T) {
	reg := metrics.New(4)
	cm, release := startServing(t, 4, reg)
	defer release()

	mon, err := cm.StartMonitor("127.0.0.1:0", "tok")
	if err != nil {
		t.Fatal(err)
	}
	defer mon.Close()

	snap, err := ccs.Fetch(mon.Addr(), "tok")
	if err != nil {
		t.Fatal(err)
	}
	if snap.Schema != ccs.SchemaV1 {
		t.Errorf("schema = %q, want %q", snap.Schema, ccs.SchemaV1)
	}
	if snap.NumPEs != 4 || len(snap.PEs) != 4 {
		t.Fatalf("snapshot covers %d/%d PEs, want 4/4", len(snap.PEs), snap.NumPEs)
	}
	for _, v := range snap.PEs {
		if !v.Fresh {
			t.Errorf("pe %d: stale sched state from an idle, serving scheduler", v.PE)
		}
		if v.Sched.Seq == 0 {
			t.Errorf("pe %d: doorbell never published (seq 0)", v.PE)
		}
		if v.Metrics == nil {
			t.Errorf("pe %d: no metrics in snapshot despite a registry", v.PE)
		}
		if v.Blocked == "" {
			t.Errorf("pe %d: no block-state description", v.PE)
		}
	}
}

func TestSnapshotRejectsBadToken(t *testing.T) {
	cm, release := startServing(t, 2, nil)
	defer release()
	mon, err := cm.StartMonitor("127.0.0.1:0", "right")
	if err != nil {
		t.Fatal(err)
	}
	defer mon.Close()
	if _, err := ccs.Fetch(mon.Addr(), "wrong"); err == nil || !strings.Contains(err.Error(), "token") {
		t.Fatalf("Fetch with wrong token: err = %v, want token rejection", err)
	}
	if _, err := ccs.Fetch(mon.Addr(), "right"); err != nil {
		t.Fatalf("Fetch with right token: %v", err)
	}
}

// TestServersRejectBadToken: the per-process Monitor and the
// launcher-side Aggregate share one request reader, and both refuse a
// wrong token for either op before doing any work.
func TestServersRejectBadToken(t *testing.T) {
	mon, err := ccs.NewMonitor(ccs.Config{Addr: "127.0.0.1:0", Token: "t", NumPEs: 1,
		Sources: []ccs.Source{fakeSource{pe: 0}}})
	if err != nil {
		t.Fatal(err)
	}
	defer mon.Close()
	agg, err := ccs.ServeAggregate("127.0.0.1:0", "t", func() map[int]string { return map[int]string{0: mon.Addr()} })
	if err != nil {
		t.Fatal(err)
	}
	defer agg.Close()
	for _, srv := range []struct{ name, addr string }{{"monitor", mon.Addr()}, {"aggregate", agg.Addr()}} {
		if _, err := ccs.Fetch(srv.addr, "wrong"); err == nil || !strings.Contains(err.Error(), "bad token") {
			t.Errorf("%s snapshot with wrong token: err = %v, want token rejection", srv.name, err)
		}
		var buf bytes.Buffer
		if err := ccs.FetchProfile(srv.addr, "wrong", ccs.ProfileHeap, 0, 0, &buf); err == nil || !strings.Contains(err.Error(), "bad token") {
			t.Errorf("%s profile with wrong token: err = %v, want token rejection", srv.name, err)
		}
		if buf.Len() != 0 {
			t.Errorf("%s streamed %d profile bytes to a rejected client", srv.name, buf.Len())
		}
		if _, err := ccs.Fetch(srv.addr, "t"); err != nil {
			t.Errorf("%s snapshot with right token: %v", srv.name, err)
		}
	}
}

func TestHeapProfileRoundTrip(t *testing.T) {
	cm, release := startServing(t, 2, nil)
	defer release()
	mon, err := cm.StartMonitor("127.0.0.1:0", "")
	if err != nil {
		t.Fatal(err)
	}
	defer mon.Close()

	var buf bytes.Buffer
	if err := ccs.FetchProfile(mon.Addr(), "", ccs.ProfileHeap, 0, 0, &buf); err != nil {
		t.Fatal(err)
	}
	prof, err := ccs.ParseProfile(buf.Bytes())
	if err != nil {
		t.Fatalf("heap capture does not parse: %v", err)
	}
	if len(prof.SampleTypes) == 0 {
		t.Fatal("heap profile has no sample types")
	}
	// The standard heap profile carries alloc/inuse columns.
	joined := strings.Join(prof.SampleTypes, " ")
	if !strings.Contains(joined, "inuse_space") {
		t.Errorf("heap sample types %v missing inuse_space", prof.SampleTypes)
	}
}

func TestCPUProfileRoundTrip(t *testing.T) {
	cm, release := startServing(t, 2, nil)
	defer release()
	mon, err := cm.StartMonitor("127.0.0.1:0", "")
	if err != nil {
		t.Fatal(err)
	}
	defer mon.Close()

	var buf bytes.Buffer
	if err := ccs.FetchProfile(mon.Addr(), "", ccs.ProfileCPU, 0.2, 0, &buf); err != nil {
		t.Fatal(err)
	}
	prof, err := ccs.ParseProfile(buf.Bytes())
	if err != nil {
		t.Fatalf("cpu capture does not parse: %v", err)
	}
	if got := strings.Join(prof.SampleTypes, " "); !strings.Contains(got, "cpu") {
		t.Errorf("cpu sample types = %v, want a cpu column", prof.SampleTypes)
	}
	if prof.DurationNanos <= 0 {
		t.Errorf("cpu profile duration %d, want > 0", prof.DurationNanos)
	}
}

// fakeSource is a synthetic processor for aggregator tests.
type fakeSource struct{ pe int }

func (f fakeSource) PEID() int { return f.pe }
func (f fakeSource) Probe(time.Duration) (ccs.SchedState, bool) {
	return ccs.SchedState{QueueLen: f.pe * 10, Seq: 1}, true
}
func (f fakeSource) Blocked() string { return "running" }
func (f fakeSource) InboxLen() int   { return f.pe }

func TestAggregateMergesAndReportsMissing(t *testing.T) {
	// Two live per-rank endpoints plus one dead backend address.
	m0, err := ccs.NewMonitor(ccs.Config{Addr: "127.0.0.1:0", Token: "t", NumPEs: 3, Rank: 0,
		Sources: []ccs.Source{fakeSource{pe: 0}}})
	if err != nil {
		t.Fatal(err)
	}
	defer m0.Close()
	m1, err := ccs.NewMonitor(ccs.Config{Addr: "127.0.0.1:0", Token: "t", NumPEs: 3, Rank: 1,
		Sources: []ccs.Source{fakeSource{pe: 1}}})
	if err != nil {
		t.Fatal(err)
	}
	defer m1.Close()

	backends := func() map[int]string {
		return map[int]string{0: m0.Addr(), 1: m1.Addr(), 2: "127.0.0.1:1"}
	}
	agg, err := ccs.ServeAggregate("127.0.0.1:0", "t", backends)
	if err != nil {
		t.Fatal(err)
	}
	defer agg.Close()

	snap, err := ccs.Fetch(agg.Addr(), "t")
	if err != nil {
		t.Fatal(err)
	}
	if len(snap.PEs) != 2 {
		t.Fatalf("aggregate reached %d PEs, want 2", len(snap.PEs))
	}
	for i, v := range snap.PEs {
		if v.PE != i || v.Rank != i {
			t.Errorf("merged view %d: pe=%d rank=%d, want both %d (sorted, rank restamped)", i, v.PE, v.Rank, i)
		}
	}
	if len(snap.Missing) != 1 || snap.Missing[0] != 2 {
		t.Errorf("missing = %v, want [2]", snap.Missing)
	}

	// Profile proxying: a heap capture through the aggregate for rank 1
	// must come back as a valid profile.
	var buf bytes.Buffer
	if err := ccs.FetchProfile(agg.Addr(), "t", ccs.ProfileHeap, 0, 1, &buf); err != nil {
		t.Fatal(err)
	}
	if _, err := ccs.ParseProfile(buf.Bytes()); err != nil {
		t.Fatalf("proxied heap capture does not parse: %v", err)
	}
	// And an unknown rank is a clean error, not a hang.
	if err := ccs.FetchProfile(agg.Addr(), "t", ccs.ProfileHeap, 0, 9, &buf); err == nil {
		t.Error("profile for unknown rank succeeded, want error")
	}
}

func TestProfileShare(t *testing.T) {
	p := &ccs.Profile{
		SampleTypes: []string{"samples/count", "cpu/nanoseconds"},
		Samples: []ccs.ProfSample{
			{Stack: []string{"runtime.mallocgc", "core.(*Proc).dispatch", "core.(*Proc).Scheduler"}, Values: []int64{1, 30}},
			{Stack: []string{"main.compute"}, Values: []int64{1, 70}},
		},
	}
	if got := p.Share("core.(*Proc).Scheduler"); got != 0.3 {
		t.Errorf("Share(scheduler) = %v, want 0.3", got)
	}
	if got := p.Share("nosuchfunc"); got != 0 {
		t.Errorf("Share(nosuchfunc) = %v, want 0", got)
	}
	if got := p.Share("main.compute", "core."); got != 1.0 {
		t.Errorf("Share(both) = %v, want 1.0", got)
	}
}
