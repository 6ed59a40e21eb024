package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"strings"
	"testing"
	"time"

	"converse/internal/core"
)

func init() {
	// failrank fails its last PE at once; the others wait to be torn
	// down with the gang.
	RegisterWorkload("failrank", func(cm *core.Machine, _ json.RawMessage) (func(p *core.Proc), error) {
		return func(p *core.Proc) {
			if p.MyPe() == p.NumPes()-1 {
				panic("failrank: scripted rank failure")
			}
			p.Scheduler(-1)
		}, nil
	})
}

// FuzzCtrlEnvelope feeds the kCtrl envelope decoder — which reads every
// control frame a daemon session carries, in both directions — arbitrary
// bytes: it must never panic, and whatever it accepts must encode back
// to exactly the bytes it read.
func FuzzCtrlEnvelope(f *testing.F) {
	f.Add(append(ctrlEnv{kind: 1, attempt: 1, rank: 0, job: "pingpong-1a2b3c4d"}.head(), `{"round":1}`...))
	f.Add(ctrlEnv{kind: 6, attempt: 3, rank: 7}.head())
	f.Add([]byte{})
	f.Add([]byte{1, 0, 0, 0, 0, 0, 0, 0, 0, 0xff, 0xff, 0xff, 0xff})
	f.Fuzz(func(t *testing.T, p []byte) {
		e, frame, err := decodeCtrl(p)
		if err != nil {
			return
		}
		if again := append(e.head(), frame...); !bytes.Equal(again, p) {
			t.Fatalf("decoded %+v + %d payload bytes re-encode as %x, read %x", e, len(frame), again, p)
		}
	})
}

// TestJobStagesReported: a gang-2 job's record carries its slowest
// rank's stage times, each one positive, summing to no more than the
// job's runtime.
func TestJobStagesReported(t *testing.T) {
	g, _ := startCluster(t, 2, 1)
	c := &Client{Addr: g.Addr(), Token: "svc-test"}
	in, err := runWarmJob(c, "staged", 2)
	if err != nil {
		t.Fatal(err)
	}
	st := in.Stages
	if st == nil {
		t.Fatalf("done gang-2 job reports no stages: %+v", in)
	}
	for _, s := range []struct {
		name string
		ms   float64
	}{{"rendezvous", st.RendezvousMS}, {"mesh-up", st.MeshUpMS}, {"driver", st.DriverMS}, {"finish", st.FinishMS}} {
		if s.ms <= 0 {
			t.Errorf("%s stage %v ms, want > 0 (%+v)", s.name, s.ms, *st)
		}
	}
	if sum := st.total(); sum > in.RuntimeMS {
		t.Errorf("stages sum to %.3f ms, over the job's %.3f ms runtime (%+v)", sum, in.RuntimeMS, *st)
	}
}

// TestWarmJobsLeakNoSockets runs warm gang-2 jobs, one cancelled while
// its gang is in the rendezvous and one whose rank fails, and then finds
// the process holding no more file descriptors than after warm-up: a
// warm job binds nothing and every mesh link it opened is closed with
// its nodes.
func TestWarmJobsLeakNoSockets(t *testing.T) {
	if runtime.GOOS != "linux" {
		t.Skip("counts descriptors in /proc/self/fd")
	}
	g, ds := startCluster(t, 2, 1)
	c := &Client{Addr: g.Addr(), Token: "svc-test"}
	for i := 0; i < 3; i++ {
		if _, err := runWarmJob(c, "warmup", 2); err != nil {
			t.Fatal(err)
		}
	}
	waitDaemonsIdle(t, ds)
	base := openFDs(t)

	for i := 0; i < 50; i++ {
		if _, err := runWarmJob(c, fmt.Sprintf("warm%d", i), 2); err != nil {
			t.Fatalf("job %d: %v", i, err)
		}
	}

	// Hold rank 1 before its hello, so the gang cannot leave the
	// rendezvous, and cancel it there.
	entered, release := make(chan struct{}), make(chan struct{})
	for _, d := range ds {
		d.mu.Lock()
		d.holdRendezvous = func(a assignMsg) {
			if strings.HasPrefix(a.Job, "midrdv") && a.Rank == 1 {
				close(entered)
				<-release
			}
		}
		d.mu.Unlock()
	}
	id, err := c.Submit("midrdv", "pingpong", map[string]int{"iters": 20}, 2)
	if err != nil {
		t.Fatal(err)
	}
	select {
	case <-entered:
	case <-time.After(10 * time.Second):
		t.Fatal("rank 1 never reached its rendezvous")
	}
	err = c.Cancel(id)
	close(release)
	if err != nil {
		t.Fatalf("cancel: %v", err)
	}
	if in, err := c.WaitJob(id, 20*time.Second); err != nil || in.State != string(Cancelled) {
		t.Fatalf("job cancelled in the rendezvous: %+v, %v", in, err)
	}

	id, err = c.Submit("failing", "failrank", nil, 2)
	if err != nil {
		t.Fatal(err)
	}
	if in, err := c.WaitJob(id, 20*time.Second); err != nil || in.State != string(Failed) {
		t.Fatalf("job with a failing rank: %+v, %v", in, err)
	}

	waitDaemonsIdle(t, ds)
	if n := openFDs(t); n > base {
		t.Errorf("%d open descriptors after the jobs, %d after warm-up", n, base)
	}
}

// waitDaemonsIdle waits until no daemon holds a job: each rank leaves
// its daemon's table only after its node has closed.
func waitDaemonsIdle(t *testing.T, ds []*Daemon) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for _, d := range ds {
		for {
			d.mu.Lock()
			n := len(d.jobs)
			d.mu.Unlock()
			if n == 0 {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("daemon %s still holds %d jobs", d.Name(), n)
			}
			time.Sleep(time.Millisecond)
		}
	}
}

func openFDs(t *testing.T) int {
	t.Helper()
	fds, err := os.ReadDir("/proc/self/fd")
	if err != nil {
		t.Fatal(err)
	}
	return len(fds)
}
