package mnet

import (
	"bytes"
	"fmt"
	"log"
	"os"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"
)

// The process-level tests re-execute the test binary as worker
// processes: TestMain diverts to workerMain when the launcher-spawned
// environment carries the worker-mode variable.
const (
	envWorkerMode = "MNET_TEST_WORKER"
	envDieRank    = "MNET_TEST_DIE_RANK"
)

func TestMain(m *testing.M) {
	if mode := os.Getenv(envWorkerMode); mode != "" {
		workerMain(mode)
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// workerMain is the worker side of the process-level tests: a tiny
// Converse-less program speaking the machine layer directly.
func workerMain(mode string) {
	np, _ := strconv.Atoi(os.Getenv(EnvNP))
	n, err := JoinFromEnv(np)
	if err != nil {
		log.Fatalf("worker join: %v", err)
	}
	if err := n.Start(); err != nil {
		log.Fatalf("worker start: %v", err)
	}
	pe := n.lpes[0]
	rank := pe.ID()
	switch mode {
	case "echo":
		// Rank 0 pings every peer and awaits the echoes; peers echo.
		if rank == 0 {
			for j := 1; j < np; j++ {
				pe.SendOwned(j, []byte(fmt.Sprintf("ping %d", j)))
			}
			for j := 1; j < np; j++ {
				pkt, ok := pe.Recv()
				if !ok {
					log.Fatal("rank 0: stopped before all echoes arrived")
				}
				want := fmt.Sprintf("echo from %d", pkt.Src)
				if string(pkt.Data) != want {
					log.Fatalf("rank 0: got %q from %d, want %q", pkt.Data, pkt.Src, want)
				}
			}
		} else {
			pkt, ok := pe.Recv()
			if !ok || string(pkt.Data) != fmt.Sprintf("ping %d", rank) {
				log.Fatalf("rank %d: bad ping %q (ok=%v)", rank, pkt.Data, ok)
			}
			pe.SendOwned(0, []byte(fmt.Sprintf("echo from %d", rank)))
		}
		pe.Printf("console from rank %d\n", rank)
	case "die":
		// One rank exits abruptly mid-run; the rest wait for messages
		// that will never come. The job must fail fast, not hang.
		dieRank, _ := strconv.Atoi(os.Getenv(envDieRank))
		if rank == dieRank {
			time.Sleep(200 * time.Millisecond)
			os.Exit(3)
		}
		if _, ok := pe.Recv(); !ok {
			os.Exit(4) // stopped by the peer-death failure, as expected
		}
	default:
		log.Fatalf("unknown worker mode %q", mode)
	}
	if err := n.Finish(); err != nil {
		log.Fatalf("worker finish: %v", err)
	}
}

// syncBuffer serializes concurrent writes from the job server's console
// and stream forwarders.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

func launchSelf(t *testing.T, np int, mode string, extraEnv map[string]string) (error, *syncBuffer) {
	t.Helper()
	exe, err := os.Executable()
	if err != nil {
		t.Fatalf("locating test binary: %v", err)
	}
	t.Setenv(envWorkerMode, mode)
	for k, v := range extraEnv {
		t.Setenv(k, v)
	}
	var out syncBuffer
	err = Launch(LaunchConfig{
		NP: np, Prog: exe,
		Timeout:   60 * time.Second,
		Heartbeat: 200 * time.Millisecond,
		Stdout:    &out, Stderr: &out,
	})
	return err, &out
}

func TestLaunchEcho(t *testing.T) {
	err, out := launchSelf(t, 3, "echo", nil)
	if err != nil {
		t.Fatalf("echo job failed: %v\noutput:\n%s", err, out)
	}
	// CmiPrintf forwarding: every rank's console line reaches the
	// launcher's stdout.
	for rank := 0; rank < 3; rank++ {
		want := fmt.Sprintf("console from rank %d", rank)
		if !strings.Contains(out.String(), want) {
			t.Errorf("launcher output missing %q:\n%s", want, out)
		}
	}
}

func TestLaunchWorkerDeathFailsJob(t *testing.T) {
	startAt := time.Now()
	err, out := launchSelf(t, 3, "die", map[string]string{envDieRank: "1"})
	elapsed := time.Since(startAt)
	if err == nil {
		t.Fatalf("job with a dying worker succeeded\noutput:\n%s", out)
	}
	// The dying worker exits ~200ms in; EOF detection means the whole
	// job must be dead well inside a few heartbeat allowances.
	if elapsed > 10*time.Second {
		t.Errorf("job took %v to fail, want fast failure", elapsed)
	}
}

func TestLaunchBadBinary(t *testing.T) {
	err := Launch(LaunchConfig{NP: 2, Prog: "/nonexistent/worker/binary", Timeout: 10 * time.Second})
	if err == nil {
		t.Fatal("launching a nonexistent binary succeeded")
	}
}
