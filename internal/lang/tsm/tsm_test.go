package tsm

import (
	"strings"
	"testing"
	"time"

	"converse/internal/core"
	"converse/internal/csync"
)

func newMachine(pes int) *core.Machine {
	return core.NewMachine(core.Config{PEs: pes, Watchdog: 15 * time.Second})
}

func TestThreadPingPongAcrossPEs(t *testing.T) {
	cm := newMachine(2)
	var got string
	err := cm.Run(func(p *core.Proc) {
		ts := Attach(p)
		if p.MyPe() == 0 {
			ts.Create(func() {
				ts.Send(1, 1, []byte("ping"))
				d, src, _ := ts.Recv(2)
				if src != 1 {
					t.Errorf("reply from %d", src)
				}
				got = string(d)
			})
		} else {
			ts.Create(func() {
				d, src, _ := ts.Recv(1)
				ts.Send(src, 2, append(d, []byte("/pong")...))
			})
		}
		ts.Run()
	})
	if err != nil {
		t.Fatal(err)
	}
	if got != "ping/pong" {
		t.Fatalf("got %q", got)
	}
}

func TestManyThreadsInterleave(t *testing.T) {
	// n threads on PE0 each converse with a partner thread on PE1;
	// all conversations interleave under one scheduler.
	const n = 20
	cm := newMachine(2)
	results := make([]int, n)
	err := cm.Run(func(p *core.Proc) {
		ts := Attach(p)
		if p.MyPe() == 0 {
			for i := 0; i < n; i++ {
				ts.Create(func() {
					ts.Send(1, 100+i, []byte{byte(i)})
					d, _, _ := ts.Recv(200 + i)
					results[i] = int(d[0])
				})
			}
		} else {
			for i := 0; i < n; i++ {
				ts.Create(func() {
					d, src, _ := ts.Recv(100 + i)
					ts.Send(src, 200+i, []byte{d[0] * 2})
				})
			}
		}
		ts.Run()
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range results {
		if r != i*2 {
			t.Fatalf("conversation %d result = %d, want %d", i, r, i*2)
		}
	}
}

func TestRecvWildcardThread(t *testing.T) {
	cm := newMachine(2)
	var tags []int
	err := cm.Run(func(p *core.Proc) {
		ts := Attach(p)
		if p.MyPe() == 1 {
			ts.Send(0, 5, nil)
			ts.Send(0, 6, nil)
			return
		}
		ts.Create(func() {
			for i := 0; i < 2; i++ {
				_, _, tag := ts.Recv(Wildcard)
				tags = append(tags, tag)
			}
		})
		ts.Run()
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(tags) != 2 || tags[0] != 5 || tags[1] != 6 {
		t.Fatalf("tags = %v", tags)
	}
}

func TestLocalThreadsConverse(t *testing.T) {
	// Two threads on the same PE exchange messages through the runtime.
	cm := newMachine(1)
	var log []string
	err := cm.Run(func(p *core.Proc) {
		ts := Attach(p)
		ts.Create(func() {
			d, _, _ := ts.Recv(1)
			log = append(log, "b-got-"+string(d))
			ts.Send(0, 2, []byte("resp"))
		})
		ts.Create(func() {
			log = append(log, "a-send")
			ts.Send(0, 1, []byte("req"))
			d, _, _ := ts.Recv(2)
			log = append(log, "a-got-"+string(d))
		})
		ts.Run()
	})
	if err != nil {
		t.Fatal(err)
	}
	want := "a-send,b-got-req,a-got-resp"
	if got := strings.Join(log, ","); got != want {
		t.Fatalf("log = %q, want %q", got, want)
	}
}

func TestRecvFromMainPanics(t *testing.T) {
	cm := newMachine(1)
	err := cm.Run(func(p *core.Proc) {
		Attach(p).Recv(1)
	})
	if err == nil || !strings.Contains(err.Error(), "outside a tSM thread") {
		t.Fatalf("err = %v", err)
	}
}

func TestMessageBeforeRecv(t *testing.T) {
	// The message arrives before the thread asks for it: it must be
	// parked in the message manager and found by the later Recv.
	cm := newMachine(2)
	var got string
	err := cm.Run(func(p *core.Proc) {
		ts := Attach(p)
		if p.MyPe() == 1 {
			ts.Send(0, 3, []byte("early"))
			return
		}
		// Let the message arrive and be parked first.
		p.Scheduler(1)
		ts.Create(func() {
			d, _, _ := ts.Recv(3)
			got = string(d)
		})
		ts.Run()
	})
	if err != nil {
		t.Fatal(err)
	}
	if got != "early" {
		t.Fatalf("got %q", got)
	}
}

func TestThreadsWithLocks(t *testing.T) {
	// tSM threads share a counter under a csync lock; the interleaving
	// through Recv suspensions must stay mutually exclusive.
	cm := newMachine(2)
	counter := 0
	err := cm.Run(func(p *core.Proc) {
		ts := Attach(p)
		if p.MyPe() == 1 {
			for i := 0; i < 10; i++ {
				ts.Send(0, i, nil)
			}
			return
		}
		l := csync.NewLock(ts.Threads())
		for i := 0; i < 10; i++ {
			ts.Create(func() {
				ts.Recv(i)
				l.Lock()
				v := counter
				ts.Threads().Yield() // adversarial: yield inside the critical section
				counter = v + 1
				if err := l.Unlock(); err != nil {
					t.Errorf("Unlock: %v", err)
				}
			})
		}
		ts.Run()
	})
	if err != nil {
		t.Fatal(err)
	}
	if counter != 10 {
		t.Fatalf("counter = %d, want 10 (lost updates)", counter)
	}
}

func TestLiveCountAndRun(t *testing.T) {
	cm := newMachine(1)
	err := cm.Run(func(p *core.Proc) {
		ts := Attach(p)
		if ts.Live() != 0 {
			t.Errorf("Live = %d initially", ts.Live())
		}
		ts.Create(func() {})
		ts.Create(func() {})
		if ts.Live() != 2 {
			t.Errorf("Live = %d after 2 creates", ts.Live())
		}
		ts.Run()
		if ts.Live() != 0 {
			t.Errorf("Live = %d after Run", ts.Live())
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestNegativeTagPanics(t *testing.T) {
	cm := newMachine(1)
	err := cm.Run(func(p *core.Proc) {
		Attach(p).Send(0, -2, nil)
	})
	if err == nil {
		t.Fatal("negative tag did not error")
	}
}

// TestTagAliasingPanics: tags outside [0, 1<<30) are refused rather
// than truncated to 32 bits, where 1<<32 would arrive as tag 0.
func TestTagAliasingPanics(t *testing.T) {
	for _, tag := range []int{1 << 32, 1<<32 + 5, 1 << 30} {
		cm := newMachine(1)
		err := cm.Run(func(p *core.Proc) {
			Attach(p).Send(0, tag, []byte("big"))
		})
		if err == nil {
			t.Errorf("Send with tag %#x did not error", tag)
		}
	}
}

func TestTreeOfThreadsAcrossPEs(t *testing.T) {
	// The paper's FMA sketch: cell logic as threads communicating along
	// tree edges. A 7-node binary tree spread over 4 PEs computes a
	// bottom-up sum.
	const pes = 4
	cm := newMachine(pes)
	var result int
	err := cm.Run(func(p *core.Proc) {
		ts := Attach(p)
		// Node i lives on PE i%pes; children of i are 2i+1, 2i+2.
		for node := 0; node < 7; node++ {
			if node%pes != p.MyPe() {
				continue
			}
			ts.Create(func() {
				sum := node + 1 // node's own value
				if 2*node+1 < 7 {
					for c := 0; c < 2; c++ {
						d, _, _ := ts.Recv(10 + node)
						sum += int(d[0])
					}
				}
				if node == 0 {
					result = sum
					return
				}
				parent := (node - 1) / 2
				ts.Send(parent%pes, 10+parent, []byte{byte(sum)})
			})
		}
		ts.Run()
	})
	if err != nil {
		t.Fatal(err)
	}
	if result != 28 { // 1+2+...+7
		t.Fatalf("tree sum = %d, want 28", result)
	}
}
