package mdt

import (
	"os"
	"strings"
	"testing"
	"time"

	"converse/internal/core"
)

func newMachine(pes int) *core.Machine {
	return core.NewMachine(core.Config{PEs: pes, Watchdog: 15 * time.Second})
}

func TestPingPong(t *testing.T) {
	cm := newMachine(2)
	var got string
	err := cm.Run(func(p *core.Proc) {
		m := Attach(p)
		if p.MyPe() == 0 {
			m.CreateThread(func() {
				m.Send(1, 1, []byte("hi"))
				got = string(m.Recv(2))
			})
		} else {
			m.CreateThread(func() {
				d := m.Recv(1)
				m.Send(0, 2, append(d, '!'))
			})
		}
		m.Run()
	})
	if err != nil {
		t.Fatal(err)
	}
	if got != "hi!" {
		t.Fatalf("got %q", got)
	}
}

func TestDynamicThreadCreation(t *testing.T) {
	// A thread creates more threads; all converse by tag.
	cm := newMachine(1)
	total := 0
	err := cm.Run(func(p *core.Proc) {
		m := Attach(p)
		m.CreateThread(func() {
			for i := 0; i < 5; i++ {
				m.CreateThread(func() {
					m.Send(0, 100, []byte{byte(i)})
				})
			}
			for i := 0; i < 5; i++ {
				d := m.Recv(100)
				total += int(d[0]) + 1
			}
		})
		m.Run()
	})
	if err != nil {
		t.Fatal(err)
	}
	if total != 15 {
		t.Fatalf("total = %d, want 15", total)
	}
}

func TestManyBlockedTagsInterleave(t *testing.T) {
	const n = 10
	cm := newMachine(2)
	sum := 0
	err := cm.Run(func(p *core.Proc) {
		m := Attach(p)
		if p.MyPe() == 0 {
			for i := 0; i < n; i++ {
				m.CreateThread(func() {
					d := m.Recv(10 + i)
					sum += int(d[0])
				})
			}
		} else {
			m.CreateThread(func() {
				// Deliver in reverse tag order to force buffering paths.
				for i := n - 1; i >= 0; i-- {
					m.Send(0, 10+i, []byte{byte(i)})
				}
			})
		}
		m.Run()
	})
	if err != nil {
		t.Fatal(err)
	}
	if sum != n*(n-1)/2 {
		t.Fatalf("sum = %d, want %d", sum, n*(n-1)/2)
	}
}

func TestMessageBeforeThread(t *testing.T) {
	cm := newMachine(2)
	var got byte
	err := cm.Run(func(p *core.Proc) {
		m := Attach(p)
		if p.MyPe() == 1 {
			m.Send(0, 5, []byte{9})
			return
		}
		p.Scheduler(1) // park the message first
		m.CreateThread(func() { got = m.Recv(5)[0] })
		m.Run()
	})
	if err != nil {
		t.Fatal(err)
	}
	if got != 9 {
		t.Fatalf("got %d", got)
	}
}

// TestBadTagPanics: tags outside [0, 1<<30) are refused. -1 would
// otherwise be stored as 0xFFFFFFFF, and 1<<32 would alias tag 0.
func TestBadTagPanics(t *testing.T) {
	for _, tag := range []int{-1, 1 << 32, 1 << 30} {
		cm := newMachine(1)
		err := cm.Run(func(p *core.Proc) {
			Attach(p).Send(0, tag, []byte("x"))
		})
		if err == nil {
			t.Errorf("Send with tag %d did not error", tag)
		}
	}
}

// TestRuntimeIsAboutAHundredLines verifies the paper's §4 claim holds
// for this implementation too: the entire runtime (mdt.go) is on the
// order of 100 lines.
func TestRuntimeIsAboutAHundredLines(t *testing.T) {
	src, err := os.ReadFile("mdt.go")
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(string(src), "\n")
	code := 0
	for _, l := range lines {
		trimmed := strings.TrimSpace(l)
		if trimmed == "" || strings.HasPrefix(trimmed, "//") {
			continue
		}
		code++
	}
	if code > 120 {
		t.Fatalf("mdt runtime is %d code lines; the paper's point is ~100", code)
	}
	if code < 40 {
		t.Fatalf("mdt runtime is only %d code lines; suspiciously empty", code)
	}
}
