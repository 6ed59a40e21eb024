package nx

import (
	"sync/atomic"
	"testing"
	"time"

	"converse/internal/core"
)

func newMachine(pes int) *core.Machine {
	return core.NewMachine(core.Config{PEs: pes, Watchdog: 15 * time.Second})
}

func TestCsendCrecv(t *testing.T) {
	cm := newMachine(2)
	err := cm.Run(func(p *core.Proc) {
		x := Attach(p)
		if x.Mynode() == 0 {
			x.Csend(5, []byte("hello"), 1)
			buf := make([]byte, 16)
			n := x.Crecv(6, buf)
			if n != 5 || string(buf[:n]) != "world" {
				t.Errorf("Crecv = %d %q", n, buf[:n])
			}
			return
		}
		buf := make([]byte, 16)
		n := x.Crecv(5, buf)
		if n != 5 || string(buf[:n]) != "hello" {
			t.Errorf("Crecv = %d %q", n, buf[:n])
		}
		x.Csend(6, []byte("world"), 0)
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestInfoCalls(t *testing.T) {
	cm := newMachine(3)
	err := cm.Run(func(p *core.Proc) {
		x := Attach(p)
		if x.Mynode() == 2 {
			x.Csend(9, []byte("abcdefg"), 0)
			return
		}
		if x.Mynode() != 0 {
			return
		}
		buf := make([]byte, 32)
		x.Crecv(AnyType, buf)
		if x.Infotype() != 9 || x.Infocount() != 7 || x.Infonode() != 2 {
			t.Errorf("info = %d,%d,%d; want 9,7,2", x.Infotype(), x.Infocount(), x.Infonode())
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestCrecvBuffersByType(t *testing.T) {
	cm := newMachine(2)
	err := cm.Run(func(p *core.Proc) {
		x := Attach(p)
		if x.Mynode() == 0 {
			x.Csend(1, []byte("a"), 1)
			x.Csend(2, []byte("b"), 1)
			return
		}
		buf := make([]byte, 4)
		x.Crecv(2, buf) // must buffer type 1
		if buf[0] != 'b' {
			t.Errorf("Crecv(2) got %q", buf[0])
		}
		x.Crecv(1, buf)
		if buf[0] != 'a' {
			t.Errorf("Crecv(1) got %q", buf[0])
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestIsendMsgwait(t *testing.T) {
	cm := newMachine(2)
	err := cm.Run(func(p *core.Proc) {
		x := Attach(p)
		if x.Mynode() == 0 {
			h := x.Isend(3, []byte("async"), 1)
			x.Msgwait(h)
			return
		}
		buf := make([]byte, 8)
		if n := x.Crecv(3, buf); string(buf[:n]) != "async" {
			t.Errorf("got %q", buf[:n])
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestIrecvCompletesLater(t *testing.T) {
	cm := newMachine(2)
	err := cm.Run(func(p *core.Proc) {
		x := Attach(p)
		if x.Mynode() == 1 {
			x.Csend(7, []byte("posted"), 0)
			return
		}
		buf := make([]byte, 8)
		r := x.Irecv(7, buf)
		x.MsgwaitRecv(r)
		if !r.Done() || r.Count() != 6 || r.Node() != 1 || r.Type() != 7 {
			t.Errorf("recv info = %v %d %d %d", r.Done(), r.Count(), r.Node(), r.Type())
		}
		if string(buf[:r.Count()]) != "posted" {
			t.Errorf("buf = %q", buf[:r.Count()])
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestIrecvSatisfiedFromBuffered(t *testing.T) {
	cm := newMachine(2)
	err := cm.Run(func(p *core.Proc) {
		x := Attach(p)
		if x.Mynode() == 1 {
			x.Csend(4, []byte("early"), 0)
			x.Csend(5, []byte("gate"), 0)
			return
		}
		// Wait for the gate first, burying type 4 in the manager.
		buf := make([]byte, 8)
		x.Crecv(5, buf)
		r := x.Irecv(4, buf)
		if !r.Done() {
			t.Error("Irecv should complete immediately from buffered message")
		}
		if string(buf[:r.Count()]) != "early" {
			t.Errorf("buf = %q", buf[:r.Count()])
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestIprobe(t *testing.T) {
	cm := newMachine(2)
	err := cm.Run(func(p *core.Proc) {
		x := Attach(p)
		if x.Mynode() == 0 {
			if x.Iprobe(1) {
				t.Error("Iprobe matched on empty system")
			}
			x.Csend(1, []byte("x"), 1)
			buf := make([]byte, 4)
			x.Crecv(2, buf) // ack
			return
		}
		for !x.Iprobe(1) {
		}
		buf := make([]byte, 4)
		x.Crecv(1, buf)
		x.Csend(2, nil, 0)
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestGsync(t *testing.T) {
	const pes = 4
	cm := newMachine(pes)
	var before int64
	err := cm.Run(func(p *core.Proc) {
		x := Attach(p)
		atomic.AddInt64(&before, 1)
		x.Gsync()
		if n := atomic.LoadInt64(&before); n != pes {
			t.Errorf("node %d passed gsync with %d arrivals", x.Mynode(), n)
		}
		x.Gsync() // reusable
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestIrecvCompletedDuringGsync: a message matching a posted irecv that
// is dispatched while Gsync serves the scheduler must complete the
// irecv. On two PEs node 0 releases node 1 directly, so per-pair FIFO
// delivers the message before the second release.
func TestIrecvCompletedDuringGsync(t *testing.T) {
	cm := newMachine(2)
	err := cm.Run(func(p *core.Proc) {
		x := Attach(p)
		if x.Mynode() == 0 {
			x.Gsync()
			x.Csend(5, []byte("during"), 1)
			x.Gsync()
			return
		}
		buf := make([]byte, 8)
		r := x.Irecv(5, buf)
		x.Gsync()
		x.Gsync()
		x.MsgwaitRecv(r)
		if string(buf[:r.Count()]) != "during" || r.Node() != 0 {
			t.Errorf("irecv got %q from %d", buf[:r.Count()], r.Node())
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestTruncatingCrecv(t *testing.T) {
	cm := newMachine(2)
	err := cm.Run(func(p *core.Proc) {
		x := Attach(p)
		if x.Mynode() == 0 {
			x.Csend(1, []byte("longmessage"), 1)
			return
		}
		buf := make([]byte, 4)
		n := x.Crecv(1, buf)
		if n != 4 || string(buf) != "long" {
			t.Errorf("truncating recv = %d %q", n, buf)
		}
		// infocount reports the full length, like NX.
		if x.Infocount() != 11 {
			t.Errorf("Infocount = %d, want 11", x.Infocount())
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestBadTypePanics(t *testing.T) {
	cm := newMachine(1)
	err := cm.Run(func(p *core.Proc) {
		Attach(p).Csend(-1, nil, 0)
	})
	if err == nil {
		t.Fatal("negative type did not error")
	}
}
