package sm

import (
	"fmt"
	"sync/atomic"
	"testing"
	"testing/quick"
	"time"

	"converse/internal/core"
)

func newMachine(pes int) *core.Machine {
	return core.NewMachine(core.Config{PEs: pes, Watchdog: 15 * time.Second})
}

func TestSendRecvBasic(t *testing.T) {
	cm := newMachine(2)
	err := cm.Run(func(p *core.Proc) {
		s := Attach(p)
		if p.MyPe() == 0 {
			s.Send(1, 5, []byte("hello"))
			data, src, tag := s.Recv(6)
			if string(data) != "world" || src != 1 || tag != 6 {
				t.Errorf("Recv = %q,%d,%d", data, src, tag)
			}
			return
		}
		data, src, tag := s.Recv(5)
		if string(data) != "hello" || src != 0 || tag != 5 {
			t.Errorf("Recv = %q,%d,%d", data, src, tag)
		}
		s.Send(0, 6, []byte("world"))
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestRecvBuffersWrongTags(t *testing.T) {
	cm := newMachine(2)
	err := cm.Run(func(p *core.Proc) {
		s := Attach(p)
		if p.MyPe() == 0 {
			s.Send(1, 1, []byte("first"))
			s.Send(1, 2, []byte("second"))
			s.Send(1, 3, []byte("third"))
			return
		}
		// Receive out of order: the layer must buffer tags 1 and 2.
		d3, _, _ := s.Recv(3)
		d1, _, _ := s.Recv(1)
		d2, _, _ := s.Recv(2)
		if string(d1) != "first" || string(d2) != "second" || string(d3) != "third" {
			t.Errorf("got %q %q %q", d1, d2, d3)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestRecvWildcard(t *testing.T) {
	cm := newMachine(2)
	err := cm.Run(func(p *core.Proc) {
		s := Attach(p)
		if p.MyPe() == 0 {
			s.Send(1, 9, []byte("any"))
			return
		}
		data, src, tag := s.Recv(Wildcard)
		if string(data) != "any" || src != 0 || tag != 9 {
			t.Errorf("Recv(*) = %q,%d,%d", data, src, tag)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestRecvFrom(t *testing.T) {
	cm := newMachine(3)
	err := cm.Run(func(p *core.Proc) {
		s := Attach(p)
		switch p.MyPe() {
		case 1, 2:
			s.Send(0, 7, []byte{byte(p.MyPe())})
		case 0:
			// Receive specifically from PE2 first, then PE1.
			d2, _ := s.RecvFrom(2, 7)
			d1, _ := s.RecvFrom(1, 7)
			if d2[0] != 2 || d1[0] != 1 {
				t.Errorf("RecvFrom order wrong: %v %v", d2, d1)
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestProbe(t *testing.T) {
	cm := newMachine(2)
	err := cm.Run(func(p *core.Proc) {
		s := Attach(p)
		if p.MyPe() == 0 {
			s.Send(1, 4, []byte("abcdef"))
			s.Recv(99) // wait for ack so the probe below is deterministic
			return
		}
		// Wait until the message is actually here.
		for {
			if size, tag, ok := s.Probe(4); ok {
				if size != 6 || tag != 4 {
					t.Errorf("Probe = %d,%d", size, tag)
				}
				break
			}
		}
		if _, _, ok := s.Probe(5); ok {
			t.Error("Probe(5) matched")
		}
		// The probed message is still receivable.
		if d, _, _ := s.Recv(4); string(d) != "abcdef" {
			t.Errorf("Recv after Probe = %q", d)
		}
		s.Send(0, 99, nil)
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestBroadcast(t *testing.T) {
	const pes = 5
	cm := newMachine(pes)
	err := cm.Run(func(p *core.Proc) {
		s := Attach(p)
		if p.MyPe() == 2 {
			s.Broadcast(11, []byte("fanout"))
			return
		}
		d, src, _ := s.Recv(11)
		if string(d) != "fanout" || src != 2 {
			t.Errorf("pe %d: got %q from %d", p.MyPe(), d, src)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestBarrierOrdering(t *testing.T) {
	const pes = 4
	cm := newMachine(pes)
	var before, after int64
	err := cm.Run(func(p *core.Proc) {
		s := Attach(p)
		atomic.AddInt64(&before, 1)
		s.Barrier()
		// Every PE must observe all arrivals before anyone proceeds.
		if n := atomic.LoadInt64(&before); n != pes {
			t.Errorf("pe %d passed barrier with only %d arrivals", p.MyPe(), n)
		}
		atomic.AddInt64(&after, 1)
		s.Barrier()
		if n := atomic.LoadInt64(&after); n != pes {
			t.Errorf("pe %d passed 2nd barrier with only %d", p.MyPe(), n)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestBarrierManyRounds(t *testing.T) {
	const pes = 3
	cm := newMachine(pes)
	err := cm.Run(func(p *core.Proc) {
		s := Attach(p)
		for round := 0; round < 50; round++ {
			s.Barrier()
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestBarrierParksEarlyMessages: an SM message dispatched while Barrier
// serves the scheduler is parked, not lost, and a later Recv gets it.
// On two PEs, PE 0 releases PE 1 directly, so per-pair FIFO delivers
// the message inside PE 1's second barrier.
func TestBarrierParksEarlyMessages(t *testing.T) {
	cm := newMachine(2)
	err := cm.Run(func(p *core.Proc) {
		s := Attach(p)
		s.Barrier()
		if p.MyPe() == 0 {
			s.Send(1, 4, []byte("early"))
		}
		s.Barrier()
		if p.MyPe() == 1 {
			if d, src, tag := s.Recv(4); string(d) != "early" || src != 0 || tag != 4 {
				t.Errorf("Recv = %q from %d tag %d", d, src, tag)
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestTagRangeValidation(t *testing.T) {
	cm := newMachine(1)
	err := cm.Run(func(p *core.Proc) {
		Attach(p).Send(0, -1, nil)
	})
	if err == nil {
		t.Fatal("negative tag did not error")
	}
}

func TestAttachIdempotent(t *testing.T) {
	cm := newMachine(1)
	err := cm.Run(func(p *core.Proc) {
		if Attach(p) != Attach(p) {
			t.Error("Attach not idempotent")
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestSPMRing: the classic SPMD ring program — each PE sends to its
// right neighbor and receives from the left, accumulating a token.
func TestSPMRing(t *testing.T) {
	const pes = 6
	cm := newMachine(pes)
	var total int
	err := cm.Run(func(p *core.Proc) {
		s := Attach(p)
		me, n := p.MyPe(), p.NumPes()
		right := (me + 1) % n
		if me == 0 {
			s.Send(right, 1, []byte{1})
			d, _, _ := s.Recv(1)
			total = int(d[0])
			return
		}
		d, _, _ := s.Recv(1)
		s.Send(right, 1, []byte{d[0] + 1})
	})
	if err != nil {
		t.Fatal(err)
	}
	if total != pes {
		t.Fatalf("ring token = %d, want %d", total, pes)
	}
}

// TestInterleavedWithScheduler: an SPM module explicitly yields cycles
// to the scheduler (the §2.2 explicit control regime interacting with
// message-driven code), and parked SM messages survive it.
func TestInterleavedWithScheduler(t *testing.T) {
	cm := newMachine(2)
	var handled int32
	h := cm.RegisterHandler(func(p *core.Proc, msg []byte) {
		atomic.AddInt32(&handled, 1)
	})
	err := cm.Run(func(p *core.Proc) {
		s := Attach(p)
		if p.MyPe() == 0 {
			// Message-driven traffic and SM traffic interleaved.
			p.SyncSendAndFree(1, core.NewMsg(h, 0))
			s.Send(1, 1, []byte("sm-data"))
			p.SyncSendAndFree(1, core.NewMsg(h, 0))
			return
		}
		d, _, _ := s.Recv(1) // buffers the two handler messages
		if string(d) != "sm-data" {
			t.Errorf("Recv = %q", d)
		}
		p.Scheduler(2) // now grant the buffered messages their handlers
		if atomic.LoadInt32(&handled) != 2 {
			t.Errorf("handled = %d, want 2", handled)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func ExampleSM_usage() {
	cm := core.NewMachine(core.Config{PEs: 2, Watchdog: 10 * time.Second})
	out := make(chan string, 1)
	_ = cm.Run(func(p *core.Proc) {
		s := Attach(p)
		if p.MyPe() == 0 {
			s.Send(1, 42, []byte("ping"))
			d, _, _ := s.Recv(43)
			out <- string(d)
			return
		}
		d, src, _ := s.Recv(42)
		s.Send(src, 43, append(d, []byte("/pong")...))
	})
	fmt.Println(<-out)
	// Output: ping/pong
}

// TestPerTagFIFOProperty: for any sequence of (tag, value) sends between
// a fixed pair, receives by tag return values in per-tag send order.
func TestPerTagFIFOProperty(t *testing.T) {
	f := func(seq []uint8) bool {
		cm := newMachine(2)
		ok := true
		err := cm.Run(func(p *core.Proc) {
			s := Attach(p)
			if p.MyPe() == 0 {
				for i, v := range seq {
					s.Send(1, int(v%4), []byte{byte(i)})
				}
				return
			}
			// Receive tag by tag; each tag's stream must be in order.
			byTag := map[int][]byte{}
			for _, v := range seq {
				byTag[int(v%4)] = nil
			}
			for tag := range byTag {
				count := 0
				for _, v := range seq {
					if int(v%4) == tag {
						count++
					}
				}
				last := -1
				for i := 0; i < count; i++ {
					d, _, _ := s.Recv(tag)
					if int(d[0]) <= last {
						ok = false
						return
					}
					last = int(d[0])
				}
			}
		})
		return err == nil && ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Fatal(err)
	}
}

func TestZeroLengthSM(t *testing.T) {
	cm := newMachine(2)
	err := cm.Run(func(p *core.Proc) {
		s := Attach(p)
		if p.MyPe() == 0 {
			s.Send(1, 1, nil)
			return
		}
		d, src, tag := s.Recv(1)
		if len(d) != 0 || src != 0 || tag != 1 {
			t.Errorf("zero-length recv = %v,%d,%d", d, src, tag)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestLargeMessageSM(t *testing.T) {
	cm := newMachine(2)
	const size = 1 << 18 // 256 KB
	err := cm.Run(func(p *core.Proc) {
		s := Attach(p)
		if p.MyPe() == 0 {
			big := make([]byte, size)
			for i := range big {
				big[i] = byte(i * 7)
			}
			s.Send(1, 2, big)
			return
		}
		d, _, _ := s.Recv(2)
		if len(d) != size {
			t.Fatalf("len = %d", len(d))
		}
		for i := 0; i < size; i += 1013 {
			if d[i] != byte(i*7) {
				t.Fatalf("corruption at %d", i)
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}
