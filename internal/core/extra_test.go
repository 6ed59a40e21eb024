package core

import (
	"bytes"
	"testing"
	"testing/quick"
	"time"

	"converse/internal/netmodel"
)

// TestVectorSendReassemblyProperty: for any list of pieces, the
// gathered message's payload is their concatenation.
func TestVectorSendReassemblyProperty(t *testing.T) {
	f := func(pieces [][]byte) bool {
		cm := newTestMachine(1)
		var got []byte
		h := cm.RegisterHandler(func(p *Proc, msg []byte) {
			got = append([]byte(nil), Payload(msg)...)
			p.ExitScheduler()
		})
		err := cm.Run(func(p *Proc) {
			p.VectorSend(0, h, pieces...)
			p.Scheduler(-1)
		})
		if err != nil {
			return false
		}
		var want []byte
		for _, piece := range pieces {
			want = append(want, piece...)
		}
		return bytes.Equal(got, want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestTimerMonotonic(t *testing.T) {
	cm := NewMachine(Config{PEs: 2, Model: netmodel.T3D(), Watchdog: 10 * time.Second})
	h := cm.RegisterHandler(func(p *Proc, msg []byte) {})
	err := cm.Run(func(p *Proc) {
		last := p.Timer()
		if last != p.TimerUs()/1e6 {
			t.Error("Timer/TimerUs inconsistent")
		}
		for i := 0; i < 50; i++ {
			if p.MyPe() == 0 {
				p.SyncSend(1, NewMsg(h, 100))
			} else {
				p.GetSpecificMsg(h)
			}
			if now := p.Timer(); now < last {
				t.Fatalf("timer went backwards: %v -> %v", last, now)
			} else {
				last = now
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestSelfSendThroughScheduler(t *testing.T) {
	cm := newTestMachine(1)
	got := 0
	var h int
	h = cm.RegisterHandler(func(p *Proc, msg []byte) {
		got++
		if got < 5 {
			p.SyncSend(p.MyPe(), MakeMsg(h, nil)) // self-send chain
		} else {
			p.ExitScheduler()
		}
	})
	err := cm.Run(func(p *Proc) {
		p.SyncSend(0, MakeMsg(h, nil))
		p.Scheduler(-1)
	})
	if err != nil {
		t.Fatal(err)
	}
	if got != 5 {
		t.Fatalf("got %d", got)
	}
}

func TestServeUntilStopPanics(t *testing.T) {
	cm := NewMachine(Config{PEs: 1, Watchdog: 200 * time.Millisecond})
	err := cm.Run(func(p *Proc) {
		p.ServeUntil(func() bool { return false })
	})
	if err == nil {
		t.Fatal("ServeUntil survived machine stop")
	}
}

func TestBroadcastOnSinglePE(t *testing.T) {
	cm := newTestMachine(1)
	n := 0
	h := cm.RegisterHandler(func(p *Proc, msg []byte) { n++ })
	err := cm.Run(func(p *Proc) {
		p.SyncBroadcast(MakeMsg(h, nil))    // no peers: nothing sent
		p.SyncBroadcastAll(MakeMsg(h, nil)) // delivers only to self
		p.ScheduleUntilIdle()
	})
	if err != nil {
		t.Fatal(err)
	}
	if n != 1 {
		t.Fatalf("handled %d, want 1", n)
	}
}

func TestDeliverMsgsBudget(t *testing.T) {
	cm := newTestMachine(1)
	n := 0
	h := cm.RegisterHandler(func(p *Proc, msg []byte) { n++ })
	err := cm.Run(func(p *Proc) {
		for i := 0; i < 6; i++ {
			p.SyncSend(0, MakeMsg(h, nil))
		}
		if got := p.DeliverMsgs(2); got != 2 || n != 2 {
			t.Errorf("DeliverMsgs(2) = %d, handled %d", got, n)
		}
		if got := p.DeliverMsgs(-1); got != 4 || n != 6 {
			t.Errorf("DeliverMsgs(-1) = %d, handled %d", got, n)
		}
		if got := p.DeliverMsgs(-1); got != 0 {
			t.Errorf("empty DeliverMsgs = %d", got)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestAllocReusesLargestFit(t *testing.T) {
	cm := newTestMachine(1)
	err := cm.Run(func(p *Proc) {
		h := p.RegisterHandler(func(p *Proc, msg []byte) {})
		// Recycle two buffers of different sizes.
		p.SyncSend(0, NewMsg(h, 100))
		p.SyncSend(0, NewMsg(h, 10))
		p.Scheduler(2)
		small := p.Alloc(5) // must reuse one of them
		if cap(small) < HeaderSize+5 {
			t.Error("Alloc returned too-small buffer")
		}
		if len(small) != HeaderSize+5 {
			t.Errorf("Alloc length = %d", len(small))
		}
		if HandlerOf(small) != 0 || FlagsOf(small) != 0 {
			t.Error("Alloc did not reset the header")
		}
		big := p.Alloc(4096) // nothing big enough: fresh allocation
		if len(big) != HeaderSize+4096 {
			t.Errorf("big Alloc length = %d", len(big))
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestPoolBounded(t *testing.T) {
	cm := newTestMachine(1)
	h := cm.RegisterHandler(func(p *Proc, msg []byte) {})
	err := cm.Run(func(p *Proc) {
		// Recycle far more buffers than the pool retains; it must not
		// grow unboundedly (white-box: per-class cap is poolClassCap).
		// All sends go out before any dispatch recycles, so all 500
		// buffers come back to the pool in one burst.
		for i := 0; i < 500; i++ {
			msg := p.Alloc(100)
			SetHandler(msg, h)
			p.SyncSendAndFree(0, msg)
		}
		p.Scheduler(500)
		if n := p.pool.poolLen(); n > len(p.pool.classes)*poolClassCap {
			t.Errorf("pool grew to %d", n)
		}
		for ci, cls := range p.pool.classes {
			if len(cls) > poolClassCap {
				t.Errorf("class %d grew to %d buffers", ci, len(cls))
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestZeroLengthPayload(t *testing.T) {
	cm := newTestMachine(2)
	ok := false
	h := cm.RegisterHandler(func(p *Proc, msg []byte) {
		ok = len(Payload(msg)) == 0
		p.ExitScheduler()
	})
	err := cm.Run(func(p *Proc) {
		if p.MyPe() == 0 {
			p.SyncSendAndFree(1, NewMsg(h, 0))
			return
		}
		p.Scheduler(-1)
	})
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Fatal("zero-length payload mangled")
	}
}

func TestImmediateDispatchedNormallyByScheduler(t *testing.T) {
	// An immediate message that arrives while the scheduler (not a
	// blocking receive) is running is just dispatched like any other.
	cm := newTestMachine(1)
	ran := false
	h := cm.RegisterHandler(func(p *Proc, msg []byte) {
		ran = true
		p.ExitScheduler()
	})
	err := cm.Run(func(p *Proc) {
		msg := MakeMsg(h, nil)
		SetImmediate(msg)
		p.SyncSendAndFree(0, msg)
		p.Scheduler(-1)
	})
	if err != nil {
		t.Fatal(err)
	}
	if !ran {
		t.Fatal("immediate message lost in scheduler path")
	}
}

func TestGetSpecificAfterImmediateChain(t *testing.T) {
	// An immediate handler that itself sends the awaited message: the
	// blocked GetSpecificMsg must pick it up.
	cm := newTestMachine(2)
	var hImm, hData int
	hImm = cm.RegisterHandler(func(p *Proc, msg []byte) {
		p.SyncSendAndFree(p.MyPe(), MakeMsg(hData, []byte("from-imm")))
	})
	hData = cm.RegisterHandler(func(p *Proc, msg []byte) {})
	err := cm.Run(func(p *Proc) {
		if p.MyPe() == 1 {
			imm := MakeMsg(hImm, nil)
			SetImmediate(imm)
			p.SyncSendAndFree(0, imm)
			return
		}
		msg := p.GetSpecificMsg(hData)
		if string(Payload(msg)) != "from-imm" {
			t.Errorf("payload %q", Payload(msg))
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}
