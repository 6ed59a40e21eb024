package pvmc

import (
	"bytes"
	"testing"
	"testing/quick"
	"time"

	"converse/internal/core"
)

func newMachine(pes int) *core.Machine {
	return core.NewMachine(core.Config{PEs: pes, Watchdog: 15 * time.Second})
}

func TestPackUnpackRoundTrip(t *testing.T) {
	b := &Buffer{}
	b.PackInt(42, -7).PackFloat64(3.25).PackString("hello").PackBytes([]byte{1, 2, 3})
	if b.UnpackInt() != 42 || b.UnpackInt() != -7 {
		t.Fatal("int round trip failed")
	}
	if b.UnpackFloat64() != 3.25 {
		t.Fatal("float round trip failed")
	}
	if b.UnpackString() != "hello" {
		t.Fatal("string round trip failed")
	}
	if !bytes.Equal(b.UnpackBytes(), []byte{1, 2, 3}) {
		t.Fatal("bytes round trip failed")
	}
}

func TestPackUnpackProperty(t *testing.T) {
	f := func(ints []int64, fs []float64, s string) bool {
		b := &Buffer{}
		b.PackInt(ints...)
		b.PackFloat64(fs...)
		b.PackString(s)
		for _, v := range ints {
			if b.UnpackInt() != v {
				return false
			}
		}
		for _, v := range fs {
			got := b.UnpackFloat64()
			if got != v && !(got != got && v != v) { // NaN-safe
				return false
			}
		}
		return b.UnpackString() == s
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestUnpackPastEndPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	(&Buffer{}).UnpackInt()
}

func TestSendRecvTyped(t *testing.T) {
	cm := newMachine(2)
	err := cm.Run(func(p *core.Proc) {
		v := Attach(p)
		if v.Mytid() == 0 {
			v.InitSend().PackInt(123).PackString("payload")
			v.Send(1, 10)
			src, tag := v.Recv(1, 20)
			if src != 1 || tag != 20 {
				t.Errorf("Recv = %d,%d", src, tag)
			}
			if v.RecvBuf().UnpackInt() != 246 {
				t.Error("reply value wrong")
			}
			return
		}
		src, _ := v.Recv(Any, 10)
		n := v.RecvBuf().UnpackInt()
		if s := v.RecvBuf().UnpackString(); s != "payload" {
			t.Errorf("string = %q", s)
		}
		v.InitSend().PackInt(n * 2)
		v.Send(src, 20)
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestRecvBySourceAndTag(t *testing.T) {
	cm := newMachine(3)
	err := cm.Run(func(p *core.Proc) {
		v := Attach(p)
		switch v.Mytid() {
		case 1:
			v.InitSend().PackInt(1)
			v.Send(0, 7)
		case 2:
			v.InitSend().PackInt(2)
			v.Send(0, 7)
		case 0:
			// Select by source despite same tag.
			if src, _ := v.Recv(2, 7); src != 2 || v.RecvBuf().UnpackInt() != 2 {
				t.Error("Recv(2,7) wrong")
			}
			if src, _ := v.Recv(1, 7); src != 1 || v.RecvBuf().UnpackInt() != 1 {
				t.Error("Recv(1,7) wrong")
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestNrecvAndProbe(t *testing.T) {
	cm := newMachine(2)
	err := cm.Run(func(p *core.Proc) {
		v := Attach(p)
		if v.Mytid() == 0 {
			if _, _, ok := v.Nrecv(Any, Any); ok {
				t.Error("Nrecv matched on empty system")
			}
			v.InitSend().PackInt(5)
			v.Send(1, 1)
			v.Recv(1, 2) // ack
			return
		}
		for !v.Probe(0, 1) {
		}
		// Probe does not consume.
		if !v.Probe(0, 1) {
			t.Error("second Probe failed")
		}
		src, tag, ok := v.Nrecv(0, 1)
		if !ok || src != 0 || tag != 1 || v.RecvBuf().UnpackInt() != 5 {
			t.Errorf("Nrecv = %d,%d,%v", src, tag, ok)
		}
		v.InitSend()
		v.Send(0, 2)
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestBcastAndBarrier(t *testing.T) {
	const pes = 4
	cm := newMachine(pes)
	err := cm.Run(func(p *core.Proc) {
		v := Attach(p)
		if v.Mytid() == 0 {
			v.InitSend().PackString("all")
			v.Bcast(3)
		} else {
			v.Recv(0, 3)
			if v.RecvBuf().UnpackString() != "all" {
				t.Errorf("pe %d: bcast payload wrong", v.Mytid())
			}
		}
		for i := 0; i < 5; i++ {
			v.Barrier()
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestBarrierKeepsBuffers: Barrier leaves the active send and receive
// buffers alone, so a received message can still be unpacked after it.
func TestBarrierKeepsBuffers(t *testing.T) {
	cm := newMachine(3)
	err := cm.Run(func(p *core.Proc) {
		v := Attach(p)
		v.InitSend().PackInt(int64(v.Mytid()))
		v.Send((v.Mytid()+1)%3, 6)
		v.Recv(Any, 6)
		v.Barrier()
		if got, want := v.RecvBuf().UnpackInt(), int64((v.Mytid()+2)%3); got != want {
			t.Errorf("task %d: unpacked %d after barrier, want %d", v.Mytid(), got, want)
		}
		if v.SendBuf().Len() != 8 {
			t.Errorf("task %d: send buffer changed across barrier", v.Mytid())
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestMcast(t *testing.T) {
	cm := newMachine(4)
	err := cm.Run(func(p *core.Proc) {
		v := Attach(p)
		if v.Mytid() == 0 {
			v.InitSend().PackInt(9)
			v.Mcast([]int{1, 3}, 8)
			return
		}
		if v.Mytid() == 2 {
			return // must not receive
		}
		if src, _ := v.Recv(0, 8); src != 0 || v.RecvBuf().UnpackInt() != 9 {
			t.Errorf("pe %d: mcast wrong", v.Mytid())
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestSendBufReusable(t *testing.T) {
	cm := newMachine(2)
	err := cm.Run(func(p *core.Proc) {
		v := Attach(p)
		if v.Mytid() == 0 {
			v.InitSend().PackInt(77)
			v.Send(1, 1)
			v.Send(1, 2) // same buffer again
			return
		}
		v.Recv(0, 1)
		a := v.RecvBuf().UnpackInt()
		v.Recv(0, 2)
		b := v.RecvBuf().UnpackInt()
		if a != 77 || b != 77 {
			t.Errorf("a=%d b=%d", a, b)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestRecvBufWithoutRecvPanics(t *testing.T) {
	cm := newMachine(1)
	err := cm.Run(func(p *core.Proc) {
		Attach(p).RecvBuf()
	})
	if err == nil {
		t.Fatal("RecvBuf without Recv did not error")
	}
}

// TestPiCalculation: a small SPMD numerical program in the PVM style —
// each task integrates a slice and task 0 reduces.
func TestPiCalculation(t *testing.T) {
	const pes = 4
	const steps = 10000
	cm := newMachine(pes)
	var pi float64
	err := cm.Run(func(p *core.Proc) {
		v := Attach(p)
		h := 1.0 / steps
		sum := 0.0
		for i := v.Mytid(); i < steps; i += pes {
			x := h * (float64(i) + 0.5)
			sum += 4.0 / (1.0 + x*x)
		}
		part := h * sum
		if v.Mytid() != 0 {
			v.InitSend().PackFloat64(part)
			v.Send(0, 1)
			return
		}
		pi = part
		for i := 1; i < pes; i++ {
			v.Recv(Any, 1)
			pi += v.RecvBuf().UnpackFloat64()
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if pi < 3.14158 || pi > 3.14161 {
		t.Fatalf("pi = %v", pi)
	}
}
