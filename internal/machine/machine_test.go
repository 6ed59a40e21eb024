package machine

import (
	"bytes"
	"fmt"
	"strings"
	"sync"
	"testing"
	"testing/quick"
	"time"
)

func TestNewBasics(t *testing.T) {
	m := New(Config{PEs: 4})
	if m.NumPEs() != 4 {
		t.Fatalf("NumPEs = %d, want 4", m.NumPEs())
	}
	for i := 0; i < 4; i++ {
		if m.PE(i).ID() != i {
			t.Fatalf("PE(%d).ID() = %d", i, m.PE(i).ID())
		}
		if m.PE(i).NumPEs() != 4 {
			t.Fatalf("PE(%d).NumPEs() = %d", i, m.PE(i).NumPEs())
		}
		if m.PE(i).Machine() != m {
			t.Fatalf("PE(%d).Machine() mismatch", i)
		}
	}
}

func TestNewPanicsOnZeroPEs(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("New(Config{PEs: 0}) did not panic")
		}
	}()
	New(Config{PEs: 0})
}

func TestSendRecvRoundTrip(t *testing.T) {
	m := New(Config{PEs: 2, Watchdog: 5 * time.Second})
	var got []byte
	err := m.Run(func(pe *PE) {
		switch pe.ID() {
		case 0:
			pe.Send(1, []byte("hello"))
			pkt, ok := pe.Recv()
			if !ok {
				t.Error("PE0 Recv failed")
				return
			}
			got = pkt.Data
		case 1:
			pkt, ok := pe.Recv()
			if !ok {
				t.Error("PE1 Recv failed")
				return
			}
			reply := append([]byte("re:"), pkt.Data...)
			pe.Send(0, reply)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "re:hello" {
		t.Fatalf("round trip got %q", got)
	}
}

func TestSendCopiesBuffer(t *testing.T) {
	m := New(Config{PEs: 2, Watchdog: 5 * time.Second})
	err := m.Run(func(pe *PE) {
		if pe.ID() == 0 {
			buf := []byte("original")
			pe.Send(1, buf)
			copy(buf, "CLOBBER!") // CmiSyncSend: caller may reuse the buffer
			return
		}
		pkt, ok := pe.Recv()
		if !ok {
			t.Error("Recv failed")
			return
		}
		if string(pkt.Data) != "original" {
			t.Errorf("receiver saw %q, want %q (Send must copy)", pkt.Data, "original")
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestTryRecvNonBlocking(t *testing.T) {
	m := New(Config{PEs: 1})
	pe := m.PE(0)
	if _, ok := pe.TryRecv(); ok {
		t.Fatal("TryRecv on empty inbox returned ok")
	}
	pe.Send(0, []byte("self"))
	pkt, ok := pe.TryRecv()
	if !ok || string(pkt.Data) != "self" {
		t.Fatalf("TryRecv = %v,%v", pkt, ok)
	}
	if pkt.Src != 0 || pkt.Dst != 0 {
		t.Fatalf("packet endpoints = %d->%d", pkt.Src, pkt.Dst)
	}
}

func TestRecvOutsideRunPanics(t *testing.T) {
	pe := New(Config{PEs: 1}).PE(0)
	pe.Send(0, []byte("queued"))
	if pkt, ok := pe.Recv(); !ok || string(pkt.Data) != "queued" {
		t.Fatalf("Recv of a queued packet outside Run = %q, %v", pkt.Data, ok)
	}
	defer func() {
		if r := recover(); r == nil || !strings.Contains(fmt.Sprint(r), "outside Machine.Run") {
			t.Fatalf("blocking Recv outside Run: recovered %v, want a panic naming Machine.Run", r)
		}
	}()
	pe.Recv() // nothing queued: it would have to wait, and no conductor runs
}

func TestSendInvalidDestinationPanics(t *testing.T) {
	m := New(Config{PEs: 2})
	defer func() {
		if recover() == nil {
			t.Fatal("Send to invalid PE did not panic")
		}
	}()
	m.PE(0).Send(7, []byte("x"))
}

func TestPairwiseOrderPreserved(t *testing.T) {
	// The transport must not reorder messages between a fixed pair.
	m := New(Config{PEs: 2, Watchdog: 10 * time.Second})
	const n = 500
	err := m.Run(func(pe *PE) {
		if pe.ID() == 0 {
			for i := 0; i < n; i++ {
				pe.Send(1, []byte{byte(i), byte(i >> 8)})
			}
			return
		}
		for i := 0; i < n; i++ {
			pkt, ok := pe.Recv()
			if !ok {
				t.Error("Recv failed")
				return
			}
			got := int(pkt.Data[0]) | int(pkt.Data[1])<<8
			if got != i {
				t.Errorf("message %d arrived out of order (got %d)", i, got)
				return
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestManyToOne(t *testing.T) {
	const pes = 8
	const per = 100
	m := New(Config{PEs: pes, Watchdog: 10 * time.Second})
	counts := make([]int, pes)
	err := m.Run(func(pe *PE) {
		if pe.ID() != 0 {
			for i := 0; i < per; i++ {
				pe.Send(0, []byte{byte(pe.ID())})
			}
			return
		}
		for i := 0; i < (pes-1)*per; i++ {
			pkt, ok := pe.Recv()
			if !ok {
				t.Error("Recv failed")
				return
			}
			counts[pkt.Data[0]]++
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	for src := 1; src < pes; src++ {
		if counts[src] != per {
			t.Errorf("received %d messages from PE %d, want %d", counts[src], src, per)
		}
	}
}

func TestWatchdogBreaksDeadlock(t *testing.T) {
	m := New(Config{PEs: 2, Watchdog: 100 * time.Millisecond})
	start := time.Now()
	err := m.Run(func(pe *PE) {
		// Both PEs wait for a message that never comes.
		pe.Recv()
	})
	if err == nil {
		t.Fatal("Run returned nil error despite deadlock")
	}
	if !strings.Contains(err.Error(), "watchdog") {
		t.Fatalf("error = %v, want watchdog mention", err)
	}
	if time.Since(start) > 5*time.Second {
		t.Fatal("watchdog took far too long")
	}
}

func TestPanicPropagation(t *testing.T) {
	m := New(Config{PEs: 2, Watchdog: 5 * time.Second})
	err := m.Run(func(pe *PE) {
		if pe.ID() == 1 {
			panic("boom")
		}
		pe.Recv() // would deadlock, but the panic stops the machine
	})
	if err == nil || !strings.Contains(err.Error(), "boom") {
		t.Fatalf("err = %v, want panic propagation", err)
	}
}

func TestStopIdempotent(t *testing.T) {
	m := New(Config{PEs: 1})
	m.Stop()
	m.Stop()
	if !m.Stopped() {
		t.Fatal("Stopped() = false after Stop")
	}
}

func TestAtomicPrintf(t *testing.T) {
	m := New(Config{PEs: 8, Watchdog: 10 * time.Second})
	var buf bytes.Buffer
	var mu sync.Mutex
	m.SetConsole(writerFunc(func(p []byte) (int, error) {
		mu.Lock()
		defer mu.Unlock()
		return buf.Write(p)
	}), nil)
	err := m.Run(func(pe *PE) {
		for i := 0; i < 50; i++ {
			pe.Printf("pe=%d i=%d tail\n", pe.ID(), i)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	lines := strings.Split(strings.TrimRight(buf.String(), "\n"), "\n")
	if len(lines) != 8*50 {
		t.Fatalf("got %d lines, want %d", len(lines), 8*50)
	}
	for _, l := range lines {
		var peid, i int
		if _, err := fmt.Sscanf(l, "pe=%d i=%d tail", &peid, &i); err != nil {
			t.Fatalf("interleaved or malformed line %q: %v", l, err)
		}
	}
}

func TestScanfSerialized(t *testing.T) {
	m := New(Config{PEs: 3, Watchdog: 10 * time.Second})
	m.SetInput(strings.NewReader("10\n20\n30\n"))
	var mu sync.Mutex
	got := map[int]bool{}
	err := m.Run(func(pe *PE) {
		var v int
		if _, err := pe.Scanf("%d", &v); err != nil {
			t.Errorf("Scanf: %v", err)
			return
		}
		mu.Lock()
		got[v] = true
		mu.Unlock()
	})
	if err != nil {
		t.Fatal(err)
	}
	if !got[10] || !got[20] || !got[30] || len(got) != 3 {
		t.Fatalf("scanned values = %v", got)
	}
}

func TestErrorfGoesToStderrStream(t *testing.T) {
	m := New(Config{PEs: 1})
	var out, errw bytes.Buffer
	m.SetConsole(&out, &errw)
	m.PE(0).Printf("to-out")
	m.PE(0).Errorf("to-err")
	if out.String() != "to-out" || errw.String() != "to-err" {
		t.Fatalf("out=%q err=%q", out.String(), errw.String())
	}
}

type writerFunc func(p []byte) (int, error)

func (f writerFunc) Write(p []byte) (int, error) { return f(p) }

// --- virtual clock tests ---

// fixedModel charges a constant latency plus per-byte cost.
type fixedModel struct {
	alpha, beta, sendOv, recvOv float64
}

func (f fixedModel) WireTime(n int) float64 { return f.alpha + f.beta*float64(n) }
func (f fixedModel) SendOverhead() float64  { return f.sendOv }
func (f fixedModel) RecvOverhead() float64  { return f.recvOv }

func TestVirtualClockPingPong(t *testing.T) {
	mod := fixedModel{alpha: 10, beta: 0.01, sendOv: 1, recvOv: 2}
	m := New(Config{PEs: 2, Model: mod, Watchdog: 10 * time.Second})
	const size = 100
	var t0 float64
	err := m.Run(func(pe *PE) {
		msg := make([]byte, size)
		if pe.ID() == 0 {
			pe.Send(1, msg)
			pe.Recv()
			t0 = pe.Clock()
			return
		}
		pkt, _ := pe.Recv()
		pe.Send(0, pkt.Data)
	})
	if err != nil {
		t.Fatal(err)
	}
	// Round trip: 2 * (sendOv + wire + recvOv) with wire = alpha + beta*size.
	want := 2 * (mod.sendOv + mod.alpha + mod.beta*size + mod.recvOv)
	if diff := t0 - want; diff > 1e-9 || diff < -1e-9 {
		t.Fatalf("round-trip virtual time = %v, want %v", t0, want)
	}
}

// TestClockCausalityProperty: for any message size, receive time at the
// destination is at least send time plus wire time.
func TestClockCausalityProperty(t *testing.T) {
	f := func(sizes []uint16) bool {
		mod := fixedModel{alpha: 5, beta: 0.02, sendOv: 0.5, recvOv: 0.7}
		m := New(Config{PEs: 2, Model: mod, Watchdog: 10 * time.Second})
		ok := true
		err := m.Run(func(pe *PE) {
			if pe.ID() == 0 {
				for _, s := range sizes {
					pe.Send(1, make([]byte, int(s)%4096))
				}
				return
			}
			last := -1.0
			for range sizes {
				pkt, k := pe.Recv()
				if !k {
					ok = false
					return
				}
				if pkt.Arrive < last {
					// pairwise FIFO should keep arrival stamps
					// nondecreasing from a single sender
					ok = false
					return
				}
				last = pkt.Arrive
				if pe.Clock() < pkt.Arrive {
					ok = false
					return
				}
			}
		})
		return err == nil && ok
	}
	cfg := &quick.Config{MaxCount: 20}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestChargeAndAdvanceTo(t *testing.T) {
	m := New(Config{PEs: 1})
	pe := m.PE(0)
	pe.Charge(5)
	if pe.Clock() != 5 {
		t.Fatalf("Clock = %v, want 5", pe.Clock())
	}
	pe.AdvanceTo(3) // backwards: no-op
	if pe.Clock() != 5 {
		t.Fatalf("AdvanceTo moved clock backwards: %v", pe.Clock())
	}
	pe.AdvanceTo(9)
	if pe.Clock() != 9 {
		t.Fatalf("Clock = %v, want 9", pe.Clock())
	}
}

func TestStatsCounts(t *testing.T) {
	m := New(Config{PEs: 2, Watchdog: 5 * time.Second})
	err := m.Run(func(pe *PE) {
		if pe.ID() == 0 {
			pe.Send(1, []byte("a"))
			pe.Send(1, []byte("b"))
		} else {
			pe.Recv()
			pe.Recv()
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if s, _ := m.PE(0).Stats(); s != 2 {
		t.Fatalf("PE0 sent = %d, want 2", s)
	}
	if _, r := m.PE(1).Stats(); r != 2 {
		t.Fatalf("PE1 received = %d, want 2", r)
	}
}

func TestInboxLen(t *testing.T) {
	m := New(Config{PEs: 1})
	pe := m.PE(0)
	if pe.InboxLen() != 0 {
		t.Fatal("fresh inbox not empty")
	}
	pe.Send(0, []byte("x"))
	pe.Send(0, []byte("y"))
	if pe.InboxLen() != 2 {
		t.Fatalf("InboxLen = %d, want 2", pe.InboxLen())
	}
}
