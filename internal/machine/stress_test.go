package machine

import (
	"encoding/binary"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestRandomAllToAllConservation floods a 16-PE machine with random
// traffic and checks exact conservation: every byte sent arrives
// exactly once, per sender-receiver pair.
func TestRandomAllToAllConservation(t *testing.T) {
	const pes = 16
	const perPE = 100
	m := New(Config{PEs: pes, Watchdog: 30 * time.Second})
	// counts[src*pes+dst] incremented at send and decremented at recv.
	var sent [pes * pes]int64
	var recv [pes * pes]int64
	var totalRecv int64
	err := m.Run(func(pe *PE) {
		rng := rand.New(rand.NewSource(int64(pe.ID()) * 977))
		for i := 0; i < perPE; i++ {
			dst := rng.Intn(pes)
			size := 4 + rng.Intn(300)
			buf := make([]byte, size)
			binary.LittleEndian.PutUint32(buf, uint32(pe.ID()))
			atomic.AddInt64(&sent[pe.ID()*pes+dst], 1)
			pe.Send(dst, buf)
		}
		// Receive until the machine-wide total is reached; every PE
		// polls with short blocking receives.
		for atomic.LoadInt64(&totalRecv) < pes*perPE {
			pkt, ok := pe.TryRecv()
			if !ok {
				continue
			}
			src := int(binary.LittleEndian.Uint32(pkt.Data))
			if src != pkt.Src {
				t.Errorf("payload src %d != packet src %d", src, pkt.Src)
			}
			atomic.AddInt64(&recv[src*pes+pe.ID()], 1)
			atomic.AddInt64(&totalRecv, 1)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := range sent {
		if sent[i] != recv[i] {
			t.Fatalf("pair %d: sent %d recv %d", i, sent[i], recv[i])
		}
	}
}

// TestManyPEs spins up a 128-PE machine and runs a ring to exercise the
// machine at scale.
func TestManyPEs(t *testing.T) {
	const pes = 128
	m := New(Config{PEs: pes, Watchdog: 30 * time.Second})
	var hops int64
	err := m.Run(func(pe *PE) {
		if pe.ID() == 0 {
			pe.Send(1, []byte{1})
			if _, ok := pe.Recv(); !ok {
				t.Error("ring token lost")
			}
			atomic.AddInt64(&hops, 1)
			return
		}
		pkt, ok := pe.Recv()
		if !ok {
			t.Error("recv failed")
			return
		}
		atomic.AddInt64(&hops, 1)
		pe.Send((pe.ID()+1)%pes, pkt.Data)
	})
	if err != nil {
		t.Fatal(err)
	}
	if hops != pes {
		t.Fatalf("hops = %d, want %d", hops, pes)
	}
}

// TestVirtualTimeUnderContention: with a cost model, many senders to
// one receiver still yield a receiver clock at least as late as every
// arrival stamp.
func TestVirtualTimeUnderContention(t *testing.T) {
	const pes = 8
	mod := fixedModel{alpha: 3, beta: 0.01, sendOv: 0.5, recvOv: 0.5}
	m := New(Config{PEs: pes, Model: mod, Watchdog: 20 * time.Second})
	err := m.Run(func(pe *PE) {
		if pe.ID() != 0 {
			for i := 0; i < 50; i++ {
				pe.Send(0, make([]byte, 64))
			}
			return
		}
		var maxArrive float64
		for i := 0; i < (pes-1)*50; i++ {
			pkt, ok := pe.Recv()
			if !ok {
				t.Error("recv failed")
				return
			}
			if pkt.Arrive > maxArrive {
				maxArrive = pkt.Arrive
			}
			if pe.Clock() < pkt.Arrive {
				t.Errorf("receiver clock %v behind arrival %v", pe.Clock(), pkt.Arrive)
				return
			}
		}
		if pe.Clock() < maxArrive {
			t.Errorf("final clock %v < max arrival %v", pe.Clock(), maxArrive)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestSendOwnedNoCopy: SendOwned must hand the identical backing array
// to the receiver.
func TestSendOwnedNoCopy(t *testing.T) {
	m := New(Config{PEs: 1})
	pe := m.PE(0)
	buf := []byte("owned")
	pe.SendOwned(0, buf)
	pkt, ok := pe.TryRecv()
	if !ok || &pkt.Data[0] != &buf[0] {
		t.Fatal("SendOwned copied the buffer")
	}
}

// TestInboxWakeNoLostWakeup drives one Inbox with many producers and a
// consumer that parks whenever it runs dry. Every packet must arrive
// once, in per-producer order, with no wakeup lost (the watchdog
// timer), and each sleep the consumer announced may be signalled at
// most once: producers that publish after the first one woke it must
// not signal again.
func TestInboxWakeNoLostWakeup(t *testing.T) {
	const producers = 8
	const per = 20000
	ib := NewInbox()
	for p := 0; p < producers; p++ {
		go func(p int) {
			for i := 0; i < per; i++ {
				ib.Put(Packet{Src: p, Dst: i})
				if i%64 == 0 {
					// Let the consumer drain and park between bursts.
					time.Sleep(time.Microsecond)
				}
			}
		}(p)
	}
	var next [producers]int
	done := make(chan struct{})
	go func() {
		defer close(done)
		for n := 0; n < producers*per; n++ {
			pkt, ok := ib.Pop()
			if !ok {
				t.Error("Pop reported stopped")
				return
			}
			if pkt.Dst != next[pkt.Src] {
				t.Errorf("producer %d: got %d, want %d", pkt.Src, pkt.Dst, next[pkt.Src])
				return
			}
			next[pkt.Src]++
		}
	}()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatalf("consumer stuck (lost wakeup) after %v", next)
	}
	ib.mu.Lock()
	parks, wakes := ib.parks, ib.wakes
	ib.mu.Unlock()
	if parks == 0 {
		t.Fatal("the consumer never parked; the test exercised no wake")
	}
	if wakes > parks {
		t.Fatalf("%d wake-path entries for %d parks: wakes are not claimed once per sleep", wakes, parks)
	}
	t.Logf("%d packets, %d parks, %d wakes", producers*per, parks, wakes)
}

// TestInboxStopRacesPark races Stop against a consumer that is about
// to park, with producers still publishing: the consumer must always
// come back with ok=false once it has drained, never sleep through
// the Stop.
func TestInboxStopRacesPark(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	for round := 0; round < 300; round++ {
		ib := NewInbox()
		var wg sync.WaitGroup
		for p := 0; p < 4; p++ {
			wg.Add(1)
			go func(n int) {
				defer wg.Done()
				for i := 0; i < n; i++ {
					ib.Put(Packet{Src: p})
				}
			}(rng.Intn(50))
		}
		stopAfter := time.Duration(rng.Intn(50)) * time.Microsecond
		go func() {
			time.Sleep(stopAfter)
			ib.Stop()
		}()
		done := make(chan struct{})
		go func() {
			defer close(done)
			for {
				if _, ok := ib.Pop(); !ok {
					return
				}
			}
		}()
		select {
		case <-done:
		case <-time.After(10 * time.Second):
			t.Fatalf("round %d: consumer slept through Stop", round)
		}
		wg.Wait()
	}
}
