package machine

import (
	"encoding/binary"
	"runtime"
	"sync"
	"testing"
	"time"
)

func TestRingPushPopBasic(t *testing.T) {
	r := newPacketRing(8)
	if _, ok := r.tryPop(); ok {
		t.Fatal("pop from empty ring succeeded")
	}
	for i := 0; i < 8; i++ {
		if !r.tryPush(Packet{Src: i}) {
			t.Fatalf("push %d failed on non-full ring", i)
		}
	}
	if r.tryPush(Packet{Src: 99}) {
		t.Fatal("push succeeded on full ring")
	}
	if r.len() != 8 {
		t.Fatalf("len = %d, want 8", r.len())
	}
	for i := 0; i < 8; i++ {
		pkt, ok := r.tryPop()
		if !ok || pkt.Src != i {
			t.Fatalf("pop %d = %v,%v", i, pkt.Src, ok)
		}
	}
	if _, ok := r.tryPop(); ok {
		t.Fatal("pop from drained ring succeeded")
	}
}

func TestRingWrapsAroundManyLaps(t *testing.T) {
	r := newPacketRing(4)
	for i := 0; i < 1000; i++ {
		if !r.tryPush(Packet{Src: i}) {
			t.Fatalf("push %d failed", i)
		}
		pkt, ok := r.tryPop()
		if !ok || pkt.Src != i {
			t.Fatalf("lap %d: pop = %v,%v", i, pkt.Src, ok)
		}
	}
}

func TestRingBadCapacityPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("newPacketRing(3) did not panic")
		}
	}()
	newPacketRing(3)
}

// TestRingMPSCOrderPerProducer hammers one ring with several producers
// and checks, under the race detector in CI, that each producer's
// packets come out in its own send order.
func TestRingMPSCOrderPerProducer(t *testing.T) {
	const producers = 8
	const perProducer = 5000
	r := newPacketRing(64)
	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for i := 0; i < perProducer; i++ {
				buf := make([]byte, 4)
				binary.LittleEndian.PutUint32(buf, uint32(i))
				for !r.tryPush(Packet{Src: p, Data: buf}) {
					runtime.Gosched() // full: let the consumer drain
				}
			}
		}(p)
	}
	next := make([]uint32, producers)
	got := 0
	for got < producers*perProducer {
		pkt, ok := r.tryPop()
		if !ok {
			runtime.Gosched()
			continue
		}
		seq := binary.LittleEndian.Uint32(pkt.Data)
		if seq != next[pkt.Src] {
			t.Fatalf("producer %d: got seq %d, want %d", pkt.Src, seq, next[pkt.Src])
		}
		next[pkt.Src]++
		got++
	}
	wg.Wait()
	if _, ok := r.tryPop(); ok {
		t.Fatal("ring not empty after consuming everything")
	}
}

// TestOverflowPreservesPairFIFO forces the overflow fallback by sending
// far more packets than the ring holds before the receiver runs, then
// checks per-sender order end to end.
func TestOverflowPreservesPairFIFO(t *testing.T) {
	const pes = 4
	const per = 3 * ringCapacity // guarantees overflow on PE 0
	m := New(Config{PEs: pes, Watchdog: 60 * time.Second})
	next := make([]uint32, pes)
	err := m.Run(func(pe *PE) {
		if pe.ID() != 0 {
			for i := 0; i < per; i++ {
				buf := make([]byte, 8)
				binary.LittleEndian.PutUint32(buf, uint32(pe.ID()))
				binary.LittleEndian.PutUint32(buf[4:], uint32(i))
				pe.Send(0, buf)
			}
			return
		}
		for n := 0; n < (pes-1)*per; n++ {
			pkt, ok := pe.Recv()
			if !ok {
				t.Error("recv failed")
				return
			}
			src := binary.LittleEndian.Uint32(pkt.Data)
			seq := binary.LittleEndian.Uint32(pkt.Data[4:])
			if seq != next[src] {
				t.Errorf("sender %d: got seq %d, want %d", src, seq, next[src])
				return
			}
			next[src]++
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestRecvBatchDrains exercises the batch receive path.
func TestRecvBatchDrains(t *testing.T) {
	m := New(Config{PEs: 1})
	pe := m.PE(0)
	for i := 0; i < 10; i++ {
		pe.Send(0, []byte{byte(i)})
	}
	var out [4]Packet
	total := 0
	for {
		n := pe.TryRecvBatch(out[:])
		if n == 0 {
			break
		}
		for i := 0; i < n; i++ {
			if int(out[i].Data[0]) != total+i {
				t.Fatalf("batch out of order: %d at position %d", out[i].Data[0], total+i)
			}
		}
		total += n
	}
	if total != 10 {
		t.Fatalf("drained %d packets, want 10", total)
	}
}

// TestNewInboxFootprint holds the per-PE cost of an idle inbox: every
// PE of every machine allocates one up front, so the ring is sized to
// steady traffic and bursts go to the overflow deque.
func TestNewInboxFootprint(t *testing.T) {
	const n = 64
	keep := make([]*Inbox, n)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := range keep {
		keep[i] = NewInbox()
	}
	runtime.ReadMemStats(&after)
	if per := (after.TotalAlloc - before.TotalAlloc) / n; per > 8<<10 {
		t.Fatalf("NewInbox allocates %d B, want at most %d", per, 8<<10)
	}
	runtime.KeepAlive(keep)
}

// TestInboxOverflowCyclesKeepPerProducerFIFO pushes one consumer's
// inbox from the ring into the overflow deque and back, round after
// round, with eight producers racing: each round spills (the consumer
// waits until far more than a ring's worth is queued), the drain runs
// while producers are still pushing, and the next round must start on
// the ring again. Per-producer order must hold across every switch.
func TestInboxOverflowCyclesKeepPerProducerFIFO(t *testing.T) {
	const (
		producers = 8
		rounds    = 40
		perRound  = ringCapacity // per producer: 8 rings' worth a round
		total     = producers * perRound
	)
	ib := NewInbox()
	next := make([]uint32, producers)
	sent := make([]uint32, producers) // sent[p] is producer p's only
	for r := 0; r < rounds; r++ {
		// The previous round drained the overflow, so the ring takes
		// traffic again.
		ib.Put(Packet{Src: -1})
		if ib.ring.len() != 1 || ib.overflowN.Load() != 0 {
			t.Fatalf("round %d: a put after the drain went to the overflow (ring %d, overflow %d)",
				r, ib.ring.len(), ib.overflowN.Load())
		}
		if pkt, ok := ib.TryPop(); !ok || pkt.Src != -1 {
			t.Fatalf("round %d: marker not popped first", r)
		}
		var wg sync.WaitGroup
		for p := 0; p < producers; p++ {
			wg.Add(1)
			go func(p int) {
				defer wg.Done()
				for i := 0; i < perRound; i++ {
					buf := make([]byte, 4)
					binary.LittleEndian.PutUint32(buf, sent[p])
					sent[p]++
					ib.Put(Packet{Src: p, Data: buf})
				}
			}(p)
		}
		for ib.Len() < total/2 {
			runtime.Gosched()
		}
		if ib.overflowN.Load() == 0 {
			t.Fatalf("round %d: %d packets queued but none spilled", r, ib.Len())
		}
		for got := 0; got < total; {
			pkt, ok := ib.TryPop()
			if !ok {
				runtime.Gosched()
				continue
			}
			seq := binary.LittleEndian.Uint32(pkt.Data)
			if seq != next[pkt.Src] {
				t.Fatalf("round %d: producer %d: got seq %d, want %d", r, pkt.Src, seq, next[pkt.Src])
			}
			next[pkt.Src]++
			got++
		}
		wg.Wait()
		if ib.Len() != 0 {
			t.Fatalf("round %d: %d packets left after the drain", r, ib.Len())
		}
	}
}
