package machine

import (
	"encoding/binary"
	"runtime"
	"sync"
	"testing"
	"time"
)

// TestOverflowPreservesPairFIFO queues a burst of packets from several
// senders before the receiver runs, then checks per-sender order end to
// end.
func TestOverflowPreservesPairFIFO(t *testing.T) {
	const pes = 4
	const per = 192 // per sender: a burst far past any steady-state queue depth
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

// TestRecvBatchDrains checks the consumer's batch hand-off: packets
// put while the receiver is part-way through a batch come out after
// that batch, in put order, and Len counts both.
func TestRecvBatchDrains(t *testing.T) {
	m := New(Config{PEs: 1})
	pe := m.PE(0)
	for i := 0; i < 10; i++ {
		pe.Send(0, []byte{byte(i)})
	}
	total := 0
	recv := func(n int) {
		t.Helper()
		for i := 0; i < n; i++ {
			pkt, ok := pe.TryRecv()
			if !ok {
				t.Fatalf("inbox empty after %d packets", total)
			}
			if int(pkt.Data[0]) != total {
				t.Fatalf("packet %d out of order at position %d", pkt.Data[0], total)
			}
			total++
		}
	}
	recv(4)
	for i := 10; i < 20; i++ {
		pe.Send(0, []byte{byte(i)})
	}
	if n := pe.InboxLen(); n != 16 {
		t.Fatalf("InboxLen = %d mid-batch, want 16", n)
	}
	recv(16)
	if pkt, ok := pe.TryRecv(); ok {
		t.Fatalf("drained inbox returned packet %d", pkt.Data[0])
	}
}

// TestNewInboxFootprint holds the per-PE cost of an idle inbox: every
// PE of every machine allocates one up front, so its queues grow only
// on the first packets.
func TestNewInboxFootprint(t *testing.T) {
	const n = 64
	keep := make([]*Inbox, n)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := range keep {
		keep[i] = NewInbox()
	}
	runtime.ReadMemStats(&after)
	if per := (after.TotalAlloc - before.TotalAlloc) / n; per > 512 {
		t.Fatalf("NewInbox allocates %d B, want at most %d", per, 512)
	}
	runtime.KeepAlive(keep)
}

// TestInboxBurstRoundsKeepPerProducerFIFO runs round after round of
// bursts from eight racing producers into one inbox: each round the
// consumer waits until half the round is queued, then drains while the
// producers are still pushing, so batch swaps land between the puts of
// every producer. Per-producer order must hold across every swap.
func TestInboxBurstRoundsKeepPerProducerFIFO(t *testing.T) {
	const (
		producers = 8
		rounds    = 40
		perRound  = 64 // per producer
		total     = producers * perRound
	)
	ib := NewInbox()
	next := make([]uint32, producers)
	sent := make([]uint32, producers) // sent[p] is producer p's only
	for r := 0; r < rounds; r++ {
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
