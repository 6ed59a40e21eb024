package core

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"time"

	"converse/internal/metrics"
)

// newCoalesceMachine builds a machine with sender-side coalescing on.
func newCoalesceMachine(pes int, co CoalesceConfig) *Machine {
	co.Enabled = true
	return NewMachine(Config{PEs: pes, Watchdog: 10 * time.Second, Coalesce: co})
}

func TestCoalesceDeliversAllAndPacks(t *testing.T) {
	const pes = 2
	const msgs = 100
	reg := metrics.New(pes)
	cm := NewMachine(Config{
		PEs: pes, Watchdog: 10 * time.Second,
		Coalesce: CoalesceConfig{Enabled: true},
		Metrics:  reg,
	})
	got := 0
	var h, hStop int
	h = cm.RegisterHandler(func(p *Proc, msg []byte) { got++ })
	hStop = cm.RegisterHandler(func(p *Proc, msg []byte) { p.ExitScheduler() })
	err := cm.Run(func(p *Proc) {
		if p.MyPe() == 0 {
			for i := 0; i < msgs; i++ {
				p.SyncSend(1, MakeMsg(h, []byte("tiny")))
			}
			p.SyncSend(1, MakeMsg(hStop, nil))
			return
		}
		p.Scheduler(-1)
	})
	if err != nil {
		t.Fatal(err)
	}
	if got != msgs {
		t.Fatalf("delivered %d messages, want %d", got, msgs)
	}
	snap := reg.Snapshot()
	s0 := snap.PEs[0]
	if s0.CoalesceStaged < uint64(msgs) {
		t.Errorf("staged %d, want >= %d", s0.CoalesceStaged, msgs)
	}
	// 101 small messages must travel in far fewer packets than 101.
	if s0.CoalescePacks == 0 || s0.CoalescePacks > uint64(msgs)/2 {
		t.Errorf("flushed %d packs for %d messages", s0.CoalescePacks, msgs)
	}
	s1 := snap.PEs[1]
	if s1.CoalesceUnpacked < uint64(msgs) {
		t.Errorf("unpacked %d, want >= %d", s1.CoalesceUnpacked, msgs)
	}
}

// TestCoalescedPerPairFIFO is the ordering property test: several
// senders blast one receiver with randomly sized messages — some small
// enough to coalesce, some forced onto the direct path — with random
// explicit flushes mixed in. Every interleaving of staged and direct
// sends must still deliver each sender's messages in send order.
func TestCoalescedPerPairFIFO(t *testing.T) {
	const pes = 4
	const per = 300
	rng := rand.New(rand.NewSource(1996))
	sizes := make([][]int, pes)
	for src := 1; src < pes; src++ {
		sizes[src] = make([]int, per)
		for i := range sizes[src] {
			switch rng.Intn(3) {
			case 0:
				sizes[src][i] = 8 + rng.Intn(64) // well under coalesceMaxMsg
			case 1:
				sizes[src][i] = 8 + rng.Intn(504) // straddles the limit
			default:
				sizes[src][i] = 600 + rng.Intn(1400) // always direct
			}
		}
	}
	cm := newCoalesceMachine(pes, CoalesceConfig{})
	next := make([]uint32, pes)
	total := 0
	var h int
	h = cm.RegisterHandler(func(p *Proc, msg []byte) {
		src := binary.LittleEndian.Uint32(Payload(msg))
		seq := binary.LittleEndian.Uint32(Payload(msg)[4:])
		if seq != next[src] {
			t.Errorf("sender %d: got seq %d, want %d", src, seq, next[src])
		}
		next[src]++
		total++
		if total == (pes-1)*per {
			p.ExitScheduler()
		}
	})
	err := cm.Run(func(p *Proc) {
		if p.MyPe() == 0 {
			p.Scheduler(-1)
			return
		}
		sendRng := rand.New(rand.NewSource(int64(p.MyPe())))
		for i := 0; i < per; i++ {
			msg := p.Alloc(sizes[p.MyPe()][i])
			SetHandler(msg, h)
			binary.LittleEndian.PutUint32(Payload(msg), uint32(p.MyPe()))
			binary.LittleEndian.PutUint32(Payload(msg)[4:], uint32(i))
			if sendRng.Intn(2) == 0 {
				p.SyncSendAndFree(0, msg)
			} else {
				p.SyncSend(0, msg)
			}
			if sendRng.Intn(16) == 0 {
				p.Progress() // random flush boundary
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if total != (pes-1)*per {
		t.Fatalf("delivered %d, want %d", total, (pes-1)*per)
	}
}

// TestCoalesceFlushBeforeBlockingReceive would deadlock if a staged
// request could sit unflushed while its sender blocks waiting for the
// reply.
func TestCoalesceFlushBeforeBlockingReceive(t *testing.T) {
	cm := newCoalesceMachine(2, CoalesceConfig{})
	var hReq, hReply int
	hReq = cm.RegisterHandler(func(p *Proc, msg []byte) {
		p.SyncSend(0, MakeMsg(hReply, []byte("pong")))
		p.ExitScheduler()
	})
	hReply = cm.RegisterHandler(func(p *Proc, msg []byte) {})
	err := cm.Run(func(p *Proc) {
		if p.MyPe() == 0 {
			p.SyncSend(1, MakeMsg(hReq, []byte("ping"))) // staged, not sent
			reply := p.GetSpecificMsg(hReply)            // must flush, then block
			if string(Payload(reply)) != "pong" {
				t.Errorf("reply payload = %q", Payload(reply))
			}
			return
		}
		p.Scheduler(-1)
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestCoalesceImmediateNotStaged(t *testing.T) {
	// An immediate message must bypass staging: with nothing else
	// flushing, a staged immediate would never preempt anyone.
	cm := newCoalesceMachine(2, CoalesceConfig{})
	ran := false
	var hImm, hStop int
	hImm = cm.RegisterHandler(func(p *Proc, msg []byte) {
		ran = true
		p.SyncSend(0, MakeMsg(hStop, nil)) // unblock the sender
		p.SyncSend(1, MakeMsg(hStop, nil)) // and ourselves
	})
	hStop = cm.RegisterHandler(func(p *Proc, msg []byte) {})
	err := cm.Run(func(p *Proc) {
		if p.MyPe() == 0 {
			msg := MakeMsg(hImm, []byte("now"))
			SetImmediate(msg)
			p.SyncSend(1, msg)
			p.GetSpecificMsg(hStop)
			return
		}
		// PE 1 waits for a handler that only the immediate message's
		// handler will feed; the immediate is dispatched mid-wait.
		p.GetSpecificMsg(hStop)
	})
	if err != nil {
		t.Fatal(err)
	}
	if !ran {
		t.Fatal("immediate handler did not run while receiver was blocked")
	}
}

func TestSendUnifiedAPI(t *testing.T) {
	const pes = 3
	cm := newTestMachine(pes)
	counts := make([]int, pes)
	var h, hStop int
	h = cm.RegisterHandler(func(p *Proc, msg []byte) {
		counts[p.MyPe()]++
	})
	hStop = cm.RegisterHandler(func(p *Proc, msg []byte) { p.ExitScheduler() })
	err := cm.Run(func(p *Proc) {
		if p.MyPe() == 0 {
			p.Send(1, MakeMsg(h, []byte("a")))               // plain
			p.Send(1, MakeMsg(h, []byte("b")), Transfer)     // ownership transfer
			p.Send(BroadcastOthers, MakeMsg(h, []byte("c"))) // to 1 and 2
			p.Send(BroadcastAll, MakeMsg(h, []byte("d")), Transfer)
			p.Scheduler(1) // deliver own broadcast copy
			for dst := 1; dst < pes; dst++ {
				p.Send(dst, MakeMsg(hStop, nil))
			}
			return
		}
		p.Scheduler(-1)
	})
	if err != nil {
		t.Fatal(err)
	}
	want := []int{1, 4, 2}
	for pe, n := range counts {
		if n != want[pe] {
			t.Errorf("pe %d received %d messages, want %d", pe, n, want[pe])
		}
	}
}

func TestSendInvalidDestinationPanics(t *testing.T) {
	cm := newTestMachine(1)
	h := cm.RegisterHandler(func(p *Proc, msg []byte) {})
	err := cm.Run(func(p *Proc) {
		p.Send(-7, MakeMsg(h, nil))
	})
	if err == nil || !strings.Contains(err.Error(), "invalid destination") {
		t.Fatalf("err = %v, want invalid-destination panic", err)
	}
}

func TestCheckSendRejectsShortMessage(t *testing.T) {
	cm := newTestMachine(1)
	err := cm.Run(func(p *Proc) {
		p.SyncSend(0, make([]byte, HeaderSize-1))
	})
	if err == nil || !strings.Contains(err.Error(), "smaller than") {
		t.Fatalf("err = %v, want short-message panic", err)
	}
}

// TestAsyncSendLifecycle exercises CmiAsyncSend under the pooled fast
// path: the caller's buffer must stay intact (and reusable only after
// IsSent), payloads must arrive unscathed despite heavy pool churn on
// both sides, and Release must work on completed handles.
func TestAsyncSendLifecycle(t *testing.T) {
	const rounds = 50
	cm := newCoalesceMachine(2, CoalesceConfig{})
	got := 0
	var h, hStop int
	h = cm.RegisterHandler(func(p *Proc, msg []byte) {
		want := fmt.Sprintf("async-%03d", got)
		if string(Payload(msg)) != want {
			t.Errorf("payload = %q, want %q", Payload(msg), want)
		}
		got++
	})
	hStop = cm.RegisterHandler(func(p *Proc, msg []byte) { p.ExitScheduler() })
	err := cm.Run(func(p *Proc) {
		if p.MyPe() == 0 {
			for i := 0; i < rounds; i++ {
				msg := MakeMsg(h, []byte(fmt.Sprintf("async-%03d", i)))
				hdl := p.AsyncSend(1, msg)
				// Churn the pool while the send is pending; the async
				// buffer must be untouched by it.
				for j := 0; j < 8; j++ {
					p.recycle(p.Alloc(100))
				}
				for !p.IsSent(hdl) {
				}
				p.Release(hdl)
				// The buffer is caller-owned again: scribbling on it
				// now must not corrupt what PE 1 receives.
				copy(Payload(msg), "XXXXXXXXX")
			}
			p.SyncSend(1, MakeMsg(hStop, nil))
			return
		}
		p.Scheduler(-1)
	})
	if err != nil {
		t.Fatal(err)
	}
	if got != rounds {
		t.Fatalf("delivered %d async messages, want %d", got, rounds)
	}
}

func TestAsyncBroadcastLifecycle(t *testing.T) {
	const pes = 4
	cm := newTestMachine(pes)
	counts := make([]int, pes)
	var h int
	h = cm.RegisterHandler(func(p *Proc, msg []byte) {
		if string(Payload(msg)) != "fanout" {
			t.Errorf("pe %d payload = %q", p.MyPe(), Payload(msg))
		}
		counts[p.MyPe()]++
		// Exit on receipt: the broadcast travels the two-level tree, so a
		// PE must not gate its exit on a p2p message that may outrun the
		// tree relay. Relaying happens before local dispatch, so exiting
		// here never strands a subtree.
		p.ExitScheduler()
	})
	err := cm.Run(func(p *Proc) {
		if p.MyPe() == 0 {
			msg := MakeMsg(h, []byte("fanout"))
			hdl := p.AsyncBroadcast(msg)
			for !p.IsSent(hdl) {
			}
			p.Release(hdl)
			// Serve relay traffic until the machine drains (bounded
			// steps: Scheduler returns at idle).
			p.Scheduler(pes)
			return
		}
		p.Scheduler(-1)
	})
	if err != nil {
		t.Fatal(err)
	}
	for pe := 1; pe < pes; pe++ {
		if counts[pe] != 1 {
			t.Errorf("pe %d received %d broadcast copies, want 1", pe, counts[pe])
		}
	}
}

// TestVectorSendOwnedBuffer checks the gather-send's runtime-owned
// buffer: it is recycled into the pool after transmission and the
// gathered payload arrives intact.
func TestVectorSendOwnedBuffer(t *testing.T) {
	cm := newCoalesceMachine(2, CoalesceConfig{})
	ok := false
	var h, hStop int
	h = cm.RegisterHandler(func(p *Proc, msg []byte) {
		ok = string(Payload(msg)) == "one two three"
	})
	hStop = cm.RegisterHandler(func(p *Proc, msg []byte) { p.ExitScheduler() })
	err := cm.Run(func(p *Proc) {
		if p.MyPe() == 0 {
			hdl := p.VectorSend(1, h, []byte("one "), []byte("two "), []byte("three"))
			for !p.IsSent(hdl) {
			}
			p.Release(hdl)
			p.SyncSend(1, MakeMsg(hStop, nil))
			return
		}
		p.Scheduler(-1)
	})
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Fatal("vector payload mangled")
	}
}

func TestPackSegRejectsMalformed(t *testing.T) {
	// A well-formed one-segment pack, then mutilations of it.
	msg := MakeMsg(3, []byte("payload"))
	pack := make([]byte, HeaderSize, HeaderSize+4+len(msg))
	pack = binary.LittleEndian.AppendUint32(pack, uint32(len(msg)))
	pack = append(pack, msg...)

	if seg, next, err := packSeg(pack, HeaderSize); err != nil || next != len(pack) || len(seg) != len(msg) {
		t.Fatalf("valid pack: seg=%d next=%d err=%v", len(seg), next, err)
	}
	cases := map[string][]byte{
		"truncated prefix":  pack[:HeaderSize+2],
		"truncated payload": pack[:len(pack)-3],
		"oversized length": func() []byte {
			b := append([]byte(nil), pack...)
			binary.LittleEndian.PutUint32(b[HeaderSize:], 1<<30)
			return b
		}(),
		"sub-header length": func() []byte {
			b := append([]byte(nil), pack...)
			binary.LittleEndian.PutUint32(b[HeaderSize:], uint32(HeaderSize-1))
			return b
		}(),
	}
	for name, data := range cases {
		if _, _, err := packSeg(data, HeaderSize); err == nil {
			t.Errorf("%s: no error", name)
		}
	}
}

// FuzzUnpack drives the pack-segment walk with arbitrary bytes:
// truncated, corrupt, or oversized packs must produce an error — never
// a panic, an out-of-bounds segment, or a stuck loop.
func FuzzUnpack(f *testing.F) {
	mk := func(msgs ...[]byte) []byte {
		pack := make([]byte, HeaderSize)
		for _, m := range msgs {
			pack = binary.LittleEndian.AppendUint32(pack, uint32(len(m)))
			pack = append(pack, m...)
		}
		return pack
	}
	f.Add(mk(MakeMsg(1, []byte("a"))))
	f.Add(mk(MakeMsg(1, []byte("a")), MakeMsg(2, []byte("bc")), MakeMsg(3, nil)))
	f.Add([]byte{})
	f.Add(make([]byte, HeaderSize+4))
	f.Fuzz(func(t *testing.T, data []byte) {
		for off := HeaderSize; off < len(data); {
			seg, next, err := packSeg(data, off)
			if err != nil {
				return // the only acceptable outcome for malformed input
			}
			if next <= off || next > len(data) {
				t.Fatalf("walk escaped bounds: off=%d next=%d len=%d", off, next, len(data))
			}
			if len(seg) < HeaderSize {
				t.Fatalf("segment of %d bytes below the header size", len(seg))
			}
			off = next
		}
	})
}
