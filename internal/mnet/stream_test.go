package mnet_test

// A two-node stream on the PE-routed frame path: two in-process nodes
// of two PEs each, where PE 1 (node 0) streams windows of 256-byte
// messages to PE 2 (node 1), which checks every payload byte and the
// per-pair FIFO order and acks each window. The same fixture drives the
// reliability test (FailRetry under a fault plan) and the allocation
// gate (BenchmarkNetStream, run by `make overhead`). runNodes, the
// two-node bring-up beneath it, also runs BenchmarkNetPingPong and the
// coalescing contract tests.

import (
	"encoding/binary"
	"fmt"
	"sync"
	"testing"
	"time"

	"converse/internal/core"
	"converse/internal/metrics"
	"converse/internal/mnet"
)

const (
	streamWindow = 64
	streamBytes  = 256 // whole message, header included
	streamSrc    = 1
	streamDst    = 2
	streamPEs    = 4
)

// streamJob is the shared state of one stream; every field has a
// single writer PE.
type streamJob struct {
	windows int                // windows PE 1 sends
	between func(w int)        // PE 1 calls it before window w and after the last (may be nil)
	sent    uint64             // PE 1: messages sent
	acks    int                // PE 1: windows acknowledged
	next    uint64             // PE 2: next expected sequence number
	bad     []string           // PE 2: what was wrong, first few only
	nbad    int                // PE 2: bad messages
	stop    [streamPEs]bool    // set on each PE by the stop handler
	reg     *metrics.Registry  // attached to both nodes (may be nil)
	nodes   [2]*mnet.Node      // for the caller's inspection after run
	cfg     func(*mnet.Config) // adjusts each node's config (may be nil)
}

// fill writes message seq's payload: its sequence number, then bytes
// derived from it, so a stale or reused buffer cannot pass the check.
func streamFill(pl []byte, seq uint64) {
	binary.LittleEndian.PutUint64(pl, seq)
	for i := 8; i < len(pl); i++ {
		pl[i] = byte(seq*131 + uint64(i))
	}
}

// streamCheck reports what is wrong with message seq's payload, if
// anything.
func streamCheck(pl []byte, want uint64) string {
	if len(pl) != streamBytes-core.HeaderSize {
		return fmt.Sprintf("message %d: %d payload bytes, want %d", want, len(pl), streamBytes-core.HeaderSize)
	}
	if got := binary.LittleEndian.Uint64(pl); got != want {
		return fmt.Sprintf("message %d arrived as %d (lost, duplicated, or reordered)", want, got)
	}
	for i := 8; i < len(pl); i++ {
		if pl[i] != byte(want*131+uint64(i)) {
			return fmt.Sprintf("message %d: payload byte %d is %#x, want %#x", want, i, pl[i], byte(want*131+uint64(i)))
		}
	}
	return ""
}

// run brings up the job and streams to completion.
func (sj *streamJob) run(tb testing.TB, hb time.Duration) {
	tb.Helper()
	runNodes(tb, 2, hb, sj.reg, sj.cfg, func(rank int, n *mnet.Node, cm *core.Machine) func(*core.Proc) {
		sj.nodes[rank] = n
		return sj.program(cm)
	})
}

// runNodes runs one core program on two in-process nodes of ppn PEs
// each, failing tb on any node error. adjust (may be nil) changes each
// node's config before it joins; reg (may be nil) is attached to both
// nodes; program registers its handlers on a node's machine and
// returns the PE driver.
func runNodes(tb testing.TB, ppn int, hb time.Duration, reg *metrics.Registry, adjust func(*mnet.Config),
	program func(rank int, n *mnet.Node, cm *core.Machine) func(*core.Proc)) {
	tb.Helper()
	pes := 2 * ppn
	addr, failCh := mnet.StartTestJob(tb, 2, hb, ppn)
	var wg sync.WaitGroup
	errs := make([]error, 2)
	for rank := 0; rank < 2; rank++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			cfg := mnet.Config{
				Launcher: addr, Token: mnet.TestToken,
				Rank: rank, NP: 2, PEs: pes, PPN: ppn, Round: 1,
				Heartbeat: hb, Handshake: 10 * time.Second,
			}
			if adjust != nil {
				adjust(&cfg)
			}
			n, err := mnet.Join(cfg)
			if err != nil {
				errs[rank] = err
				return
			}
			defer n.Close()
			cm := core.NewMachineOn(n, core.Config{PEs: pes, Watchdog: 60 * time.Second, Metrics: reg})
			if reg != nil {
				n.SetMetrics(reg.PE(n.ID()))
			}
			errs[rank] = cm.Run(program(rank, n, cm))
		}(rank)
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case err := <-failCh:
		tb.Fatalf("job failed: %v", err)
	}
	for rank, err := range errs {
		if err != nil {
			tb.Fatalf("rank %d: %v", rank, err)
		}
	}
}

// program registers the stream handlers on one node's machine and
// returns its PE driver: PE 1 streams, the others serve until stopped.
func (sj *streamJob) program(cm *core.Machine) func(*core.Proc) {
	var hData, hAck, hStop int
	hData = cm.RegisterHandler(func(p *core.Proc, msg []byte) {
		if why := streamCheck(core.Payload(msg), sj.next); why != "" {
			if sj.nbad++; len(sj.bad) < 5 {
				sj.bad = append(sj.bad, why)
			}
		}
		sj.next++
		if sj.next%streamWindow == 0 {
			ack := p.Alloc(8)
			core.SetHandler(ack, hAck)
			binary.LittleEndian.PutUint64(core.Payload(ack), sj.next)
			p.SyncSendAndFree(streamSrc, ack)
		}
	})
	hAck = cm.RegisterHandler(func(p *core.Proc, msg []byte) { sj.acks++ })
	hStop = cm.RegisterHandler(func(p *core.Proc, msg []byte) { sj.stop[p.MyPe()] = true })
	return func(p *core.Proc) {
		me := p.MyPe()
		if me != streamSrc {
			p.ServeUntil(func() bool { return sj.stop[me] })
			return
		}
		want := 0
		acked := func() bool { return sj.acks == want }
		for w := 0; w < sj.windows; w++ {
			if sj.between != nil {
				sj.between(w)
			}
			for k := 0; k < streamWindow; k++ {
				msg := p.Alloc(streamBytes - core.HeaderSize)
				core.SetHandler(msg, hData)
				streamFill(core.Payload(msg), sj.sent)
				p.SyncSendAndFree(streamDst, msg)
				sj.sent++
			}
			want++
			p.ServeUntil(acked)
		}
		if sj.between != nil {
			sj.between(sj.windows)
		}
		for _, pe := range []int{0, streamDst, 3} {
			p.SyncSendAndFree(pe, core.MakeMsg(hStop, nil))
		}
	}
}

// TestNetStreamUnderFaultPlan streams under FailRetry with a seeded
// plan that drops, duplicates, reorders and corrupts data frames, and
// cuts the link halfway so the session resumes with a replay. Every
// sent buffer is recycled through the node's depot — but only once the
// peer's ack has pruned it from the retransmit ring — and refilled with
// the next message's bytes. If a buffer were recycled while a replay
// could still send it, the replay would carry a newer message's bytes
// and the byte-for-byte check would fail. Run under -race by `make
// race`, it also proves the hand-back from the ack path to the writer.
func TestNetStreamUnderFaultPlan(t *testing.T) {
	sj := &streamJob{
		windows: 40,
		reg:     metrics.New(streamPEs),
		cfg: func(c *mnet.Config) {
			c.FailurePolicy = mnet.FailRetry
			c.RecoveryWindow = 10 * time.Second
			c.Faults = "seed=23,drop=3%,dup=3%,reorder=3%,corrupt=2%"
		},
	}
	sj.between = func(w int) {
		if w == sj.windows/2 {
			sj.nodes[0].CutLinkForTest(1)
		}
	}
	sj.run(t, 50*time.Millisecond)
	if sj.nbad != 0 {
		t.Fatalf("%d of %d messages arrived wrong, first: %v", sj.nbad, sj.sent, sj.bad)
	}
	if want := uint64(sj.windows * streamWindow); sj.next != want || sj.sent != want {
		t.Fatalf("sent %d, received %d, want %d", sj.sent, sj.next, want)
	}
	// The plan must have bitten, and the layer repaired it.
	var retrans, crc uint64
	for _, pe := range sj.reg.Snapshot().PEs {
		retrans += pe.NetRetransmits
		crc += pe.NetCrcErrors
	}
	if retrans == 0 || crc == 0 {
		t.Errorf("retransmits=%d crc_errors=%d, want both nonzero under the plan", retrans, crc)
	}
	if sj.nodes[0].LinkRecoveriesForTest()+sj.nodes[1].LinkRecoveriesForTest() == 0 {
		t.Error("no link recoveries recorded; the cut did not exercise session replay")
	}
}

// BenchmarkNetStream is the tcp allocation gate: one op is a window of
// 64 messages of 256 B from PE 1 to PE 2 across the link, plus the ack
// back. Every buffer circulates through the PEs' pools and the nodes'
// depots, so in the steady state the send → frame → receive →
// dispatch path allocates nothing.
func BenchmarkNetStream(b *testing.B) {
	const warm = 200
	sj := &streamJob{windows: warm + b.N}
	sj.between = func(w int) {
		switch w {
		case warm:
			b.ReportAllocs()
			b.ResetTimer()
		case warm + b.N:
			b.StopTimer()
		}
	}
	sj.run(b, time.Second)
	if sj.nbad != 0 {
		b.Fatalf("%d messages arrived wrong, first: %v", sj.nbad, sj.bad)
	}
}

// BenchmarkNetPingPong is the one-message tcp gate: one op is a 64 B
// SyncSendAndFree from PE 0 to PE 1 on the other node and the 64 B
// reply back, each a pack of one on the coalescing path. Like the
// stream, the steady state allocates nothing.
func BenchmarkNetPingPong(b *testing.B) {
	const (
		warm  = 500
		bytes = 64 // whole message, header included
	)
	// pongs has PE 0 as its one writer; stop[pe] has pe.
	var (
		pongs int
		stop  [2]bool
	)
	runNodes(b, 1, time.Second, nil, nil, func(_ int, _ *mnet.Node, cm *core.Machine) func(*core.Proc) {
		var hPing, hPong, hStop int
		hPing = cm.RegisterHandler(func(p *core.Proc, msg []byte) {
			pong := p.Alloc(bytes - core.HeaderSize)
			core.SetHandler(pong, hPong)
			p.SyncSendAndFree(0, pong)
		})
		hPong = cm.RegisterHandler(func(p *core.Proc, msg []byte) { pongs++ })
		hStop = cm.RegisterHandler(func(p *core.Proc, msg []byte) { stop[p.MyPe()] = true })
		return func(p *core.Proc) {
			if p.MyPe() == 1 {
				p.ServeUntil(func() bool { return stop[1] })
				return
			}
			want := 0
			ponged := func() bool { return pongs == want }
			for i := 0; i < warm+b.N; i++ {
				if i == warm {
					b.ReportAllocs()
					b.ResetTimer()
				}
				ping := p.Alloc(bytes - core.HeaderSize)
				core.SetHandler(ping, hPing)
				p.SyncSendAndFree(1, ping)
				want++
				p.ServeUntil(ponged)
			}
			b.StopTimer()
			p.SyncSendAndFree(1, core.MakeMsg(hStop, nil))
		}
	})
}
