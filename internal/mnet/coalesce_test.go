package mnet_test

// The coalescing contract on the TCP machine, which always coalesces:
// small inter-node sends share one link frame, yet every message
// arrives once, intact and in per-pair order across the pack/direct
// boundary; sends within a node are never staged; a driver that sends
// and returns still delivers; and under FailRetry a plan that drops,
// duplicates and corrupts pack frames loses nothing.

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"converse/internal/core"
	"converse/internal/metrics"
	"converse/internal/mnet"
)

// seqMsg builds message seq of the given payload size (at least 4):
// the sequence number, then bytes derived from it.
func seqMsg(p *core.Proc, h int, seq uint32, size int) []byte {
	msg := p.Alloc(size)
	core.SetHandler(msg, h)
	pl := core.Payload(msg)
	binary.LittleEndian.PutUint32(pl, seq)
	for i := 4; i < len(pl); i++ {
		pl[i] = byte(seq*37 + uint32(i))
	}
	return msg
}

// seqCheck reports what is wrong with a message that should be seq.
func seqCheck(msg []byte, seq uint32, size int) string {
	pl := core.Payload(msg)
	if len(pl) != size {
		return fmt.Sprintf("message %d: %d payload bytes, want %d", seq, len(pl), size)
	}
	if got := binary.LittleEndian.Uint32(pl); got != seq {
		return fmt.Sprintf("message %d arrived as %d (lost, duplicated or reordered)", seq, got)
	}
	for i := 4; i < len(pl); i++ {
		if pl[i] != byte(seq*37+uint32(i)) {
			return fmt.Sprintf("message %d: payload byte %d corrupt", seq, i)
		}
	}
	return ""
}

// seqStream is one checked stream from a sender PE to a receiver PE:
// the plan of message sizes and kinds, and the receiver's progress.
// The plan is read-only; next and bad have the receiver as their one
// writer.
type seqStream struct {
	src, dst int
	sizes    []int
	imm      []bool
	next     int      // receiver: next expected message
	bad      []string // receiver: first few problems
}

// recv checks one arrival against the plan.
func (s *seqStream) recv(msg []byte) {
	why := "message past the end of the stream"
	if s.next < len(s.sizes) {
		why = seqCheck(msg, uint32(s.next), s.sizes[s.next])
	}
	if why != "" && len(s.bad) < 5 {
		s.bad = append(s.bad, why)
	}
	s.next++
}

// mixedStream plans n messages from src to dst: mostly small ones that
// coalesce, some larger than the 512 B staging limit, and some
// immediate ones, which are never staged.
func mixedStream(src, dst int, seed int64, n int) *seqStream {
	rng := rand.New(rand.NewSource(seed))
	s := &seqStream{src: src, dst: dst, sizes: make([]int, n), imm: make([]bool, n)}
	for i := range s.sizes {
		switch r := rng.Intn(10); {
		case r < 6:
			s.sizes[i] = 4 + rng.Intn(250)
		case r < 8:
			s.sizes[i] = 600 + rng.Intn(3000)
		default:
			s.sizes[i] = 4 + rng.Intn(100)
			s.imm[i] = true
		}
	}
	return s
}

// smallStream plans n small messages from src to dst, all of which
// coalesce across nodes.
func smallStream(src, dst int, seed int64, n int) *seqStream {
	rng := rand.New(rand.NewSource(seed))
	s := &seqStream{src: src, dst: dst, sizes: make([]int, n), imm: make([]bool, n)}
	for i := range s.sizes {
		s.sizes[i] = 4 + rng.Intn(250)
	}
	return s
}

// streamsProgram is a runNodes program that sends every stream and
// checks it on arrival, with one handler per stream (registered in the
// same order on both nodes). A PE serves until every stream addressed
// to it is complete; one that receives nothing returns right after
// sending, so whatever it left staged reaches the wire only through
// the driver-exit flush.
func streamsProgram(streams ...*seqStream) func(int, *mnet.Node, *core.Machine) func(*core.Proc) {
	return func(_ int, _ *mnet.Node, cm *core.Machine) func(*core.Proc) {
		hs := make([]int, len(streams))
		for k, s := range streams {
			hs[k] = cm.RegisterHandler(func(p *core.Proc, msg []byte) { s.recv(msg) })
		}
		return func(p *core.Proc) {
			me := p.MyPe()
			for k, s := range streams {
				if s.src != me {
					continue
				}
				for i, size := range s.sizes {
					msg := seqMsg(p, hs[k], uint32(i), size)
					if s.imm[i] {
						core.SetImmediate(msg)
					}
					p.SyncSendAndFree(s.dst, msg)
				}
			}
			p.ServeUntil(func() bool {
				for _, s := range streams {
					if s.dst == me && s.next < len(s.sizes) {
						return false
					}
				}
				return true
			})
		}
	}
}

// checkStreams fails the test for any stream that did not arrive
// exactly as planned.
func checkStreams(t *testing.T, streams ...*seqStream) {
	t.Helper()
	for _, s := range streams {
		if len(s.bad) > 0 || s.next != len(s.sizes) {
			t.Errorf("stream %d->%d: received %d of %d, problems: %v", s.src, s.dst, s.next, len(s.sizes), s.bad)
		}
	}
}

// TestNetCoalescedPerPairFIFO interleaves small, larger-than-limit and
// immediate messages on two inter-node streams, one each way, while
// both nodes also run a small-message stream between their own PEs.
// Every message must arrive once, intact, in send order; the inter-node
// senders must have staged their small messages into packs, and the
// intra-node senders must have staged nothing.
func TestNetCoalescedPerPairFIFO(t *testing.T) {
	cross := []*seqStream{mixedStream(1, 2, 1, 3000), mixedStream(3, 0, 2, 3000)}
	local := []*seqStream{smallStream(0, 1, 3, 1000), smallStream(2, 3, 4, 1000)}
	all := append(append([]*seqStream{}, cross...), local...)
	reg := metrics.New(4)
	runNodes(t, 2, time.Second, reg, nil, streamsProgram(all...))
	checkStreams(t, all...)

	snap := reg.Snapshot()
	for _, s := range cross {
		small := 0
		for i, size := range s.sizes {
			if !s.imm[i] && size+core.HeaderSize <= 512 {
				small++
			}
		}
		pe := snap.PEs[s.src]
		if pe.CoalesceStaged != uint64(small) {
			t.Errorf("PE %d staged %d messages, want its %d small non-immediate ones", s.src, pe.CoalesceStaged, small)
		}
		if pe.CoalescePacks == 0 || pe.CoalescePacks >= pe.CoalesceStaged {
			t.Errorf("PE %d sent %d packs for %d staged messages", s.src, pe.CoalescePacks, pe.CoalesceStaged)
		}
		if got := snap.PEs[s.dst].CoalesceUnpacked; got != uint64(small) {
			t.Errorf("PE %d unpacked %d messages, want %d", s.dst, got, small)
		}
	}
	// PEs 0 and 2 send only within their node (PE 3 and PE 1 are the
	// cross senders), so their pack counters must stay 0.
	for _, s := range local {
		if pe := snap.PEs[s.src]; pe.CoalesceStaged != 0 || pe.CoalescePacks != 0 {
			t.Errorf("PE %d staged %d messages into %d packs for a same-node peer", s.src, pe.CoalesceStaged, pe.CoalescePacks)
		}
	}
}

// TestNetDriverExitFlush sends fewer small messages than fill a pack
// and returns from the driver at once: only the flush at driver return
// can put them on the wire.
func TestNetDriverExitFlush(t *testing.T) {
	s := smallStream(1, 2, 5, 7)
	reg := metrics.New(4)
	runNodes(t, 2, time.Second, reg, nil, streamsProgram(s))
	checkStreams(t, s)
	if packs := reg.Snapshot().PEs[1].CoalescePacks; packs != 1 {
		t.Errorf("PE 1 sent %d packs, want its 7 messages in 1", packs)
	}
}

// TestNetCoalescedUnderFaultPlan runs mixed inter-node streams under
// FailRetry with a seeded plan that drops, duplicates and corrupts
// data frames — most of which are packs — and requires every message
// exactly once, intact and in order, with the plan visibly repaired.
func TestNetCoalescedUnderFaultPlan(t *testing.T) {
	// Sized like TestNetStreamUnderFaultPlan: a few hundred frames each
	// way. Recovery is go-back-N over a 1024-frame window, so at this
	// fault rate every repaired fault replays the frames behind it, and
	// thousands of frames per direction take tens of seconds.
	streams := []*seqStream{mixedStream(1, 2, 6, 800), mixedStream(2, 1, 7, 800)}
	reg := metrics.New(4)
	runNodes(t, 2, 50*time.Millisecond, reg, func(c *mnet.Config) {
		c.FailurePolicy = mnet.FailRetry
		c.RecoveryWindow = 10 * time.Second
		c.Faults = "seed=31,drop=3%,dup=3%,corrupt=2%"
	}, streamsProgram(streams...))
	checkStreams(t, streams...)
	var retrans, crc, dups, packs uint64
	for _, pe := range reg.Snapshot().PEs {
		retrans += pe.NetRetransmits
		crc += pe.NetCrcErrors
		dups += pe.NetDupDrops
		packs += pe.CoalescePacks
	}
	if retrans == 0 || crc == 0 || dups == 0 || packs == 0 {
		t.Errorf("retransmits=%d crc_errors=%d dup_drops=%d packs=%d, want all nonzero under the plan", retrans, crc, dups, packs)
	}
}
