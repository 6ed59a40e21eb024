package core

import (
	"encoding/binary"
	"sync/atomic"
	"testing"
	"time"
)

// The two-level collectives (bcast.go, reduce.go) over explicit node
// maps: correctness must not depend on the machine's nodes×PEs shape,
// only the routing does.

var nodeMaps = [][]int{
	nil,             // flat: one node per PE
	{1, 3, 4},       // asymmetric, the ISSUE's example
	{4, 4},          // two symmetric SMP nodes
	{8},             // everything on one node (pure intra-node fan-out)
	{2, 1, 2, 1, 2}, // alternating
}

func pesOf(sizes []int) int {
	if sizes == nil {
		return 8
	}
	n := 0
	for _, s := range sizes {
		n += s
	}
	return n
}

func TestBroadcastAllNodeMapsAndRoots(t *testing.T) {
	for _, sizes := range nodeMaps {
		pes := pesOf(sizes)
		for _, root := range []int{0, pes / 2, pes - 1} {
			cm := NewMachine(Config{PEs: pes, NodeSizes: sizes, Watchdog: 15 * time.Second})
			recv := make([]int64, pes)
			h := cm.RegisterHandler(func(p *Proc, msg []byte) {
				atomic.AddInt64(&recv[p.MyPe()], 1)
				if string(Payload(msg)) != "node-bcast" {
					t.Errorf("sizes=%v root=%d pe=%d payload corrupted", sizes, root, p.MyPe())
				}
				p.ExitScheduler()
			})
			err := cm.Run(func(p *Proc) {
				if p.MyPe() == root {
					p.Broadcast(MakeMsg(h, []byte("node-bcast")))
				}
				p.Scheduler(-1)
			})
			if err != nil {
				t.Fatalf("sizes=%v root=%d: %v", sizes, root, err)
			}
			for pe, n := range recv {
				if n != 1 {
					t.Errorf("sizes=%v root=%d: pe %d received %d copies, want 1", sizes, root, pe, n)
				}
			}
		}
	}
}

func TestBroadcastExcludeSelfOnNodeMap(t *testing.T) {
	const root = 5 // node 2 of {1,3,4}, not a representative
	sizes := []int{1, 3, 4}
	pes := pesOf(sizes)
	cm := NewMachine(Config{PEs: pes, NodeSizes: sizes, Watchdog: 15 * time.Second})
	recv := make([]int64, pes)
	h := cm.RegisterHandler(func(p *Proc, msg []byte) {
		atomic.AddInt64(&recv[p.MyPe()], 1)
		p.ExitScheduler()
	})
	err := cm.Run(func(p *Proc) {
		if p.MyPe() == root {
			p.Broadcast(MakeMsg(h, nil), ExcludeSelf)
			p.Scheduler(pes) // serve relay traffic; returns at idle
			return
		}
		p.Scheduler(-1)
	})
	if err != nil {
		t.Fatal(err)
	}
	for pe, n := range recv {
		want := int64(1)
		if pe == root {
			want = 0
		}
		if n != want {
			t.Errorf("pe %d received %d copies, want %d", pe, n, want)
		}
	}
}

// TestReduceSumOverNodeMaps: every PE contributes its rank+1; the
// merged sum must arrive exactly once, on PE 0, whatever the node map.
func TestReduceSumOverNodeMaps(t *testing.T) {
	for _, sizes := range nodeMaps {
		pes := pesOf(sizes)
		cm := NewMachine(Config{PEs: pes, NodeSizes: sizes, Watchdog: 15 * time.Second})
		sum := cm.RegisterCombiner(func(a, b []byte) []byte {
			binary.LittleEndian.PutUint64(a, binary.LittleEndian.Uint64(a)+binary.LittleEndian.Uint64(b))
			return a
		})
		var got atomic.Int64
		var hDone, hStop int
		hDone = cm.RegisterHandler(func(p *Proc, msg []byte) {
			got.Store(int64(binary.LittleEndian.Uint64(Payload(msg))))
			p.Broadcast(MakeMsg(hStop, nil))
		})
		hStop = cm.RegisterHandler(func(p *Proc, msg []byte) { p.ExitScheduler() })
		err := cm.Run(func(p *Proc) {
			msg := NewMsg(hDone, 8)
			binary.LittleEndian.PutUint64(Payload(msg), uint64(p.MyPe()+1))
			p.Reduce(sum, msg, Transfer)
			p.Scheduler(-1)
		})
		if err != nil {
			t.Fatalf("sizes=%v: %v", sizes, err)
		}
		want := int64(pes * (pes + 1) / 2)
		if got.Load() != want {
			t.Errorf("sizes=%v: reduced sum = %d, want %d", sizes, got.Load(), want)
		}
	}
}

// TestReduceSequencesMatchByCallOrder: back-to-back reductions with
// different data must not cross-merge even though their envelopes are
// in flight concurrently.
func TestReduceSequencesMatchByCallOrder(t *testing.T) {
	sizes := []int{1, 3, 4}
	pes := pesOf(sizes)
	const rounds = 5
	cm := NewMachine(Config{PEs: pes, NodeSizes: sizes, Watchdog: 15 * time.Second})
	max := cm.RegisterCombiner(func(a, b []byte) []byte {
		if binary.LittleEndian.Uint64(b) > binary.LittleEndian.Uint64(a) {
			return b
		}
		return a
	})
	var results []uint64
	var hDone, hStop int
	hDone = cm.RegisterHandler(func(p *Proc, msg []byte) {
		results = append(results, binary.LittleEndian.Uint64(Payload(msg)))
		if len(results) == rounds {
			p.Broadcast(MakeMsg(hStop, nil))
		}
	})
	hStop = cm.RegisterHandler(func(p *Proc, msg []byte) { p.ExitScheduler() })
	err := cm.Run(func(p *Proc) {
		for r := 0; r < rounds; r++ {
			msg := NewMsg(hDone, 8)
			// Max over PEs of 1000*(r+1)+pe: distinct per round.
			binary.LittleEndian.PutUint64(Payload(msg), uint64(1000*(r+1)+p.MyPe()))
			p.Reduce(max, msg, Transfer)
		}
		p.Scheduler(-1)
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != rounds {
		t.Fatalf("PE 0 saw %d reduction results, want %d", len(results), rounds)
	}
	for r, got := range results {
		if want := uint64(1000*(r+1) + pes - 1); got != want {
			t.Errorf("round %d: max = %d, want %d", r, got, want)
		}
	}
}

// TestBarrierSeparatesRounds: no processor may leave barrier k before
// every processor has entered it, on any node map.
func TestBarrierSeparatesRounds(t *testing.T) {
	for _, sizes := range [][]int{nil, {1, 3, 4}, {4, 4}} {
		pes := pesOf(sizes)
		const rounds = 3
		cm := NewMachine(Config{PEs: pes, NodeSizes: sizes, Watchdog: 15 * time.Second})
		var entered [rounds]atomic.Int64
		err := cm.Run(func(p *Proc) {
			for r := 0; r < rounds; r++ {
				entered[r].Add(1)
				p.Barrier()
				if got := entered[r].Load(); got != int64(pes) {
					t.Errorf("sizes=%v: pe %d left barrier %d with %d/%d entered", sizes, p.MyPe(), r, got, pes)
				}
			}
		})
		if err != nil {
			t.Fatalf("sizes=%v: %v", sizes, err)
		}
	}
}

// TestSendSentinelsUseTree: the BroadcastOthers/BroadcastAll sentinels
// must deliver over the same tree implementation (one copy everywhere)
// on an explicit node map.
func TestSendSentinelsUseTree(t *testing.T) {
	sizes := []int{2, 3, 3}
	pes := pesOf(sizes)
	cm := NewMachine(Config{PEs: pes, NodeSizes: sizes, Watchdog: 15 * time.Second})
	recv := make([]int64, pes)
	h := cm.RegisterHandler(func(p *Proc, msg []byte) {
		atomic.AddInt64(&recv[p.MyPe()], 1)
		p.ExitScheduler()
	})
	err := cm.Run(func(p *Proc) {
		if p.MyPe() == 3 {
			p.Send(BroadcastAll, MakeMsg(h, nil), Transfer)
		}
		p.Scheduler(-1)
	})
	if err != nil {
		t.Fatal(err)
	}
	for pe, n := range recv {
		if n != 1 {
			t.Errorf("pe %d received %d copies, want 1", pe, n)
		}
	}
}

// TestAllReduceDeliversEverywhere: an AllReduce's merged message is
// dispatched exactly once on every PE, PE 0 included, whatever the node
// map, and back-to-back AllReduces keep their results apart.
func TestAllReduceDeliversEverywhere(t *testing.T) {
	for _, sizes := range nodeMaps {
		pes := pesOf(sizes)
		const rounds = 3
		cm := NewMachine(Config{PEs: pes, NodeSizes: sizes, Watchdog: 15 * time.Second})
		sum := cm.RegisterCombiner(func(a, b []byte) []byte {
			binary.LittleEndian.PutUint64(a, binary.LittleEndian.Uint64(a)+binary.LittleEndian.Uint64(b))
			return a
		})
		got := make([][]uint64, pes)
		h := cm.RegisterHandler(func(p *Proc, msg []byte) {
			got[p.MyPe()] = append(got[p.MyPe()], binary.LittleEndian.Uint64(Payload(msg)))
		})
		err := cm.Run(func(p *Proc) {
			for r := 0; r < rounds; r++ {
				msg := NewMsg(h, 8)
				binary.LittleEndian.PutUint64(Payload(msg), uint64((r+1)*(p.MyPe()+1)))
				p.AllReduce(sum, msg, Transfer)
			}
			p.ServeUntil(func() bool { return len(got[p.MyPe()]) == rounds })
		})
		if err != nil {
			t.Fatalf("sizes=%v: %v", sizes, err)
		}
		for pe, vals := range got {
			for r, v := range vals {
				if want := uint64((r + 1) * pes * (pes + 1) / 2); v != want {
					t.Errorf("sizes=%v pe %d round %d: %d, want %d", sizes, pe, r, v, want)
				}
			}
		}
	}
}

// TestSpanTreeParentMatchesReduction: SpanTreeParent describes the tree
// reductions merge along — every PE but 0 has a parent on a lower
// numbered PE, non-representatives hang off their own node's first PE,
// and following parents from any PE reaches PE 0.
func TestSpanTreeParentMatchesReduction(t *testing.T) {
	for _, sizes := range nodeMaps {
		pes := pesOf(sizes)
		cm := NewMachine(Config{PEs: pes, NodeSizes: sizes})
		p := cm.Proc(0)
		for pe := 0; pe < pes; pe++ {
			par := p.SpanTreeParent(pe)
			switch {
			case pe == 0 && par != -1:
				t.Errorf("sizes=%v: PE 0 has parent %d", sizes, par)
			case pe != 0 && (par < 0 || par >= pe):
				t.Errorf("sizes=%v: PE %d has parent %d", sizes, pe, par)
			case pe != p.NodeFirstPE(p.NodeOf(pe)) && par != p.NodeFirstPE(p.NodeOf(pe)):
				t.Errorf("sizes=%v: PE %d hangs off %d, not its node's first PE", sizes, pe, par)
			}
		}
	}
}

// TestReduceAllReduceMixPanics: a Reduce on one PE meeting an AllReduce
// on another at the same collective position is a call-order mismatch.
func TestReduceAllReduceMixPanics(t *testing.T) {
	cm := NewMachine(Config{PEs: 2, Watchdog: 5 * time.Second})
	first := cm.RegisterCombiner(func(a, _ []byte) []byte { return a })
	var done bool // PE 0 only
	h := cm.RegisterHandler(func(*Proc, []byte) { done = true })
	err := cm.Run(func(p *Proc) {
		if p.MyPe() == 0 {
			p.Reduce(first, NewMsg(h, 0), Transfer)
			p.ServeUntil(func() bool { return done })
			return
		}
		p.AllReduce(first, NewMsg(h, 0), Transfer)
	})
	if err == nil {
		t.Fatal("mixed Reduce/AllReduce at one position did not error")
	}
}

// TestReduceKeepsMergeWhenCombinerReturnsItsArgument: a combiner may
// return the incoming payload, which belongs to a message the CMI
// recycles after its handler. The merge must survive that buffer being
// handed out again by the pool before the reduction completes. On three
// flat PEs, PE 0 merges PE 1's contribution, reuses its pool, and only
// then lets PE 2 contribute.
func TestReduceKeepsMergeWhenCombinerReturnsItsArgument(t *testing.T) {
	cm := NewMachine(Config{PEs: 3, Watchdog: 15 * time.Second})
	larger := cm.RegisterCombiner(func(a, b []byte) []byte {
		if b[0] > a[0] {
			return b
		}
		return a
	})
	const size = 56 // big enough for the pool to recycle its envelope
	var got byte
	var done, sawPE1 bool // PE 0 only
	var goAhead atomic.Bool
	hDone := cm.RegisterHandler(func(p *Proc, msg []byte) { got, done = Payload(msg)[0], true })
	hPE1 := cm.RegisterHandler(func(p *Proc, msg []byte) { sawPE1 = true })
	hGo := cm.RegisterHandler(func(p *Proc, msg []byte) { goAhead.Store(true) })
	err := cm.Run(func(p *Proc) {
		contribute := func(v byte) {
			msg := NewMsg(hDone, size)
			Payload(msg)[0] = v
			p.Reduce(larger, msg, Transfer)
		}
		switch p.MyPe() {
		case 0:
			contribute(1)
			p.ServeUntil(func() bool { return sawPE1 })
			var junk [][]byte
			for i := 0; i < 4; i++ {
				buf := p.Alloc(size)
				for j := range buf {
					buf[j] = 0xee
				}
				junk = append(junk, buf)
			}
			for _, buf := range junk {
				p.recycle(buf)
			}
			p.SyncSend(2, NewMsg(hGo, 0))
			p.ServeUntil(func() bool { return done })
		case 1:
			contribute(5)
			p.SyncSend(0, NewMsg(hPE1, 0)) // after the contribution (FIFO)
		case 2:
			p.ServeUntil(goAhead.Load)
			contribute(3)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if got != 5 {
		t.Fatalf("reduced max = %#x, want 5", got)
	}
}

// TestReduceTreeAnyRoot: the machine tree can be rooted at any PE. Each
// PE runs one ReduceTree per root, back to back, so non-roots race ahead
// into reductions with other roots; every root must get the full sum
// and every other PE nil.
func TestReduceTreeAnyRoot(t *testing.T) {
	for _, sizes := range nodeMaps {
		pes := pesOf(sizes)
		cm := NewMachine(Config{PEs: pes, NodeSizes: sizes, Watchdog: 15 * time.Second})
		sum := cm.RegisterCombiner(func(a, b []byte) []byte {
			binary.LittleEndian.PutUint64(a, binary.LittleEndian.Uint64(a)+binary.LittleEndian.Uint64(b))
			return a
		})
		err := cm.Run(func(p *Proc) {
			for root := range pes {
				got := p.ReduceTree(nil, root, sum, binary.LittleEndian.AppendUint64(nil, uint64(p.MyPe()+1)))
				switch {
				case p.MyPe() != root && got != nil:
					t.Errorf("sizes=%v root=%d: pe %d got %v, want nil", sizes, root, p.MyPe(), got)
				case p.MyPe() == root && binary.LittleEndian.Uint64(got) != uint64(pes*(pes+1)/2):
					t.Errorf("sizes=%v root=%d: sum %d, want %d", sizes, root, binary.LittleEndian.Uint64(got), pes*(pes+1)/2)
				}
			}
		})
		if err != nil {
			t.Fatalf("sizes=%v: %v", sizes, err)
		}
	}
}

// TestExplicitTreeLayout pins the explicit-tree descriptor core parses
// to the bytes the EMI's Pgrp.Encode writes for group 0x42 with root 3
// and children 1 and 2 (the same bytes as emi's TestEncodeLayout).
func TestExplicitTreeLayout(t *testing.T) {
	tree := []byte{
		0x42, 0, 0, 0, 0, 0, 0, 0, // id
		3, 0, 0, 0, // members
		3, 0, 0, 0, 0xff, 0xff, 0xff, 0xff, // pe 3, root
		1, 0, 0, 0, 0, 0, 0, 0, // pe 1, child of member 0
		2, 0, 0, 0, 0, 0, 0, 0, // pe 2, child of member 0
	}
	if id, n := treeID(tree), treeLen(tree); id != 0x42 || n != 3 || len(tree) != treeDescHdr+8*n {
		t.Fatalf("id %#x, %d members", id, n)
	}
	for i, want := range [][2]int{{3, -1}, {1, 0}, {2, 0}} {
		if pe, par := treeMember(tree, i); pe != want[0] || par != want[1] {
			t.Errorf("member %d = (pe %d, parent %d), want %v", i, pe, par, want)
		}
	}
	if i := treeIndex(tree, 2); i != 2 {
		t.Errorf("treeIndex(2) = %d", i)
	}
}
