package emi

import (
	"bytes"
	"encoding/binary"
	"sync/atomic"
	"testing"
	"testing/quick"
	"time"

	"converse/internal/core"
)

func newMachine(pes int) *core.Machine {
	return core.NewMachine(core.Config{PEs: pes, Watchdog: 10 * time.Second})
}

// --- scatter ---

func TestScatterMatchesAndCopies(t *testing.T) {
	cm := newMachine(2)
	fallback := cm.RegisterHandler(func(p *core.Proc, msg []byte) {
		t.Error("scattered message reached its handler")
	})
	err := cm.Run(func(p *core.Proc) {
		if p.MyPe() == 1 {
			msg := core.NewMsg(fallback, 12)
			pl := core.Payload(msg)
			binary.LittleEndian.PutUint32(pl[0:], 0xabcd)
			copy(pl[4:], "datadata")
			p.SyncSendAndFree(0, msg)
			return
		}
		a := make([]byte, 4)
		b := make([]byte, 4)
		reg := RegisterScatter(p,
			[]Match{{Offset: core.HeaderSize, Value: 0xabcd}},
			[]Segment{
				{MsgOffset: core.HeaderSize + 4, Dst: a},
				{MsgOffset: core.HeaderSize + 8, Dst: b},
			})
		p.ServeUntil(reg.Done)
		if string(a) != "data" || string(b) != "data" {
			t.Errorf("scattered a=%q b=%q", a, b)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestScatterNotify(t *testing.T) {
	cm := newMachine(2)
	notified := false
	payload := cm.RegisterHandler(func(p *core.Proc, msg []byte) {
		t.Error("scattered message dispatched to payload handler")
	})
	var hNotify int
	hNotify = cm.RegisterHandler(func(p *core.Proc, msg []byte) {
		notified = true
		p.ExitScheduler()
	})
	err := cm.Run(func(p *core.Proc) {
		if p.MyPe() == 1 {
			msg := core.NewMsg(payload, 8)
			binary.LittleEndian.PutUint32(core.Payload(msg), 7)
			copy(core.Payload(msg)[4:], "wxyz")
			p.SyncSendAndFree(0, msg)
			return
		}
		dst := make([]byte, 4)
		RegisterScatterNotify(p,
			[]Match{{Offset: core.HeaderSize, Value: 7}},
			[]Segment{{MsgOffset: core.HeaderSize + 4, Dst: dst}},
			hNotify)
		p.Scheduler(-1)
		if !notified || string(dst) != "wxyz" {
			t.Errorf("notified=%v dst=%q", notified, dst)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestScatterNonMatchingPassesThrough(t *testing.T) {
	cm := newMachine(1)
	delivered := false
	h := cm.RegisterHandler(func(p *core.Proc, msg []byte) {
		delivered = true
		p.ExitScheduler()
	})
	err := cm.Run(func(p *core.Proc) {
		RegisterScatter(p,
			[]Match{{Offset: core.HeaderSize, Value: 999}},
			nil)
		msg := core.NewMsg(h, 4)
		binary.LittleEndian.PutUint32(core.Payload(msg), 1) // != 999
		p.SyncSendAndFree(0, msg)
		p.Scheduler(-1)
	})
	if err != nil {
		t.Fatal(err)
	}
	if !delivered {
		t.Fatal("non-matching message was not delivered normally")
	}
}

func TestScatterOneShot(t *testing.T) {
	cm := newMachine(1)
	count := 0
	h := cm.RegisterHandler(func(p *core.Proc, msg []byte) { count++ })
	err := cm.Run(func(p *core.Proc) {
		dst := make([]byte, 0)
		RegisterScatter(p, []Match{{Offset: 0, Value: uint32(h)}}, []Segment{{MsgOffset: 0, Dst: dst}})
		// Handler index is the first header word: both messages match.
		p.SyncSendAndFree(0, core.NewMsg(h, 4))
		p.SyncSendAndFree(0, core.NewMsg(h, 4))
		p.Scheduler(2)
	})
	if err != nil {
		t.Fatal(err)
	}
	if count != 1 {
		t.Fatalf("handler ran %d times; scatter must consume exactly one message", count)
	}
}

func TestScatterCancel(t *testing.T) {
	cm := newMachine(1)
	count := 0
	h := cm.RegisterHandler(func(p *core.Proc, msg []byte) { count++ })
	err := cm.Run(func(p *core.Proc) {
		reg := RegisterScatter(p, []Match{{Offset: 0, Value: uint32(h)}}, nil)
		reg.Cancel()
		p.SyncSendAndFree(0, core.NewMsg(h, 0))
		p.Scheduler(1)
	})
	if err != nil {
		t.Fatal(err)
	}
	if count != 1 {
		t.Fatalf("cancelled scatter intercepted the message (count=%d)", count)
	}
}

// --- global pointers ---

func TestGlobalPtrEncodeDecodeProperty(t *testing.T) {
	f := func(pe uint8, id uint32) bool {
		g := GlobalPtr{PE: int(pe), ID: id}
		buf := make([]byte, GlobalPtrSize)
		g.Encode(buf)
		return DecodeGlobalPtr(buf) == g
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestGptrLocalGetPut(t *testing.T) {
	cm := newMachine(1)
	err := cm.Run(func(p *core.Proc) {
		s := Init(p)
		mem := []byte("0123456789")
		g := s.Create(mem)
		if !bytes.Equal(s.Deref(g), mem) {
			t.Error("Deref mismatch")
		}
		dst := make([]byte, 4)
		s.SyncGet(g, dst)
		if string(dst) != "0123" {
			t.Errorf("SyncGet = %q", dst)
		}
		s.SyncPut(g, []byte("AB"))
		if string(mem[:2]) != "AB" {
			t.Errorf("SyncPut result = %q", mem)
		}
		h := s.GetAt(g, 4, dst)
		if !h.Done() {
			t.Error("local GetAt not immediately done")
		}
		if string(dst) != "4567" {
			t.Errorf("GetAt(4) = %q", dst)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestGptrRemoteSyncGetPut(t *testing.T) {
	cm := newMachine(2)
	done := cm.RegisterHandler(func(p *core.Proc, msg []byte) { p.ExitScheduler() })
	err := cm.Run(func(p *core.Proc) {
		s := Init(p)
		if p.MyPe() == 0 {
			mem := []byte("remote-region-bytes")
			g := s.Create(mem)
			// Ship the pointer to PE1.
			ptr := core.NewMsg(done, GlobalPtrSize)
			g.Encode(core.Payload(ptr))
			// Reuse handler index 'done' for the pointer-carrier: PE1
			// reads it via GetSpecificMsg instead of dispatching.
			p.SyncSendAndFree(1, ptr)
			// Serve gets/puts until PE1 signals completion.
			fin := false
			p.SetExt("fin", &fin)
			p.ServeUntil(func() bool { return string(mem[:3]) == "XYZ" })
			return
		}
		msg := p.GetSpecificMsg(done)
		g := DecodeGlobalPtr(core.Payload(msg))
		dst := make([]byte, 6)
		s.SyncGet(g, dst)
		if string(dst) != "remote" {
			t.Errorf("remote SyncGet = %q", dst)
		}
		s.SyncPut(g, []byte("XYZ"))
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestGptrAsyncOverlap(t *testing.T) {
	cm := newMachine(2)
	carrier := cm.RegisterHandler(func(p *core.Proc, msg []byte) {})
	err := cm.Run(func(p *core.Proc) {
		s := Init(p)
		if p.MyPe() == 0 {
			mem := make([]byte, 64)
			for i := range mem {
				mem[i] = byte(i)
			}
			g := s.Create(mem)
			ptr := core.NewMsg(carrier, GlobalPtrSize)
			g.Encode(core.Payload(ptr))
			p.SyncSendAndFree(1, ptr)
			p.ServeUntil(func() bool { return mem[63] == 0xFF })
			return
		}
		g := DecodeGlobalPtr(core.Payload(p.GetSpecificMsg(carrier)))
		a := make([]byte, 8)
		b := make([]byte, 8)
		ha := s.GetAt(g, 0, a)
		hb := s.GetAt(g, 8, b)
		hp := s.PutAt(g, 63, []byte{0xFF})
		s.Wait(ha)
		s.Wait(hb)
		s.Wait(hp)
		for i := 0; i < 8; i++ {
			if a[i] != byte(i) || b[i] != byte(8+i) {
				t.Errorf("async gets wrong: a=%v b=%v", a, b)
				break
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestGptrDerefRemotePanics(t *testing.T) {
	cm := newMachine(2)
	err := cm.Run(func(p *core.Proc) {
		s := Init(p)
		if p.MyPe() == 0 {
			s.Deref(GlobalPtr{PE: 1, ID: 1})
		}
	})
	if err == nil {
		t.Fatal("Deref of remote pointer did not error")
	}
}

func TestGptrOutOfRangePanics(t *testing.T) {
	cm := newMachine(1)
	err := cm.Run(func(p *core.Proc) {
		s := Init(p)
		g := s.Create(make([]byte, 4))
		s.SyncGet(g, make([]byte, 8))
	})
	if err == nil {
		t.Fatal("out-of-range get did not error")
	}
}

// --- processor groups ---

func TestPgrpTopology(t *testing.T) {
	cm := newMachine(8)
	err := cm.Run(func(p *core.Proc) {
		if p.MyPe() != 0 {
			return
		}
		s := Init(p)
		g := s.NewPgrp()
		s.AddChildren(g, 0, []int{1, 2})
		s.AddChildren(g, 1, []int{3, 4})
		s.AddChildren(g, 2, []int{5})
		if g.RootPE() != 0 || g.Size() != 6 {
			t.Errorf("root=%d size=%d", g.RootPE(), g.Size())
		}
		if g.Parent(0) != -1 || g.Parent(3) != 1 || g.Parent(5) != 2 {
			t.Error("parent links wrong")
		}
		if g.NumChildren(0) != 2 || g.NumChildren(1) != 2 || g.NumChildren(5) != 0 {
			t.Error("child counts wrong")
		}
		kids := g.Children(1)
		if len(kids) != 2 || kids[0] != 3 || kids[1] != 4 {
			t.Errorf("Children(1) = %v", kids)
		}
		if g.Contains(7) {
			t.Error("Contains(7) true")
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestPgrpEncodeDecode(t *testing.T) {
	cm := newMachine(4)
	err := cm.Run(func(p *core.Proc) {
		if p.MyPe() != 0 {
			return
		}
		s := Init(p)
		g := s.NewPgrp()
		s.AddChildren(g, 0, []int{2, 3})
		s.AddChildren(g, 2, []int{1})
		blob := g.Encode()
		d, n := DecodePgrp(blob)
		if n != len(blob) {
			t.Errorf("decode consumed %d of %d", n, len(blob))
		}
		if d.ID != g.ID || d.Size() != g.Size() || d.Parent(1) != 2 {
			t.Error("decoded group differs")
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestPgrpAddChildrenNonRootPanics(t *testing.T) {
	cm := newMachine(2)
	err := cm.Run(func(p *core.Proc) {
		s := Init(p)
		if p.MyPe() == 0 {
			g := s.NewPgrp()
			blob := g.Encode()
			carrier := p.RegisterHandler(func(p *core.Proc, m []byte) {})
			_ = carrier
			_ = blob
			return
		}
		// PE1 forges a group rooted at 0 and tries to extend it.
		g := &Pgrp{ID: 1, members: []int32{0}, parent: []int32{-1}}
		s.AddChildren(g, 0, []int{1})
	})
	if err == nil {
		t.Fatal("AddChildren by non-root did not error")
	}
}

func TestMulticastAlongTree(t *testing.T) {
	const pes = 6
	cm := core.NewMachine(core.Config{PEs: pes, Watchdog: 10 * time.Second})
	recv := make([]int, pes)
	h := cm.RegisterHandler(func(p *core.Proc, msg []byte) {
		recv[p.MyPe()] = int(core.Payload(msg)[0])
		p.ExitScheduler()
	})
	err := cm.Run(func(p *core.Proc) {
		s := Init(p)
		if p.MyPe() == 0 {
			g := s.NewPgrp()
			s.AddChildren(g, 0, []int{1, 2})
			s.AddChildren(g, 1, []int{3, 4})
			// PE5 is not a member: it must not receive anything.
			s.Multicast(g, core.MakeMsg(h, []byte{42}))
			// Root processes the envelope (forwarding to children) but,
			// being the caller, is excluded from local delivery.
			p.Scheduler(1)
			return
		}
		if p.MyPe() == 5 {
			return
		}
		p.Scheduler(-1)
	})
	if err != nil {
		t.Fatal(err)
	}
	for pe := 1; pe <= 4; pe++ {
		if recv[pe] != 42 {
			t.Errorf("member %d got %d, want 42", pe, recv[pe])
		}
	}
	if recv[0] != 0 || recv[5] != 0 {
		t.Errorf("caller/non-member received the multicast: %v", recv)
	}
}

func TestReduceSumTree(t *testing.T) {
	const pes = 7
	cm := core.NewMachine(core.Config{PEs: pes, Watchdog: 10 * time.Second})
	var result int64
	gotRoot := false
	err := cm.Run(func(p *core.Proc) {
		s := Init(p)
		// Every PE builds the identical group descriptor locally
		// (deterministic construction stands in for shipping it).
		g := fullBinaryTreeGroup(s, pes)
		r, isRoot := s.Reduce(g, int64(p.MyPe()+1), OpSum)
		if isRoot {
			result = r
			gotRoot = true
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if !gotRoot {
		t.Fatal("no root result")
	}
	want := int64(pes * (pes + 1) / 2)
	if result != want {
		t.Fatalf("Reduce sum = %d, want %d", result, want)
	}
}

func TestReduceMaxMinProd(t *testing.T) {
	const pes = 5
	for _, tc := range []struct {
		op   ReduceOp
		want int64
	}{
		{OpMax, 5}, {OpMin, 1}, {OpProd, 120}, {OpSum, 15},
	} {
		cm := core.NewMachine(core.Config{PEs: pes, Watchdog: 10 * time.Second})
		var result int64
		err := cm.Run(func(p *core.Proc) {
			s := Init(p)
			g := fullBinaryTreeGroup(s, pes)
			if r, isRoot := s.Reduce(g, int64(p.MyPe()+1), tc.op); isRoot {
				result = r
			}
		})
		if err != nil {
			t.Fatalf("op %d: %v", tc.op, err)
		}
		if result != tc.want {
			t.Errorf("op %d: result = %d, want %d", tc.op, result, tc.want)
		}
	}
}

func TestSuccessiveReductions(t *testing.T) {
	const pes = 4
	cm := core.NewMachine(core.Config{PEs: pes, Watchdog: 10 * time.Second})
	results := make([]int64, 3)
	err := cm.Run(func(p *core.Proc) {
		s := Init(p)
		g := fullBinaryTreeGroup(s, pes)
		for round := 0; round < 3; round++ {
			if r, isRoot := s.Reduce(g, int64(round), OpSum); isRoot {
				results[round] = r
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	for round, r := range results {
		if r != int64(round*pes) {
			t.Errorf("round %d: %d, want %d", round, r, round*pes)
		}
	}
}

func TestGroupBarrier(t *testing.T) {
	const pes = 6
	cm := core.NewMachine(core.Config{PEs: pes, Watchdog: 10 * time.Second})
	phase := make([]atomic.Int32, pes)
	err := cm.Run(func(p *core.Proc) {
		s := Init(p)
		g := fullBinaryTreeGroup(s, pes)
		phase[p.MyPe()].Store(1)
		s.Barrier(g)
		// After the barrier, every PE must observe every phase[i] >= 1.
		for pe := range phase {
			if ph := phase[pe].Load(); ph < 1 {
				t.Errorf("pe %d: saw phase[%d]=%d after barrier", p.MyPe(), pe, ph)
			}
		}
		phase[p.MyPe()].Store(2)
		s.Barrier(g) // reusable
	})
	if err != nil {
		t.Fatal(err)
	}
}

// fullBinaryTreeGroup deterministically builds the same spanning tree of
// all pes on every processor: member i's parent is (i-1)/2.
func fullBinaryTreeGroup(s *State, pes int) *Pgrp {
	g := &Pgrp{ID: 0x42}
	for i := 0; i < pes; i++ {
		g.members = append(g.members, int32(i))
		if i == 0 {
			g.parent = append(g.parent, -1)
		} else {
			g.parent = append(g.parent, int32((i-1)/2))
		}
	}
	return g
}

func TestScatterRegisteredAfterArrival(t *testing.T) {
	// The paper: advance registration "is expected (although not
	// required)". A message arriving first is deferred normally; a
	// scatter registered later only matches future messages — verify
	// the defined behaviour: the early message reaches its handler.
	cm := newMachine(1)
	delivered := 0
	h := cm.RegisterHandler(func(p *core.Proc, msg []byte) { delivered++ })
	err := cm.Run(func(p *core.Proc) {
		msg := core.NewMsg(h, 4)
		binary.LittleEndian.PutUint32(core.Payload(msg), 0xbeef)
		p.SyncSendAndFree(0, msg)
		p.Scheduler(1) // delivered before any registration
		reg := RegisterScatter(p,
			[]Match{{Offset: core.HeaderSize, Value: 0xbeef}},
			nil)
		// A second, matching message is scattered.
		msg2 := core.NewMsg(h, 4)
		binary.LittleEndian.PutUint32(core.Payload(msg2), 0xbeef)
		p.SyncSendAndFree(0, msg2)
		p.ServeUntil(reg.Done)
	})
	if err != nil {
		t.Fatal(err)
	}
	if delivered != 1 {
		t.Fatalf("delivered = %d, want 1", delivered)
	}
}

func TestReduceSingleMemberGroup(t *testing.T) {
	cm := newMachine(2)
	err := cm.Run(func(p *core.Proc) {
		s := Init(p)
		if p.MyPe() != 0 {
			return
		}
		g := s.NewPgrp() // just the root
		r, isRoot := s.Reduce(g, 42, OpSum)
		if !isRoot || r != 42 {
			t.Errorf("single-member reduce = %d,%v", r, isRoot)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestReduceFloat(t *testing.T) {
	const pes = 5
	cm := newMachine(pes)
	var sum, max float64
	err := cm.Run(func(p *core.Proc) {
		s := Init(p)
		g := fullBinaryTreeGroup(s, pes)
		if r, root := s.ReduceFloat(g, 0.5*float64(p.MyPe()+1), OpFSum); root {
			sum = r
		}
		if r, root := s.ReduceFloat(g, float64(p.MyPe()), OpFMax); root {
			max = r
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if sum != 0.5*15 {
		t.Errorf("float sum = %v, want 7.5", sum)
	}
	if max != pes-1 {
		t.Errorf("float max = %v", max)
	}
}

func TestReduceFloatBadOpPanics(t *testing.T) {
	cm := newMachine(1)
	err := cm.Run(func(p *core.Proc) {
		s := Init(p)
		s.ReduceFloat(s.NewPgrp(), 1, OpSum) // integer op: must panic
	})
	if err == nil {
		t.Fatal("ReduceFloat with integer op did not error")
	}
}

func TestMulticastByNonMember(t *testing.T) {
	// "Caller need not belong to group."
	const pes = 4
	cm := core.NewMachine(core.Config{PEs: pes, Watchdog: 10 * time.Second})
	recv := make([]atomic.Int32, pes)
	h := cm.RegisterHandler(func(p *core.Proc, msg []byte) {
		recv[p.MyPe()].Add(1)
		p.ExitScheduler()
	})
	err := cm.Run(func(p *core.Proc) {
		s := Init(p)
		if p.MyPe() == 3 {
			// PE3 multicasts to a group {0,1,2} it is not part of.
			g := &Pgrp{ID: 9, members: []int32{0, 1, 2}, parent: []int32{-1, 0, 0}}
			s.Multicast(g, core.MakeMsg(h, nil))
			return
		}
		p.Scheduler(-1)
	})
	if err != nil {
		t.Fatal(err)
	}
	for pe := 0; pe < 3; pe++ {
		if recv[pe].Load() != 1 {
			t.Errorf("member %d received %d", pe, recv[pe].Load())
		}
	}
	if recv[3].Load() != 0 {
		t.Error("non-member caller received its own multicast")
	}
}

func TestAllGroupTopology(t *testing.T) {
	for _, tc := range []struct {
		sizes   []int
		pes     int
		parents []int // SpanTreeParent of every PE
	}{
		// Flat: the binomial tree over PEs (0 → 4, 2, 1; 4 → 6, 5; 2 → 3).
		{nil, 7, []int{-1, 0, 0, 2, 0, 4, 4}},
		// 4 nodes × 2 PEs: members hang off their representative, and the
		// representatives 0, 2, 4, 6 form the binomial tree over nodes.
		{[]int{2, 2, 2, 2}, 8, []int{-1, 0, 0, 2, 0, 4, 4, 6}},
	} {
		cm := core.NewMachine(core.Config{PEs: tc.pes, NodeSizes: tc.sizes, Watchdog: 10 * time.Second})
		err := cm.Run(func(p *core.Proc) {
			s := Init(p)
			g := s.AllGroup()
			if g.Size() != tc.pes || g.RootPE() != 0 || g.ID != 1 {
				t.Errorf("sizes=%v: AllGroup size=%d root=%d id=%d", tc.sizes, g.Size(), g.RootPE(), g.ID)
			}
			for pe, want := range tc.parents {
				if got := g.Parent(pe); got != want || p.SpanTreeParent(pe) != want {
					t.Errorf("sizes=%v: Parent(%d) = %d, SpanTreeParent = %d, want %d", tc.sizes, pe, got, p.SpanTreeParent(pe), want)
				}
			}
			if s.AllGroup() != g {
				t.Error("AllGroup rebuilt the descriptor")
			}
		})
		if err != nil {
			t.Fatal(err)
		}
	}
}

func TestAllGroupRejectsAddChildren(t *testing.T) {
	cm := newMachine(2)
	err := cm.Run(func(p *core.Proc) {
		s := Init(p)
		if p.MyPe() == 0 {
			s.AddChildren(s.AllGroup(), 0, []int{5})
		}
	})
	if err == nil {
		t.Fatal("AddChildren on AllGroup did not error")
	}
}

// TestAllReduceEverywhere: AllReduce returns the merged value on every
// member, both on an explicit group's own tree and on AllGroup over
// several node maps, for successive calls with different operators.
func TestAllReduceEverywhere(t *testing.T) {
	const pes = 8
	for _, sizes := range [][]int{nil, {1, 3, 4}, {2, 2, 2, 2}} {
		cm := core.NewMachine(core.Config{PEs: pes, NodeSizes: sizes, Watchdog: 10 * time.Second})
		err := cm.Run(func(p *core.Proc) {
			s := Init(p)
			me := int64(p.MyPe())
			for _, g := range []*Pgrp{s.AllGroup(), fullBinaryTreeGroup(s, pes)} {
				for round := int64(0); round < 3; round++ {
					if got, want := s.AllReduce(g, me+round, OpSum), int64(pes*(pes-1)/2)+round*int64(pes); got != want {
						t.Errorf("sizes=%v group %d round %d: sum = %d, want %d", sizes, g.ID, round, got, want)
					}
					if got := s.AllReduce(g, me*round, OpMax); got != int64(pes-1)*round {
						t.Errorf("sizes=%v group %d round %d: max = %d", sizes, g.ID, round, got)
					}
				}
				if got := s.AllReduceFloat(g, 0.5*float64(me), OpFMin); got != 0 {
					t.Errorf("sizes=%v group %d: float min = %v", sizes, g.ID, got)
				}
				s.Barrier(g)
			}
		})
		if err != nil {
			t.Fatalf("sizes=%v: %v", sizes, err)
		}
	}
}

func TestAllGroupMulticast(t *testing.T) {
	const pes = 6
	cm := core.NewMachine(core.Config{PEs: pes, NodeSizes: []int{3, 3}, Watchdog: 10 * time.Second})
	recv := make([]atomic.Int32, pes)
	h := cm.RegisterHandler(func(p *core.Proc, msg []byte) {
		recv[p.MyPe()].Add(int32(core.Payload(msg)[0]))
		p.ExitScheduler()
	})
	err := cm.Run(func(p *core.Proc) {
		s := Init(p)
		if p.MyPe() == 4 {
			s.Multicast(s.AllGroup(), core.MakeMsg(h, []byte{7}))
			return
		}
		p.Scheduler(-1)
	})
	if err != nil {
		t.Fatal(err)
	}
	for pe := range recv {
		want := int32(7)
		if pe == 4 {
			want = 0
		}
		if got := recv[pe].Load(); got != want {
			t.Errorf("pe %d received %d, want %d", pe, got, want)
		}
	}
}

func TestGptrZeroLengthOps(t *testing.T) {
	cm := newMachine(1)
	err := cm.Run(func(p *core.Proc) {
		s := Init(p)
		g := s.Create(make([]byte, 8))
		s.SyncGet(g, nil) // zero bytes: no-op, must not panic
		s.SyncPut(g, nil)
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestNewPgrpIDsAvoidAllGroup: group ids key the core's tree
// reductions, so no NewPgrp group may take AllGroup's reserved id 1 —
// PE 0's first group included — and groups created anywhere never share
// an id.
func TestNewPgrpIDsAvoidAllGroup(t *testing.T) {
	const pes = 3
	cm := newMachine(pes)
	ids := make([][2]uint64, pes)
	err := cm.Run(func(p *core.Proc) {
		s := Init(p)
		ids[p.MyPe()] = [2]uint64{s.NewPgrp().ID, s.NewPgrp().ID}
	})
	if err != nil {
		t.Fatal(err)
	}
	seen := map[uint64]bool{1: true} // AllGroup's
	for pe, pair := range ids {
		for _, id := range pair {
			if seen[id] {
				t.Errorf("pe %d: NewPgrp returned id %d, already taken", pe, id)
			}
			seen[id] = true
		}
	}
}

// TestEncodeLayout pins the descriptor Encode writes — the explicit-tree
// wire form internal/core/tree.go parses (its TestExplicitTreeLayout
// checks the same bytes) — and its round trip through DecodePgrp.
func TestEncodeLayout(t *testing.T) {
	g := &Pgrp{ID: 0x42, members: []int32{3, 1, 2}, parent: []int32{-1, 0, 0}}
	want := []byte{
		0x42, 0, 0, 0, 0, 0, 0, 0, // id
		3, 0, 0, 0, // members
		3, 0, 0, 0, 0xff, 0xff, 0xff, 0xff, // pe 3, root
		1, 0, 0, 0, 0, 0, 0, 0, // pe 1, child of member 0
		2, 0, 0, 0, 0, 0, 0, 0, // pe 2, child of member 0
	}
	if got := g.Encode(); !bytes.Equal(got, want) {
		t.Fatalf("Encode = %x, want %x", got, want)
	}
	d, n := DecodePgrp(want)
	if n != len(want) || d.ID != 0x42 || d.RootPE() != 3 || d.Parent(2) != 3 || d.NumChildren(3) != 2 {
		t.Errorf("DecodePgrp = %+v, %d", d, n)
	}
}
