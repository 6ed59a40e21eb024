package mpi

import (
	"bytes"
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"converse/internal/core"
	"converse/internal/emi"
	"converse/internal/metrics"
	"converse/internal/netmodel"
)

func newMachine(pes int) *core.Machine {
	return core.NewMachine(core.Config{PEs: pes, Watchdog: 15 * time.Second})
}

func TestSendRecvStatus(t *testing.T) {
	cm := newMachine(2)
	err := cm.Run(func(p *core.Proc) {
		m := Attach(p)
		if m.Rank() == 0 {
			m.Send([]byte("hello-mpi"), 1, 42)
			return
		}
		buf := make([]byte, 32)
		st := m.Recv(buf, 0, 42)
		if st.Source != 0 || st.Tag != 42 || st.Count != 9 {
			t.Errorf("status = %+v", st)
		}
		if string(buf[:st.Count]) != "hello-mpi" {
			t.Errorf("buf = %q", buf[:st.Count])
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestWildcards(t *testing.T) {
	cm := newMachine(3)
	err := cm.Run(func(p *core.Proc) {
		m := Attach(p)
		switch m.Rank() {
		case 1:
			m.Send([]byte{1}, 0, 10)
		case 2:
			m.Send([]byte{2}, 0, 20)
		case 0:
			buf := make([]byte, 4)
			st1 := m.Recv(buf, AnySource, 20)
			if st1.Source != 2 || buf[0] != 2 {
				t.Errorf("Recv(*,20) = %+v", st1)
			}
			st2 := m.Recv(buf, 1, AnyTag)
			if st2.Tag != 10 || buf[0] != 1 {
				t.Errorf("Recv(1,*) = %+v", st2)
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestPairwiseOrderPreserved(t *testing.T) {
	// MPI guarantees non-overtaking between a pair with equal tags.
	cm := newMachine(2)
	err := cm.Run(func(p *core.Proc) {
		m := Attach(p)
		if m.Rank() == 0 {
			for i := 0; i < 50; i++ {
				m.Send([]byte{byte(i)}, 1, 7)
			}
			return
		}
		buf := make([]byte, 1)
		for i := 0; i < 50; i++ {
			m.Recv(buf, 0, 7)
			if int(buf[0]) != i {
				t.Fatalf("message %d overtaken by %d", i, buf[0])
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestProbeThenRecv(t *testing.T) {
	cm := newMachine(2)
	err := cm.Run(func(p *core.Proc) {
		m := Attach(p)
		if m.Rank() == 0 {
			m.Send([]byte("sized"), 1, 3)
			return
		}
		st := m.Probe(0, 3)
		if st.Count != 5 {
			t.Errorf("Probe count = %d", st.Count)
		}
		buf := make([]byte, st.Count) // classic probe-then-recv sizing
		m.Recv(buf, st.Source, st.Tag)
		if string(buf) != "sized" {
			t.Errorf("buf = %q", buf)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestIprobe(t *testing.T) {
	cm := newMachine(2)
	err := cm.Run(func(p *core.Proc) {
		m := Attach(p)
		if m.Rank() == 0 {
			if _, ok := m.Iprobe(AnySource, AnyTag); ok {
				t.Error("Iprobe matched on empty system")
			}
			m.Send([]byte{1}, 1, 1)
			m.Recv(make([]byte, 1), 1, 2) // ack
			return
		}
		for {
			if st, ok := m.Iprobe(0, 1); ok {
				if st.Count != 1 {
					t.Errorf("Iprobe status = %+v", st)
				}
				break
			}
		}
		m.Recv(make([]byte, 1), 0, 1)
		m.Send([]byte{1}, 0, 2)
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestSendrecvHeadOnExchange(t *testing.T) {
	cm := newMachine(2)
	err := cm.Run(func(p *core.Proc) {
		m := Attach(p)
		other := 1 - m.Rank()
		out := []byte{byte(m.Rank() + 10)}
		in := make([]byte, 1)
		m.Sendrecv(out, other, 5, in, other, 5)
		if int(in[0]) != other+10 {
			t.Errorf("rank %d received %d", m.Rank(), in[0])
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestBarrier(t *testing.T) {
	const pes = 5
	cm := newMachine(pes)
	var arrived int64
	err := cm.Run(func(p *core.Proc) {
		m := Attach(p)
		atomic.AddInt64(&arrived, 1)
		m.Barrier()
		if n := atomic.LoadInt64(&arrived); n != pes {
			t.Errorf("rank %d passed barrier with %d arrivals", m.Rank(), n)
		}
		m.Barrier()
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestBcastFromEachRoot(t *testing.T) {
	const pes = 6
	for root := 0; root < pes; root++ {
		cm := newMachine(pes)
		err := cm.Run(func(p *core.Proc) {
			m := Attach(p)
			buf := make([]byte, 8)
			if m.Rank() == root {
				copy(buf, "RootData")
			}
			m.Bcast(buf, root)
			if string(buf) != "RootData" {
				t.Errorf("root=%d rank=%d got %q", root, m.Rank(), buf)
			}
		})
		if err != nil {
			t.Fatalf("root %d: %v", root, err)
		}
	}
}

func TestReduceAtEveryRoot(t *testing.T) {
	const pes = 4
	for root := 0; root < pes; root++ {
		cm := newMachine(pes)
		results := make([]int64, pes)
		err := cm.Run(func(p *core.Proc) {
			m := Attach(p)
			results[m.Rank()] = m.Reduce(int64(m.Rank()+1), OpSum, root)
		})
		if err != nil {
			t.Fatalf("root %d: %v", root, err)
		}
		for rank, r := range results {
			want := int64(0)
			if rank == root {
				want = 10 // 1+2+3+4
			}
			if r != want {
				t.Errorf("root=%d rank=%d Reduce = %d, want %d", root, rank, r, want)
			}
		}
	}
}

func TestAllreduce(t *testing.T) {
	const pes = 7
	cm := newMachine(pes)
	err := cm.Run(func(p *core.Proc) {
		m := Attach(p)
		got := m.Allreduce(int64(m.Rank()+1), OpSum)
		if got != pes*(pes+1)/2 {
			t.Errorf("rank %d Allreduce = %d", m.Rank(), got)
		}
		if mx := m.Allreduce(int64(m.Rank()), OpMax); mx != pes-1 {
			t.Errorf("rank %d Allreduce max = %d", m.Rank(), mx)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestGather(t *testing.T) {
	const pes = 4
	cm := newMachine(pes)
	err := cm.Run(func(p *core.Proc) {
		m := Attach(p)
		block := []byte{byte(m.Rank()), byte(m.Rank() * 2)}
		out := m.Gather(block, 1)
		if m.Rank() != 1 {
			if out != nil {
				t.Errorf("rank %d got non-nil gather", m.Rank())
			}
			return
		}
		want := []byte{0, 0, 1, 2, 2, 4, 3, 6}
		if !bytes.Equal(out, want) {
			t.Errorf("Gather = %v, want %v", out, want)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestGatherThenRecv: a rank that relays other ranks' Gather records
// (PE 2 relays PE 3's on 4 nodes × 2 PEs) may enter a receive right
// after Gather returns, and that receive dispatches no handlers. Gather
// must not return before the relayed records have gone up, or the root
// never completes and never sends what the receive waits for.
func TestGatherThenRecv(t *testing.T) {
	cm := core.NewMachine(core.Config{PEs: 8, NodeSizes: []int{2, 2, 2, 2}, Watchdog: 15 * time.Second})
	err := cm.Run(func(p *core.Proc) {
		m := Attach(p)
		got := m.Gather([]byte{byte(m.Rank())}, 0)
		switch m.Rank() {
		case 0:
			if len(got) != 8 {
				t.Errorf("Gather = %v", got)
			}
			m.Send([]byte{1}, 2, 7)
		case 2:
			m.Recv(make([]byte, 1), 0, 7)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestCollectivesInterleavedWithP2P(t *testing.T) {
	const pes = 4
	cm := newMachine(pes)
	err := cm.Run(func(p *core.Proc) {
		m := Attach(p)
		for round := 0; round < 5; round++ {
			// point-to-point ring...
			next := (m.Rank() + 1) % pes
			prev := (m.Rank() + pes - 1) % pes
			in := make([]byte, 1)
			m.Sendrecv([]byte{byte(m.Rank())}, next, 9, in, prev, 9)
			if int(in[0]) != prev {
				t.Errorf("round %d: rank %d got %d", round, m.Rank(), in[0])
			}
			// ...interleaved with collectives
			if s := m.Allreduce(1, OpSum); s != pes {
				t.Errorf("Allreduce = %d", s)
			}
			m.Barrier()
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestBadTagPanics(t *testing.T) {
	cm := newMachine(1)
	err := cm.Run(func(p *core.Proc) {
		Attach(p).Send(nil, 0, -3)
	})
	if err == nil {
		t.Fatal("negative tag did not error")
	}
}

// interNodeMsgs runs op once on every rank of an 8-PE machine laid out
// as 4 nodes × 2 PEs and counts the messages that crossed between nodes.
func interNodeMsgs(t *testing.T, op func(m *MPI)) uint64 {
	t.Helper()
	const pes, ppn = 8, 2
	reg := metrics.New(pes)
	cm := core.NewMachine(core.Config{PEs: pes, NodeSizes: []int{ppn, ppn, ppn, ppn}, Metrics: reg, Watchdog: 15 * time.Second})
	if err := cm.Run(func(p *core.Proc) { op(Attach(p)) }); err != nil {
		t.Fatal(err)
	}
	var n uint64
	for _, pe := range reg.Snapshot().PEs {
		for dst, c := range pe.SentMsgs {
			if dst/ppn != pe.PE/ppn {
				n += c
			}
		}
	}
	return n
}

// TestCollectivesFollowNodeTopology: the collectives ride the core's
// two-level tree, so on 4 nodes each crosses an inter-node link once per
// direction it needs — 3 wire messages to fan out, 3 to merge — however
// many PEs share a node.
func TestCollectivesFollowNodeTopology(t *testing.T) {
	for _, tc := range []struct {
		name string
		op   func(m *MPI)
		want uint64
	}{
		{"Barrier", func(m *MPI) { m.Barrier() }, 6},
		{"Allreduce", func(m *MPI) {
			if got := m.Allreduce(int64(m.Rank()), OpMax); got != 7 {
				t.Errorf("rank %d: Allreduce max = %d", m.Rank(), got)
			}
		}, 6},
		{"Reduce", func(m *MPI) { m.Reduce(1, OpSum, 5) }, 6},
		{"Bcast from a node representative", func(m *MPI) { m.Bcast(make([]byte, 16), 0) }, 3},
		{"Bcast from a non-representative", func(m *MPI) { m.Bcast(make([]byte, 16), 5) }, 3},
		{"Gather to a node representative", func(m *MPI) { gatherRanks(t, m, 0) }, 3},
		// The tree is rooted at the root itself, so PE 4 merges into it.
		{"Gather to a non-representative", func(m *MPI) { gatherRanks(t, m, 5) }, 3},
	} {
		if got := interNodeMsgs(t, tc.op); got != tc.want {
			t.Errorf("%s: %d inter-node messages, want %d", tc.name, got, tc.want)
		}
	}
}

// gatherRanks gathers every rank's number at root and checks the order.
func gatherRanks(t *testing.T, m *MPI, root int) {
	got := m.Gather([]byte{byte(m.Rank())}, root)
	if m.Rank() == root && !bytes.Equal(got, []byte{0, 1, 2, 3, 4, 5, 6, 7}) {
		t.Errorf("Gather to %d = %v", root, got)
	}
}

// TestCollectivesOnNodeMaps: Bcast from every root and Allreduce with
// every operator give the closed-form answer on every rank, whatever the
// node map.
func TestCollectivesOnNodeMaps(t *testing.T) {
	for _, sizes := range [][]int{nil, {1, 3, 4}, {2, 2, 2, 2}, {8}} {
		const pes = 8
		cm := core.NewMachine(core.Config{PEs: pes, NodeSizes: sizes, Watchdog: 15 * time.Second})
		err := cm.Run(func(p *core.Proc) {
			m := Attach(p)
			for root := 0; root < pes; root++ {
				buf := make([]byte, 4)
				if m.Rank() == root {
					copy(buf, []byte{byte(root), 1, 2, 3})
				}
				m.Bcast(buf, root)
				if !bytes.Equal(buf, []byte{byte(root), 1, 2, 3}) {
					t.Errorf("sizes=%v root=%d rank=%d: Bcast gave %v", sizes, root, m.Rank(), buf)
				}
			}
			v := int64(m.Rank() + 1)
			for _, tc := range []struct {
				op   emi.ReduceOp
				want int64
			}{{OpSum, 36}, {OpMax, 8}, {OpMin, 1}, {OpProd, 40320}} {
				if got := m.Allreduce(v, tc.op); got != tc.want {
					t.Errorf("sizes=%v rank=%d op %d: Allreduce = %d, want %d", sizes, m.Rank(), tc.op, got, tc.want)
				}
			}
		})
		if err != nil {
			t.Fatalf("sizes=%v: %v", sizes, err)
		}
	}
}

// BenchmarkGatherModeled reports the modeled time (netmodel.T3D, virtual
// µs until the root holds every block) of Gather on the reduction tree
// ("tree") against the reference of P−1 direct sends to the root
// ("direct"), across node shapes, roots and block sizes. The model charges no receive-side link
// contention, so the root takes its P−1 direct arrivals in parallel,
// while the tree forwards each subtree's records in one message per
// hop. Run with -benchtime=1x; the figure is in virtual-us.
func BenchmarkGatherModeled(b *testing.B) {
	for _, sh := range [][2]int{{8, 1}, {8, 2}, {64, 4}} {
		pes, ppn := sh[0], sh[1]
		for _, root := range []int{0, ppn + 1} {
			for _, block := range []int{8, 256, 4096, 65536} {
				for _, tree := range []bool{false, true} {
					name := fmt.Sprintf("pes=%d/ppn=%d/root=%d/block=%d/direct", pes, ppn, root, block)
					if tree {
						name = name[:len(name)-len("direct")] + "tree"
					}
					b.Run(name, func(b *testing.B) {
						var us float64
						for range b.N {
							us = gatherModeled(b, pes, ppn, root, block, tree)
						}
						b.ReportMetric(us, "virtual-us")
					})
				}
			}
		}
	}
}

// gatherModeled runs one Gather of block-byte blocks to root and
// returns the virtual time at which root has them all.
func gatherModeled(b *testing.B, pes, ppn, root, block int, tree bool) float64 {
	sizes := make([]int, pes/ppn)
	for i := range sizes {
		sizes[i] = ppn
	}
	cm := core.NewMachine(core.Config{PEs: pes, NodeSizes: sizes, Model: netmodel.T3D(), Watchdog: time.Minute})
	var got int // root only
	h := cm.RegisterHandler(func(*core.Proc, []byte) { got++ })
	var us float64
	err := cm.Run(func(p *core.Proc) {
		data := make([]byte, block)
		switch {
		case tree:
			Attach(p).Gather(data, root)
		case p.MyPe() != root:
			p.SyncSend(root, core.MakeMsg(h, data))
			return
		default:
			p.ServeUntil(func() bool { return got == pes-1 })
		}
		if p.MyPe() == root {
			us = p.TimerUs()
		}
	})
	if err != nil {
		b.Fatal(err)
	}
	return us
}
