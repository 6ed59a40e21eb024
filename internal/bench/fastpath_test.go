package bench

import (
	"encoding/binary"
	"testing"

	"converse/internal/core"
	"converse/internal/netmodel"
)

// TestFanInCoalesceSpeedup is the acceptance gate for the coalescing
// fast path: on an 8-PE machine, small-message fan-in throughput must
// at least double when coalescing is on. The measurement is in virtual
// time, so it is fully deterministic.
func TestFanInCoalesceSpeedup(t *testing.T) {
	const pes, msgs, size = 8, 400, 64
	for _, model := range []*netmodel.Model{netmodel.ATMHP(), netmodel.SP1()} {
		off := FanIn(model, pes, msgs, size, core.CoalesceConfig{})
		on := FanIn(model, pes, msgs, size, core.CoalesceConfig{Enabled: true})
		if off <= 0 || on <= 0 {
			t.Fatalf("%s: non-positive elapsed times %v, %v", model.Name, off, on)
		}
		speedup := off / on
		t.Logf("%s: fan-in %d PEs x %d msgs x %dB: off=%.0fus on=%.0fus speedup=%.2fx",
			model.Name, pes, msgs, size, off, on, speedup)
		if speedup < 2 {
			t.Errorf("%s: fan-in speedup %.2fx, want >= 2x", model.Name, speedup)
		}
	}
}

// TestPingPongCoalesceOverheadBounded checks the flip side: strictly
// alternating round trips cannot amortize anything, so coalescing may
// cost a little (pack framing + unpack copy) but must stay within a
// few percent of the direct path.
func TestPingPongCoalesceOverheadBounded(t *testing.T) {
	model := netmodel.MyrinetFM()
	off := Converse(model, 64, 200)
	on := ConverseWith(model, 64, 200, core.CoalesceConfig{Enabled: true})
	if on > off*1.25 {
		t.Errorf("coalesced ping-pong %.2fus vs direct %.2fus: overhead > 25%%", on, off)
	}
	t.Logf("ping-pong 64B: direct=%.2fus coalesced=%.2fus", off, on)
}

// BenchmarkSendAndFreeSteadyState is the 0 allocs/op gate for the
// pooled send fast path (run, with its Coalesced twin, by the
// Makefile's overhead target).
func BenchmarkSendAndFreeSteadyState(b *testing.B) {
	SteadyStateBench(b, core.CoalesceConfig{})
}

func BenchmarkSendAndFreeSteadyStateCoalesced(b *testing.B) {
	SteadyStateBench(b, core.CoalesceConfig{Enabled: true})
}

// TestFanInDeterministic: fan-in imposes no order between the senders,
// and how the receiver's dispatch charges interleave with its
// arrival-stamp advances depends on how many packets each inbox poll
// finds. The simulated machine resumes its PEs in a fixed order, so
// that count, and with it the elapsed virtual time, is the same on
// every run.
func TestFanInDeterministic(t *testing.T) {
	model := netmodel.T3D()
	for _, co := range []core.CoalesceConfig{{}, {Enabled: true}} {
		a := FanIn(model, 8, 100, 64, co)
		b := FanIn(model, 8, 100, 64, co)
		if a != b {
			t.Errorf("coalesced=%v: fan-in not deterministic: %v vs %v", co.Enabled, a, b)
		}
	}
}

// steadyOps is the 0 allocs/op harness for steady states on the
// simulated machine with several PEs: 8 PEs mapped 4 nodes × 2 PEs,
// every one running build's op for it b.N times after warm rounds that
// fill the pools, timed on PE 0. Every buffer an op sends comes from a
// pool and goes back to one — the receiver's, or the machine's depot
// behind it when that is full, from which the senders draw it back —
// and every hand-off between PEs is a conductor switch, so an op that
// allocates means one of the two has started to.
func steadyOps(b *testing.B, build func(cm *core.Machine) func(p *core.Proc) func()) {
	const warm = 64
	cm := core.NewMachine(core.Config{PEs: 8, NodeSizes: []int{2, 2, 2, 2}, Watchdog: watchdog})
	mk := build(cm)
	b.ReportAllocs()
	err := cm.Run(func(p *core.Proc) {
		op := mk(p)
		for i := 0; i < warm; i++ {
			op()
		}
		if p.MyPe() == 0 {
			b.ResetTimer()
		}
		for i := 0; i < b.N; i++ {
			op()
		}
		if p.MyPe() == 0 {
			b.StopTimer()
		}
	})
	if err != nil {
		b.Fatal(err)
	}
}

// sumContribution allocates this processor's 8-byte contribution to a
// sum reduction, addressed to handler h.
func sumContribution(p *core.Proc, h int) []byte {
	msg := p.Alloc(8)
	core.SetHandler(msg, h)
	binary.LittleEndian.PutUint64(core.Payload(msg), uint64(p.MyPe()+1))
	return msg
}

func sumCombiner(a, b []byte) []byte {
	binary.LittleEndian.PutUint64(a, binary.LittleEndian.Uint64(a)+binary.LittleEndian.Uint64(b))
	return a
}

// BenchmarkCollectiveSteadyState: one op is an AllReduce, whose result
// comes back down the tree to every PE, plus a Barrier (run by the
// Makefile's overhead target, as are the two below).
func BenchmarkCollectiveSteadyState(b *testing.B) {
	steadyOps(b, func(cm *core.Machine) func(p *core.Proc) func() {
		sum := cm.RegisterCombiner(sumCombiner)
		var reduced, want [8]uint64 // per PE
		h := cm.RegisterHandler(func(p *core.Proc, msg []byte) { reduced[p.MyPe()]++ })
		return func(p *core.Proc) func() {
			me := p.MyPe()
			done := func() bool { return reduced[me] == want[me] }
			return func() {
				p.AllReduce(sum, sumContribution(p, h), core.Transfer)
				want[me]++
				p.ServeUntil(done)
				p.Barrier()
			}
		}
	})
}

// BenchmarkReduceSteadyState: one op is a plain Reduce, whose result
// stays on PE 0, plus a Barrier. Each op moves one buffer from every
// leaf's pool towards the root's; the depot carries them back.
func BenchmarkReduceSteadyState(b *testing.B) {
	steadyOps(b, func(cm *core.Machine) func(p *core.Proc) func() {
		sum := cm.RegisterCombiner(sumCombiner)
		var reduced, want uint64 // PE 0's
		h := cm.RegisterHandler(func(p *core.Proc, msg []byte) { reduced++ })
		return func(p *core.Proc) func() {
			done := func() bool { return reduced == want }
			return func() {
				p.Reduce(sum, sumContribution(p, h), core.Transfer)
				if p.MyPe() == 0 {
					want++
					p.ServeUntil(done)
				}
				p.Barrier()
			}
		}
	})
}

// BenchmarkFanInSteadyState: one op is a burst of fanInBurst messages
// from each of PEs 1-7 to PE 0 (SyncSendAndFree), which PE 0's handler
// leaves to the runtime to free, plus a Barrier.
func BenchmarkFanInSteadyState(b *testing.B) {
	const fanInBurst = 8
	steadyOps(b, func(cm *core.Machine) func(p *core.Proc) func() {
		var got, want int // PE 0's
		h := cm.RegisterHandler(func(p *core.Proc, msg []byte) { got++ })
		return func(p *core.Proc) func() {
			if p.MyPe() == 0 {
				done := func() bool { return got == want }
				return func() {
					want += fanInBurst * (p.NumPes() - 1)
					p.ServeUntil(done)
					p.Barrier()
				}
			}
			return func() {
				for i := 0; i < fanInBurst; i++ {
					msg := p.Alloc(56)
					core.SetHandler(msg, h)
					p.SyncSendAndFree(0, msg)
				}
				p.Barrier()
			}
		}
	})
}

// TestPingPongDeterministic checks that virtual-time measurements are
// exactly repeatable when the workload forces a total order on
// communication, as the strictly alternating round trip does: each
// side blocks for the other, so the schedule — and therefore every
// clock advance — is fixed by the program.
func TestPingPongDeterministic(t *testing.T) {
	model := netmodel.T3D()
	for _, co := range []core.CoalesceConfig{{}, {Enabled: true}} {
		a := ConverseWith(model, 64, 100, co)
		b := ConverseWith(model, 64, 100, co)
		if a != b {
			t.Errorf("coalesced=%v: ping-pong not deterministic: %v vs %v", co.Enabled, a, b)
		}
	}
}
