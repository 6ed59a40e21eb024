package bench

import (
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

// TestPingPongDeterministic checks that virtual-time measurements are
// exactly repeatable when the workload forces a total order on
// communication, as the strictly alternating round trip does: each
// side blocks for the other, so the schedule — and therefore every
// clock advance — is fixed regardless of goroutine timing. (Fan-in
// elapsed time is deliberately not asserted equal across runs: how the
// receiver's dispatch charges interleave with its arrival-stamp
// advances depends on how many packets each inbox poll finds, which
// varies with real scheduling; that is a property of the concurrent
// simulation, not a bug.)
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
