package dp

import (
	"math"
	"testing"
	"time"

	"converse/internal/core"
)

// run executes body on every PE of a pes-wide machine.
func run(t *testing.T, pes int, body func(p *core.Proc, d *DP)) {
	t.Helper()
	cm := core.NewMachine(core.Config{PEs: pes, Watchdog: 20 * time.Second})
	err := cm.Run(func(p *core.Proc) {
		body(p, Attach(p))
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestVectorDistribution(t *testing.T) {
	run(t, 4, func(p *core.Proc, d *DP) {
		v := d.NewVector(10, func(i int) float64 { return float64(i) })
		lo, hi := v.LocalRange()
		bs := 3 // ceil(10/4)
		wantLo := p.MyPe() * bs
		if wantLo > 10 {
			wantLo = 10
		}
		wantHi := wantLo + bs
		if wantHi > 10 {
			wantHi = 10
		}
		if lo != wantLo || hi != wantHi {
			t.Errorf("pe %d: range [%d,%d), want [%d,%d)", p.MyPe(), lo, hi, wantLo, wantHi)
		}
		for k, x := range v.Local() {
			if x != float64(lo+k) {
				t.Errorf("pe %d: local[%d] = %v", p.MyPe(), k, x)
			}
		}
	})
}

func TestSumMaxMinEverywhere(t *testing.T) {
	run(t, 4, func(p *core.Proc, d *DP) {
		v := d.NewVector(17, func(i int) float64 { return float64(i + 1) })
		if s := v.Sum(); s != 17*18/2 {
			t.Errorf("pe %d: Sum = %v, want 153", p.MyPe(), s)
		}
		if m := v.Max(); m != 17 {
			t.Errorf("pe %d: Max = %v", p.MyPe(), m)
		}
		if m := v.Min(); m != 1 {
			t.Errorf("pe %d: Min = %v", p.MyPe(), m)
		}
	})
}

func TestMapZipAxpy(t *testing.T) {
	run(t, 3, func(p *core.Proc, d *DP) {
		v := d.NewVector(9, func(i int) float64 { return float64(i) })
		w := d.NewVector(9, func(i int) float64 { return 2 })
		v.Map(func(i int, x float64) float64 { return x * x }) // v_i = i^2
		v.Zip(w, func(a, b float64) float64 { return a + b })  // v_i = i^2+2
		v.Axpy(3, w)                                           // v_i = i^2+8
		lo, _ := v.LocalRange()
		for k, x := range v.Local() {
			i := lo + k
			if x != float64(i*i+8) {
				t.Errorf("pe %d: v[%d] = %v, want %d", p.MyPe(), i, x, i*i+8)
			}
		}
	})
}

func TestDotAndNorm(t *testing.T) {
	run(t, 4, func(p *core.Proc, d *DP) {
		v := d.NewVector(12, func(i int) float64 { return 1 })
		w := d.NewVector(12, func(i int) float64 { return float64(i) })
		if dot := v.Dot(w); dot != 66 {
			t.Errorf("pe %d: Dot = %v, want 66", p.MyPe(), dot)
		}
		if n := v.Norm2(); math.Abs(n-math.Sqrt(12)) > 1e-12 {
			t.Errorf("pe %d: Norm2 = %v", p.MyPe(), n)
		}
	})
}

func TestShiftRotation(t *testing.T) {
	for _, pes := range []int{1, 2, 4} {
		for _, k := range []int{1, -1, 3, 7, 0, 10} {
			run(t, pes, func(p *core.Proc, d *DP) {
				const n = 10
				v := d.NewVector(n, func(i int) float64 { return float64(i) })
				w := v.Shift(k)
				lo, _ := w.LocalRange()
				for idx, x := range w.Local() {
					i := lo + idx
					want := float64(((i+k)%n + n) % n)
					if x != want {
						t.Errorf("pes=%d k=%d pe %d: w[%d] = %v, want %v", pes, k, p.MyPe(), i, x, want)
					}
				}
			})
		}
	}
}

func TestBroadcastScalar(t *testing.T) {
	run(t, 5, func(p *core.Proc, d *DP) {
		x := -1.0
		if p.MyPe() == 0 {
			x = 3.75
		}
		got := d.BroadcastScalar(x)
		if got != 3.75 {
			t.Errorf("pe %d: broadcast = %v", p.MyPe(), got)
		}
	})
}

func TestGather(t *testing.T) {
	run(t, 4, func(p *core.Proc, d *DP) {
		v := d.NewVector(11, func(i int) float64 { return float64(i * 10) })
		out := v.Gather()
		if p.MyPe() != 0 {
			if out != nil {
				t.Errorf("pe %d: Gather returned non-nil", p.MyPe())
			}
			return
		}
		for i, x := range out {
			if x != float64(i*10) {
				t.Errorf("out[%d] = %v", i, x)
			}
		}
	})
}

func TestShapeMismatchPanics(t *testing.T) {
	cm := core.NewMachine(core.Config{PEs: 2, Watchdog: 10 * time.Second})
	err := cm.Run(func(p *core.Proc) {
		d := Attach(p)
		v := d.NewVector(4, nil)
		w := d.NewVector(6, nil)
		v.Zip(w, func(a, b float64) float64 { return a })
	})
	if err == nil {
		t.Fatal("shape mismatch did not error")
	}
}

// TestPowerIteration runs a small data-parallel power method on a
// circulant matrix A = circ(2,1,0,…,0,1) (1-D Laplacian-like ring),
// whose dominant eigenvalue is 4. Uses Shift for the off-diagonals and
// Dot/Norm for normalization — the full layer end to end.
func TestPowerIteration(t *testing.T) {
	run(t, 4, func(p *core.Proc, d *DP) {
		const n = 16
		v := d.NewVector(n, func(i int) float64 { return 1 + 0.1*float64(i%3) })
		var lambda float64
		for iter := 0; iter < 60; iter++ {
			up := v.Shift(1)
			down := v.Shift(-1)
			av := d.NewVector(n, nil)
			for k := range av.Local() {
				av.Local()[k] = 2*v.Local()[k] + up.Local()[k] + down.Local()[k]
			}
			lambda = av.Dot(v) / v.Dot(v)
			norm := av.Norm2()
			av.Map(func(i int, x float64) float64 { return x / norm })
			v = av
		}
		if math.Abs(lambda-4) > 1e-6 {
			t.Errorf("pe %d: dominant eigenvalue = %v, want 4", p.MyPe(), lambda)
		}
	})
}

// TestHeatDiffusion: explicit 1-D heat equation on a ring via Shift —
// total heat must be conserved exactly by the scheme.
func TestHeatDiffusion(t *testing.T) {
	run(t, 3, func(p *core.Proc, d *DP) {
		const n = 12
		u := d.NewVector(n, func(i int) float64 {
			if i == 0 {
				return 100
			}
			return 0
		})
		initial := u.Sum()
		for step := 0; step < 50; step++ {
			right := u.Shift(1)
			left := u.Shift(-1)
			next := d.NewVector(n, nil)
			for k := range next.Local() {
				next.Local()[k] = u.Local()[k] + 0.25*(left.Local()[k]-2*u.Local()[k]+right.Local()[k])
			}
			u = next
		}
		if math.Abs(u.Sum()-initial) > 1e-9 {
			t.Errorf("pe %d: heat not conserved: %v -> %v", p.MyPe(), initial, u.Sum())
		}
		// Diffusion must have spread the spike: max well below 100.
		if u.Max() > 50 {
			t.Errorf("pe %d: max = %v, diffusion too weak", p.MyPe(), u.Max())
		}
	})
}

// TestReductionsAndBroadcastOnNodeMaps: the global reductions and the
// scalar broadcast give the same answers on every processor whatever
// the node map, interleaved with a halo shift's point-to-point traffic.
func TestReductionsAndBroadcastOnNodeMaps(t *testing.T) {
	for _, sizes := range [][]int{{1, 3, 4}, {2, 2, 2, 2}, {8}} {
		cm := core.NewMachine(core.Config{PEs: 8, NodeSizes: sizes, Watchdog: 20 * time.Second})
		err := cm.Run(func(p *core.Proc) {
			d := Attach(p)
			v := d.NewVector(29, func(i int) float64 { return float64(i + 1) })
			for round := 0; round < 3; round++ {
				if s := v.Sum(); s != 29*30/2 {
					t.Errorf("sizes=%v pe %d: Sum = %v", sizes, p.MyPe(), s)
				}
				if m := v.Max(); m != 29 {
					t.Errorf("sizes=%v pe %d: Max = %v", sizes, p.MyPe(), m)
				}
				x := d.BroadcastScalar(float64(round) + 0.5*float64(p.MyPe()))
				if x != float64(round) {
					t.Errorf("sizes=%v pe %d: broadcast = %v, want %d", sizes, p.MyPe(), x, round)
				}
				v = v.Shift(1)
			}
		})
		if err != nil {
			t.Fatalf("sizes=%v: %v", sizes, err)
		}
	}
}
