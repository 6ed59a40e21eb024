package core

import (
	"sync/atomic"
	"testing"
	"time"

	"converse/internal/netmodel"
)

func TestTreeBroadcastAllSizesAndRoots(t *testing.T) {
	for _, pes := range []int{1, 2, 3, 4, 5, 7, 8, 9, 16} {
		for _, root := range []int{0, pes - 1, pes / 2} {
			cm := NewMachine(Config{PEs: pes, Watchdog: 15 * time.Second})
			recv := make([]int64, pes)
			h := cm.RegisterHandler(func(p *Proc, msg []byte) {
				atomic.AddInt64(&recv[p.MyPe()], 1)
				if string(Payload(msg)) != "tree-payload" {
					t.Errorf("pes=%d root=%d pe=%d payload corrupted", pes, root, p.MyPe())
				}
				p.ExitScheduler()
			})
			err := cm.Run(func(p *Proc) {
				if p.MyPe() == root {
					p.SyncBroadcast(MakeMsg(h, []byte("tree-payload")))
					// The root serves forwarding traffic destined to
					// others but never its own copy.
					p.Scheduler(pes) // bounded: returns at idle
					return
				}
				p.Scheduler(-1)
			})
			if err != nil {
				t.Fatalf("pes=%d root=%d: %v", pes, root, err)
			}
			for pe, n := range recv {
				want := int64(1)
				if pe == root {
					want = 0
				}
				if n != want {
					t.Errorf("pes=%d root=%d: pe %d received %d, want %d", pes, root, pe, n, want)
				}
			}
		}
	}
}

func TestTreeBroadcastAllIncludesSelf(t *testing.T) {
	const pes = 6
	cm := NewMachine(Config{PEs: pes, Watchdog: 15 * time.Second})
	recv := make([]int64, pes)
	h := cm.RegisterHandler(func(p *Proc, msg []byte) {
		atomic.AddInt64(&recv[p.MyPe()], 1)
		p.ExitScheduler()
	})
	err := cm.Run(func(p *Proc) {
		if p.MyPe() == 2 {
			p.SyncBroadcastAll(MakeMsg(h, nil))
		}
		p.Scheduler(-1)
	})
	if err != nil {
		t.Fatal(err)
	}
	for pe, n := range recv {
		if n != 1 {
			t.Errorf("pe %d received %d, want 1", pe, n)
		}
	}
}

// TestTreeBroadcastLogDepth: on a modeled machine, tree broadcast
// completion time grows logarithmically with machine size while the
// flat broadcast's sender-side cost grows linearly — the ablation the
// design argues for.
func TestTreeBroadcastLogDepth(t *testing.T) {
	completion := func(pes int, tree bool) float64 {
		cm := NewMachine(Config{PEs: pes, Model: netmodel.T3D(), Watchdog: 30 * time.Second})
		var last atomic.Int64 // max arrival time in ns (fixed-point us*1000)
		h := cm.RegisterHandler(func(p *Proc, msg []byte) {
			now := int64(p.TimerUs() * 1000)
			for {
				old := last.Load()
				if now <= old || last.CompareAndSwap(old, now) {
					break
				}
			}
			p.ExitScheduler()
		})
		err := cm.Run(func(p *Proc) {
			if p.MyPe() == 0 {
				msg := MakeMsg(h, make([]byte, 1024))
				if tree {
					p.SyncBroadcast(msg)
					p.Scheduler(pes)
				} else {
					// The pre-tree flat fan-out: one serial send per
					// destination, all from the root (the baseline the
					// two-level tree replaced).
					for q := 1; q < pes; q++ {
						p.SyncSend(q, msg)
					}
				}
				return
			}
			p.Scheduler(-1)
		})
		if err != nil {
			t.Fatal(err)
		}
		return float64(last.Load()) / 1000
	}
	const pes = 128
	flat := completion(pes, false)
	tree := completion(pes, true)
	if tree >= flat {
		t.Fatalf("tree broadcast (%.1f us) not faster than flat (%.1f us) at %d PEs", tree, flat, pes)
	}
	// Flat completion is dominated by the sender's O(P) serial sends;
	// the tree's O(log P) depth should cut it severalfold at 128 PEs on
	// a low-latency machine.
	if flat/tree < 2 {
		t.Errorf("tree speedup only %.2fx at %d PEs (flat %.1f, tree %.1f us)", flat/tree, pes, flat, tree)
	}
}
