package mnet_test

// End-to-end SMP-hybrid runs: multiple PEs per mnet node process
// (NodeSizes / PPN), the core's two-level collectives routing over
// intra-node inboxes and inter-node links, and FailRetry recovery of a
// tree-interior link.

import (
	"encoding/binary"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"converse/internal/core"
	"converse/internal/lang/mpi"
	"converse/internal/mnet"
)

// TestCoreCollectivesOnSMPNet runs the full core on an asymmetric
// 1/3/4 node map over three in-process mnet nodes: a tree broadcast
// from a non-representative PE and a machine-wide sum reduction must
// both converge, and the topology accessors must agree with the map.
func TestCoreCollectivesOnSMPNet(t *testing.T) {
	sizes := []int{1, 3, 4}
	const np, pes = 3, 8
	addr, _ := mnet.StartTestJob(t, np, time.Second, 4)

	var bgot, sgot [pes]atomic.Int64
	var sum atomic.Int64
	var wg sync.WaitGroup
	errs := make([]error, np)
	for rank := 0; rank < np; rank++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			n, err := mnet.Join(mnet.Config{
				Launcher: addr, Token: mnet.TestToken,
				Rank: rank, NP: np, PEs: pes, NodeSizes: sizes, Round: 1,
				Handshake: 10 * time.Second,
			})
			if err != nil {
				errs[rank] = err
				return
			}
			cm := core.NewMachineOn(n, core.Config{PEs: pes, Watchdog: 30 * time.Second})
			sumComb := cm.RegisterCombiner(func(a, b []byte) []byte {
				binary.LittleEndian.PutUint64(a, binary.LittleEndian.Uint64(a)+binary.LittleEndian.Uint64(b))
				return a
			})
			var hB, hDone, hStop int
			exitIfDone := func(p *core.Proc) {
				if bgot[p.MyPe()].Load() > 0 && sgot[p.MyPe()].Load() > 0 {
					p.ExitScheduler()
				}
			}
			hB = cm.RegisterHandler(func(p *core.Proc, msg []byte) {
				if string(core.Payload(msg)) == "smp-bcast" {
					bgot[p.MyPe()].Add(1)
				}
				exitIfDone(p)
			})
			hDone = cm.RegisterHandler(func(p *core.Proc, msg []byte) {
				sum.Store(int64(binary.LittleEndian.Uint64(core.Payload(msg))))
				p.Broadcast(core.MakeMsg(hStop, nil))
			})
			hStop = cm.RegisterHandler(func(p *core.Proc, msg []byte) {
				sgot[p.MyPe()].Add(1)
				exitIfDone(p)
			})
			errs[rank] = cm.Run(func(p *core.Proc) {
				if p.MyPe() == 5 {
					// The map is 1/3/4: PE 5 lives on node 2, whose PEs
					// start at 4.
					if p.MyNode() != 2 || p.NodeFirstPE(2) != 4 || p.NumNodes() != 3 || p.NodeOf(0) != 0 {
						t.Errorf("pe 5 topology: MyNode=%d NodeFirstPE(2)=%d NumNodes=%d NodeOf(0)=%d, want 2/4/3/0",
							p.MyNode(), p.NodeFirstPE(2), p.NumNodes(), p.NodeOf(0))
					}
				}
				msg := core.NewMsg(hDone, 8)
				binary.LittleEndian.PutUint64(core.Payload(msg), uint64(p.MyPe()+1))
				p.Reduce(sumComb, msg, core.Transfer)
				if p.MyPe() == 5 {
					p.Broadcast(core.MakeMsg(hB, []byte("smp-bcast")))
				}
				p.Scheduler(-1)
			})
		}(rank)
	}
	wg.Wait()
	for rank, err := range errs {
		if err != nil {
			t.Errorf("rank %d: %v", rank, err)
		}
	}
	if want := int64(pes * (pes + 1) / 2); sum.Load() != want {
		t.Errorf("reduced sum = %d, want %d", sum.Load(), want)
	}
	for pe := 0; pe < pes; pe++ {
		if got := bgot[pe].Load(); got != 1 {
			t.Errorf("pe %d received %d broadcast copies, want 1", pe, got)
		}
		if got := sgot[pe].Load(); got != 1 {
			t.Errorf("pe %d received %d stop copies, want 1", pe, got)
		}
	}
}

// TestMPICollectivesOnSMPNet runs lang/mpi's collectives, which ride
// the core's two-level tree, over three in-process mnet nodes on the
// 1/3/4 map: Allreduce, Bcast from a non-representative, Reduce to a
// non-zero root and Barrier must agree with their closed forms on
// every rank.
func TestMPICollectivesOnSMPNet(t *testing.T) {
	sizes := []int{1, 3, 4}
	const np, pes = 3, 8
	addr, _ := mnet.StartTestJob(t, np, time.Second, 4)
	var wg sync.WaitGroup
	errs := make([]error, np)
	for rank := 0; rank < np; rank++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			n, err := mnet.Join(mnet.Config{
				Launcher: addr, Token: mnet.TestToken,
				Rank: rank, NP: np, PEs: pes, NodeSizes: sizes, Round: 1,
				Handshake: 10 * time.Second,
			})
			if err != nil {
				errs[rank] = err
				return
			}
			cm := core.NewMachineOn(n, core.Config{PEs: pes, Watchdog: 30 * time.Second})
			errs[rank] = cm.Run(func(p *core.Proc) {
				m := mpi.Attach(p)
				for round := int64(1); round <= 3; round++ {
					if got := m.Allreduce(round*int64(m.Rank()+1), mpi.OpSum); got != round*pes*(pes+1)/2 {
						t.Errorf("rank %d round %d: Allreduce = %d", m.Rank(), round, got)
					}
					buf := make([]byte, 9)
					if m.Rank() == 5 {
						copy(buf, "smp-bcast")
					}
					m.Bcast(buf, 5)
					if string(buf) != "smp-bcast" {
						t.Errorf("rank %d round %d: Bcast gave %q", m.Rank(), round, buf)
					}
					if got := m.Reduce(int64(m.Rank()), mpi.OpMax, 3); m.Rank() == 3 && got != pes-1 {
						t.Errorf("round %d: Reduce at rank 3 = %d", round, got)
					}
					m.Barrier()
				}
			})
		}(rank)
	}
	wg.Wait()
	for rank, err := range errs {
		if err != nil {
			t.Errorf("rank %d: %v", rank, err)
		}
	}
}

// TestTreeBroadcastConvergesUnderFailRetry cuts the link feeding a
// tree-interior node (0→2 on a 4-node flat machine: node 2 relays the
// broadcast on to node 3) in the middle of a broadcast stream. Under
// FailRetry the reliability layer must redial, resume the session from
// the cumulative acks and replay, so every PE — including the one
// behind the cut interior link — still receives every broadcast
// exactly once.
func TestTreeBroadcastConvergesUnderFailRetry(t *testing.T) {
	const np, pes = 4, 4
	const rounds = 40
	hb := 50 * time.Millisecond
	addr, failCh := mnet.StartTestJob(t, np, hb)

	var recv [pes]atomic.Int64
	var recoveries atomic.Int64
	var wg sync.WaitGroup
	errs := make([]error, np)
	for rank := 0; rank < np; rank++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			n, err := mnet.Join(mnet.Config{
				Launcher: addr, Token: mnet.TestToken,
				Rank: rank, NP: np, PEs: pes, Round: 1,
				Heartbeat: hb, Handshake: 10 * time.Second,
				FailurePolicy: mnet.FailRetry, RecoveryWindow: 5 * time.Second,
			})
			if err != nil {
				errs[rank] = err
				return
			}
			cm := core.NewMachineOn(n, core.Config{PEs: pes, Watchdog: 60 * time.Second})
			h := cm.RegisterHandler(func(p *core.Proc, msg []byte) {
				if recv[p.MyPe()].Add(1) == rounds {
					p.ExitScheduler()
				}
			})
			errs[rank] = cm.Run(func(p *core.Proc) {
				if p.MyPe() == 0 {
					for i := 0; i < rounds; i++ {
						if i == rounds/2 {
							// Mid-stream transient cut of the interior
							// link; redial and session resume must carry
							// the rest.
							n.CutLinkForTest(2)
						}
						p.Broadcast(core.MakeMsg(h, []byte("tree-under-fire")), core.Transfer)
					}
				}
				p.Scheduler(-1)
			})
			recoveries.Add(n.LinkRecoveriesForTest())
		}(rank)
	}
	finished := make(chan struct{})
	go func() { wg.Wait(); close(finished) }()
	select {
	case <-finished:
	case err := <-failCh:
		t.Fatalf("job failed under retry policy: %v", err)
	case <-time.After(90 * time.Second):
		t.Fatalf("job did not converge after the link cut")
	}
	for rank, err := range errs {
		if err != nil {
			t.Errorf("rank %d: %v", rank, err)
		}
	}
	for pe := 0; pe < pes; pe++ {
		if got := recv[pe].Load(); got != rounds {
			t.Errorf("pe %d received %d broadcasts, want %d", pe, got, rounds)
		}
	}
	if recoveries.Load() == 0 {
		t.Error("no link recoveries recorded; the cut did not exercise the retry path")
	}
}

// BenchmarkGatherTCP times mpi.Gather on a real 4-node × 2-PE TCP job
// (four in-process mnet nodes) by block size and root: each iteration
// is a Barrier then a Gather, and the root reports the median wall time
// from its barrier release to Gather's return. It is the wall-clock
// counterpart of mpi's BenchmarkGatherModeled.
func BenchmarkGatherTCP(b *testing.B) {
	sizes := []int{2, 2, 2, 2}
	const np, pes = 4, 8
	for _, block := range []int{8, 4096, 65536} {
		for _, root := range []int{0, 5} {
			b.Run(fmt.Sprintf("block=%d/root=%d", block, root), func(b *testing.B) {
				addr, _ := mnet.StartTestJob(b, np, time.Second, 2)
				lat := make([]time.Duration, b.N) // root only
				var wg sync.WaitGroup
				for rank := range np {
					wg.Add(1)
					go func() {
						defer wg.Done()
						n, err := mnet.Join(mnet.Config{
							Launcher: addr, Token: mnet.TestToken,
							Rank: rank, NP: np, PEs: pes, NodeSizes: sizes, Round: 1,
							Handshake: 10 * time.Second,
						})
						if err != nil {
							b.Error(err)
							return
						}
						cm := core.NewMachineOn(n, core.Config{PEs: pes, Watchdog: 60 * time.Second})
						if err := cm.Run(func(p *core.Proc) {
							m := mpi.Attach(p)
							data := make([]byte, block)
							for i := range b.N {
								m.Barrier()
								t0 := time.Now()
								m.Gather(data, root)
								if m.Rank() == root {
									lat[i] = time.Since(t0)
								}
							}
							m.Barrier()
						}); err != nil {
							b.Error(err)
						}
					}()
				}
				wg.Wait()
				slices.Sort(lat)
				b.ReportMetric(float64(lat[len(lat)/2].Nanoseconds())/1e3, "p50-us")
			})
		}
	}
}
