package mnet_test

// End-to-end: the full Converse core (handlers, scheduler, coalescing)
// running on in-process mnet nodes through core.NewMachineOn — the same
// seam converserun jobs use, without spawning processes.

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"converse/internal/core"
	"converse/internal/mnet"
)

func TestCoreMachineOnNet(t *testing.T) {
	const pes = 3
	const msgsPerPE = 200
	addr, _ := mnet.StartTestJob(t, pes, time.Second)

	var wg sync.WaitGroup
	errs := make([]error, pes)
	counts := make([]int, pes)
	for rank := 0; rank < pes; rank++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			n, err := mnet.Join(mnet.Config{
				Launcher: addr, Token: mnet.TestToken,
				Rank: rank, NP: pes, PEs: pes, Round: 1,
				Handshake: 10 * time.Second,
			})
			if err != nil {
				errs[rank] = err
				return
			}
			// The network machine always coalesces: its packs must
			// survive the wire unchanged.
			cm := core.NewMachineOn(n, core.Config{PEs: pes, Watchdog: 30 * time.Second})
			var hCount, hStop int
			hCount = cm.RegisterHandler(func(p *core.Proc, msg []byte) {
				counts[rank]++
				if counts[rank] == (pes-1)*msgsPerPE {
					// All peers' traffic arrived: tell everyone to stop.
					for dst := 0; dst < pes; dst++ {
						p.SyncSend(dst, core.MakeMsg(hStop, nil))
					}
				}
			})
			stops := 0
			hStop = cm.RegisterHandler(func(p *core.Proc, msg []byte) {
				if stops++; stops == pes {
					p.ExitScheduler()
				}
			})
			errs[rank] = cm.Run(func(p *core.Proc) {
				for dst := 0; dst < pes; dst++ {
					if dst == rank {
						continue
					}
					for i := 0; i < msgsPerPE; i++ {
						p.SyncSend(dst, core.MakeMsg(hCount, []byte(fmt.Sprintf("m%d", i))))
					}
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
	for rank, got := range counts {
		if want := (pes - 1) * msgsPerPE; got != want {
			t.Errorf("rank %d delivered %d messages, want %d", rank, got, want)
		}
	}
}

func TestCoreRunNetPropagatesDriverPanic(t *testing.T) {
	const pes = 2
	addr, _ := mnet.StartTestJob(t, pes, time.Second)

	var wg sync.WaitGroup
	errs := make([]error, pes)
	for rank := 0; rank < pes; rank++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			n, err := mnet.Join(mnet.Config{
				Launcher: addr, Token: mnet.TestToken,
				Rank: rank, NP: pes, PEs: pes, Round: 1,
				Handshake: 10 * time.Second,
			})
			if err != nil {
				errs[rank] = err
				return
			}
			cm := core.NewMachineOn(n, core.Config{PEs: pes, Watchdog: 30 * time.Second})
			errs[rank] = cm.Run(func(p *core.Proc) {
				if p.MyPe() == 1 {
					panic("driver exploded")
				}
				p.Scheduler(-1) // would wait forever without failure propagation
			})
		}(rank)
	}
	wg.Wait()
	if errs[1] == nil {
		t.Error("panicking driver's Run returned nil")
	}
	if errs[0] == nil {
		t.Error("peer of the panicking driver hung or returned nil; failure did not propagate")
	}
}

// TestCoreMachineWithSurplusRank runs a 2-PE machine on a 3-rank job
// (converserun -np 3 for a 2-PE program): rank 2 hosts no PE, so its
// machine has no processors, yet handler registration and Run must work
// there too, and Run must return nil on every rank once the two PEs
// finish.
func TestCoreMachineWithSurplusRank(t *testing.T) {
	const np, pes = 3, 2
	addr, _ := mnet.StartTestJob(t, np, time.Second)

	var wg sync.WaitGroup
	errs := make([]error, np)
	got := make([]string, pes)
	for rank := 0; rank < np; rank++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			n, err := mnet.Join(mnet.Config{
				Launcher: addr, Token: mnet.TestToken,
				Rank: rank, NP: np, PEs: pes, Round: 1,
				Handshake: 10 * time.Second,
			})
			if err != nil {
				errs[rank] = err
				return
			}
			cm := core.NewMachineOn(n, core.Config{PEs: pes, Watchdog: 30 * time.Second})
			want := 0
			if rank < pes {
				want = 1
			}
			if n.LocalPEs() != want {
				t.Errorf("rank %d hosts %d PEs, want %d", rank, n.LocalPEs(), want)
			}
			h := cm.RegisterHandler(func(p *core.Proc, msg []byte) {
				got[p.MyPe()] = string(core.Payload(msg))
				p.ExitScheduler()
			})
			errs[rank] = cm.Run(func(p *core.Proc) {
				p.SyncSendAndFree(1-p.MyPe(), core.MakeMsg(h, []byte(fmt.Sprintf("from %d", p.MyPe()))))
				p.Scheduler(-1)
			})
		}(rank)
	}
	wg.Wait()
	for rank, err := range errs {
		if err != nil {
			t.Errorf("rank %d: Run = %v", rank, err)
		}
	}
	for pe, s := range got {
		if want := fmt.Sprintf("from %d", 1-pe); s != want {
			t.Errorf("pe %d got %q, want %q", pe, s, want)
		}
	}
}

// TestSurplusRankOutlivesActiveRanks holds the surplus rank of a 3-rank
// job for a 2-PE machine between Start and Finish until both active
// ranks have run, been released and torn down their links. A surplus
// rank hosts no driver, so losing those links loses nothing: no failure
// may be raised and its Finish must succeed.
func TestSurplusRankOutlivesActiveRanks(t *testing.T) {
	const np, pes = 3, 2
	addr, _ := mnet.StartTestJob(t, np, time.Second)
	join := func(rank int) (*mnet.Node, error) {
		return mnet.Join(mnet.Config{
			Launcher: addr, Token: mnet.TestToken,
			Rank: rank, NP: np, PEs: pes, Round: 1,
			Handshake: 10 * time.Second,
		})
	}

	var active sync.WaitGroup
	errs := make([]error, pes)
	for rank := 0; rank < pes; rank++ {
		active.Add(1)
		go func(rank int) {
			defer active.Done()
			n, err := join(rank)
			if err != nil {
				errs[rank] = err
				return
			}
			cm := core.NewMachineOn(n, core.Config{PEs: pes, Watchdog: 30 * time.Second})
			h := cm.RegisterHandler(func(p *core.Proc, msg []byte) { p.ExitScheduler() })
			errs[rank] = cm.Run(func(p *core.Proc) {
				p.SyncSendAndFree(1-p.MyPe(), core.MakeMsg(h, nil))
				p.Scheduler(-1)
			})
		}(rank)
	}

	n, err := join(pes)
	if err != nil {
		t.Fatal(err)
	}
	if err := n.Start(); err != nil {
		t.Fatal(err)
	}
	active.Wait()
	for rank, err := range errs {
		if err != nil {
			t.Fatalf("active rank %d: Run = %v", rank, err)
		}
	}
	select {
	case err := <-n.Failure():
		t.Fatalf("surplus rank failed after the active ranks left: %v", err)
	case <-time.After(300 * time.Millisecond):
	}
	if err := n.Finish(); err != nil {
		t.Fatalf("surplus rank: Finish = %v", err)
	}
}
