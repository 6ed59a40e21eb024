package machine_test

import (
	"fmt"
	"runtime"
	"slices"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"converse/internal/core"
	"converse/internal/cth"
	"converse/internal/machine"
)

// The conductor's edge cases, driven through the layers that hit them:
// a cth thread parking its PE, the monitor doorbell waking a sleeping
// conductor, a foreign Stop, a PE panic, a Goexit out of a PE, and the
// fixed resume order's reproducibility.

// waitAllParked polls until every PE of m sleeps in a receive.
func waitAllParked(t *testing.T, m *machine.Machine) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		all := true
		for i := 0; i < m.NumPEs(); i++ {
			all = all && m.PE(i).BlockState().RecvWait
		}
		if all {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("PEs never all parked: %s", m.DescribeBlocked())
		}
		time.Sleep(time.Millisecond)
	}
}

// TestRecvInsideThreadParksPE: a receive that blocks inside a cth
// thread — a coroutine nested in the PE's — parks the whole PE with
// the conductor, and the thread resumes where it blocked once the
// reply arrives.
func TestRecvInsideThreadParksPE(t *testing.T) {
	cm := core.NewMachine(core.Config{PEs: 2, Watchdog: 10 * time.Second})
	var hPing, hPong int
	var pe0Parked bool // seen by PE 1 while it serves the ping
	hPing = cm.RegisterHandler(func(p *core.Proc, msg []byte) {
		pe0Parked = cm.Machine().PE(0).BlockState().RecvWait
		p.SyncSend(0, core.MakeMsg(hPong, []byte("pong")))
		p.ExitScheduler()
	})
	hPong = cm.RegisterHandler(func(p *core.Proc, msg []byte) {})
	var got string
	var th *cth.Thread
	err := cm.Run(func(p *core.Proc) {
		rt := cth.Init(p)
		if p.MyPe() == 1 {
			p.Scheduler(-1)
			return
		}
		th = rt.Create(func() {
			p.SyncSend(1, core.MakeMsg(hPing, nil))
			got = string(core.Payload(p.GetSpecificMsg(hPong)))
		})
		rt.Resume(th)
	})
	if err != nil {
		t.Fatal(err)
	}
	if !pe0Parked {
		t.Error("PE 0 was not parked in a receive while its thread waited")
	}
	if got != "pong" || !th.Done() {
		t.Errorf("thread got %q, done=%v; want the pong and a finished thread", got, th.Done())
	}
}

// TestProbeAllParkedMachine: the monitor doorbell (a foreign Inject)
// wakes a conductor whose eight PEs all sleep, and every probed PE
// answers fresh.
func TestProbeAllParkedMachine(t *testing.T) {
	cm := core.NewMachine(core.Config{PEs: 8, NodeSizes: []int{2, 2, 2, 2}, Watchdog: 20 * time.Second})
	done := make(chan error, 1)
	go func() { done <- cm.Run(func(p *core.Proc) { p.Scheduler(-1) }) }()
	waitAllParked(t, cm.Machine())
	for pe := 0; pe < cm.NumPes(); pe++ {
		if st, ok := cm.Proc(pe).ProbeSchedState(5 * time.Second); !ok {
			t.Errorf("probe of parked PE %d timed out (state %+v)", pe, st)
		}
	}
	cm.Stop()
	if err := <-done; err != nil {
		t.Fatal(err)
	}
}

// TestForeignStopEndsParkedRun: a Stop from another goroutine ends a
// Run in which every PE waits in Recv; each receive reports ok=false.
func TestForeignStopEndsParkedRun(t *testing.T) {
	m := machine.New(machine.Config{PEs: 4})
	var okCount atomic.Int32
	done := make(chan error, 1)
	go func() {
		done <- m.Run(func(pe *machine.PE) {
			if _, ok := pe.Recv(); ok {
				okCount.Add(1)
			}
		})
	}()
	waitAllParked(t, m)
	m.Stop()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Run did not return after a foreign Stop")
	}
	if n := okCount.Load(); n != 0 {
		t.Errorf("%d receives returned ok after Stop with nothing sent", n)
	}
}

// explodeOnPE2 is the panicking body whose frame the error must carry.
func explodeOnPE2(pe *machine.PE) {
	if pe.ID() == 2 {
		panic("pe two exploded")
	}
	pe.Recv() // the panic's Stop releases it
}

// TestPanicErrorNamesPEAndStack: a PE panic ends Run with an error
// naming the PE and carrying a stack frame of the panicking body.
func TestPanicErrorNamesPEAndStack(t *testing.T) {
	m := machine.New(machine.Config{PEs: 4, Watchdog: 10 * time.Second})
	err := m.Run(explodeOnPE2)
	if err == nil {
		t.Fatal("Run returned nil after a PE panic")
	}
	for _, want := range []string{"PE 2 panicked", "pe two exploded", "explodeOnPE2"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error lacks %q:\n%v", want, err)
		}
	}
}

// TestGoexitLeavesNoParkedPE: a PE that calls runtime.Goexit (as
// t.FailNow does) ends the goroutine that called Run, and Run's
// unwinding stops every PE coroutine still parked: none outlives it.
// PE 3 waits through the machine — empty polls yield to the others —
// until PEs 0–2 are parked, whatever order the conductor starts them
// in.
func TestGoexitLeavesNoParkedPE(t *testing.T) {
	before := runtime.NumGoroutine()
	var unwound atomic.Int32
	done := make(chan struct{})
	go func() {
		defer close(done)
		m := machine.New(machine.Config{PEs: 4})
		m.Run(func(pe *machine.PE) {
			if pe.ID() == 3 {
				for i := 0; i < 3; i++ {
					for !m.PE(i).BlockState().RecvWait {
						pe.TryRecv()
					}
				}
				runtime.Goexit()
			}
			defer unwound.Add(1)
			pe.Recv()
			t.Error("a parked PE ran on after Run was abandoned")
		})
	}()
	<-done
	if n := unwound.Load(); n != 3 {
		t.Errorf("%d parked PEs unwound, want 3", n)
	}
	after := runtime.NumGoroutine()
	for deadline := time.Now().Add(time.Second); after > before && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
		after = runtime.NumGoroutine()
	}
	if after > before {
		t.Fatalf("%d goroutines after the abandoned Run, want at most %d", after, before)
	}
}

// fanInOut runs rounds of a fan-out from PE 0 to every PE, each of
// which answers PE 0 and the next two PEs, and returns each PE's
// handler dispatch order as "handler:source" entries.
func fanInOut(t *testing.T) [][]string {
	const pes, rounds = 8, 20
	cm := core.NewMachine(core.Config{PEs: pes, Watchdog: 20 * time.Second})
	order := make([][]string, pes)
	var hOut, hIn, hSide int
	note := func(p *core.Proc, h int, msg []byte) {
		order[p.MyPe()] = append(order[p.MyPe()], fmt.Sprintf("%d:%d", h, core.Payload(msg)[0]))
	}
	answered := 0 // PE 0
	hOut = cm.RegisterHandler(func(p *core.Proc, msg []byte) {
		note(p, hOut, msg)
		me := byte(p.MyPe())
		p.SyncSend(0, core.MakeMsg(hIn, []byte{me}))
		p.SyncSend((p.MyPe()+1)%pes, core.MakeMsg(hSide, []byte{me}))
		p.SyncSend((p.MyPe()+2)%pes, core.MakeMsg(hSide, []byte{me}))
	})
	hIn = cm.RegisterHandler(func(p *core.Proc, msg []byte) { note(p, hIn, msg); answered++ })
	hSide = cm.RegisterHandler(func(p *core.Proc, msg []byte) { note(p, hSide, msg) })
	hStop := cm.RegisterHandler(func(p *core.Proc, msg []byte) { p.ExitScheduler() })
	err := cm.Run(func(p *core.Proc) {
		if p.MyPe() != 0 {
			p.Scheduler(-1)
			return
		}
		for r := 0; r < rounds; r++ {
			for dst := 0; dst < pes; dst++ {
				p.SyncSend(dst, core.MakeMsg(hOut, []byte{0}))
			}
			want := (r + 1) * pes
			p.ServeUntil(func() bool { return answered == want })
		}
		for dst := 1; dst < pes; dst++ {
			p.SyncSend(dst, core.MakeMsg(hStop, nil))
		}
		p.ScheduleUntilIdle()
	})
	if err != nil {
		t.Fatal(err)
	}
	return order
}

// TestDispatchOrderReproducible: with no foreign producer, the
// conductor's fixed resume order makes a machine's whole interleaving
// a function of the program, so two runs of an 8-PE fan-in/fan-out
// program dispatch every PE's handlers in the same order.
func TestDispatchOrderReproducible(t *testing.T) {
	a, b := fanInOut(t), fanInOut(t)
	for pe := range a {
		if len(a[pe]) == 0 {
			t.Fatalf("PE %d dispatched nothing", pe)
		}
		if !slices.Equal(a[pe], b[pe]) {
			t.Errorf("PE %d dispatch order differs between runs:\n%v\n%v", pe, a[pe], b[pe])
		}
	}
}
