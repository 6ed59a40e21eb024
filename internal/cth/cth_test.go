package cth

import (
	"strings"
	"testing"
	"time"

	"converse/internal/core"
)

// run executes body on PE0 of a 1-PE machine with watchdog.
func run(t testing.TB, body func(p *core.Proc, rt *Runtime)) {
	t.Helper()
	cm := core.NewMachine(core.Config{PEs: 1, Watchdog: 10 * time.Second})
	err := cm.Run(func(p *core.Proc) {
		rt := Init(p)
		body(p, rt)
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestCreateResumeSuspend(t *testing.T) {
	run(t, func(p *core.Proc, rt *Runtime) {
		var log []string
		th := rt.Create(func() {
			log = append(log, "t1")
			rt.Suspend()
			log = append(log, "t2")
		})
		log = append(log, "m1")
		rt.Resume(th)
		log = append(log, "m2")
		rt.Resume(th)
		log = append(log, "m3")
		got := strings.Join(log, ",")
		if got != "m1,t1,m2,t2,m3" {
			t.Errorf("order = %q", got)
		}
		if !th.Done() {
			t.Error("thread not done after fn returned")
		}
	})
}

func TestOnlyOneContextRuns(t *testing.T) {
	// The cooperative hand-off means shared state never races; this
	// test exercises heavy interleaving and relies on -race to catch
	// violations.
	run(t, func(p *core.Proc, rt *Runtime) {
		counter := 0
		const n = 50
		threads := make([]*Thread, n)
		for i := range threads {
			threads[i] = rt.Create(func() {
				for j := 0; j < 100; j++ {
					counter++
					rt.Yield()
				}
			})
			rt.Awaken(threads[i])
		}
		// Drive: repeatedly suspend into the pool via a driver thread.
		driver := rt.Create(func() {
			for rt.ReadyLen() > 0 {
				rt.Yield()
			}
		})
		rt.Resume(driver)
		for rt.ReadyLen() > 0 {
			next, _ := rt.ready.PopFront()
			if !next.Done() {
				rt.Resume(next)
			}
		}
		if counter != n*100 {
			t.Errorf("counter = %d, want %d", counter, n*100)
		}
	})
}

func TestYieldRoundRobin(t *testing.T) {
	run(t, func(p *core.Proc, rt *Runtime) {
		var order []int
		mk := func(id int) *Thread {
			return rt.Create(func() {
				for i := 0; i < 3; i++ {
					order = append(order, id)
					rt.Yield()
				}
			})
		}
		a, b := mk(1), mk(2)
		rt.Awaken(a)
		rt.Awaken(b)
		// Drain the pool from the main context.
		for rt.ReadyLen() > 0 {
			next, _ := rt.ready.PopFront()
			if !next.Done() {
				rt.Resume(next)
			}
		}
		want := []int{1, 2, 1, 2, 1, 2}
		if len(order) != len(want) {
			t.Fatalf("order = %v", order)
		}
		for i := range want {
			if order[i] != want[i] {
				t.Fatalf("order = %v, want %v", order, want)
			}
		}
	})
}

func TestSelfAndIsMain(t *testing.T) {
	run(t, func(p *core.Proc, rt *Runtime) {
		if !rt.Self().IsMain() {
			t.Error("main context Self() not main")
		}
		var inThread *Thread
		th := rt.Create(func() {
			inThread = rt.Self()
		})
		rt.Resume(th)
		if inThread != th {
			t.Error("Self inside thread != thread")
		}
		if inThread.IsMain() {
			t.Error("thread reported as main")
		}
	})
}

func TestExplicitExitRunsDefers(t *testing.T) {
	run(t, func(p *core.Proc, rt *Runtime) {
		deferred := false
		after := false
		th := rt.Create(func() {
			defer func() { deferred = true }()
			rt.Exit()
			after = true // unreachable
		})
		rt.Resume(th)
		if !deferred {
			t.Error("deferred function did not run on Exit")
		}
		if after {
			t.Error("code after Exit ran")
		}
		if !th.Done() {
			t.Error("thread not done after Exit")
		}
	})
}

func TestResumeExitedThreadPanics(t *testing.T) {
	cm := core.NewMachine(core.Config{PEs: 1, Watchdog: 10 * time.Second})
	err := cm.Run(func(p *core.Proc) {
		rt := Init(p)
		th := rt.Create(func() {})
		rt.Resume(th)
		rt.Resume(th) // exited: must panic
	})
	if err == nil || !strings.Contains(err.Error(), "exited") {
		t.Fatalf("err = %v, want exited-thread panic", err)
	}
}

func TestAwakenExitedThreadPanics(t *testing.T) {
	cm := core.NewMachine(core.Config{PEs: 1, Watchdog: 10 * time.Second})
	err := cm.Run(func(p *core.Proc) {
		rt := Init(p)
		th := rt.Create(func() {})
		rt.Resume(th)
		rt.Awaken(th)
	})
	if err == nil || !strings.Contains(err.Error(), "exited") {
		t.Fatalf("err = %v", err)
	}
}

func TestSuspendFromMainPanics(t *testing.T) {
	cm := core.NewMachine(core.Config{PEs: 1, Watchdog: 10 * time.Second})
	err := cm.Run(func(p *core.Proc) {
		rt := Init(p)
		rt.Suspend()
	})
	if err == nil || !strings.Contains(err.Error(), "main") {
		t.Fatalf("err = %v", err)
	}
}

func TestInitIdempotent(t *testing.T) {
	run(t, func(p *core.Proc, rt *Runtime) {
		if Init(p) != rt {
			t.Error("second Init returned a different runtime")
		}
		if Get(p) != rt {
			t.Error("Get returned a different runtime")
		}
	})
}

func TestGetWithoutInitPanics(t *testing.T) {
	cm := core.NewMachine(core.Config{PEs: 1, Watchdog: 10 * time.Second})
	err := cm.Run(func(p *core.Proc) {
		Get(p)
	})
	if err == nil || !strings.Contains(err.Error(), "not initialized") {
		t.Fatalf("err = %v", err)
	}
}

func TestSetStrategyCustomOrder(t *testing.T) {
	// A LIFO strategy: per the paper, each module may control the
	// order in which its own threads are scheduled.
	run(t, func(p *core.Proc, rt *Runtime) {
		var order []int
		var stack []*Thread
		lifoAwaken := func(t *Thread) { stack = append(stack, t) }
		lifoSuspend := func(*Thread) {
			if len(stack) == 0 {
				rt.ResumeMain()
				return
			}
			next := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			rt.ResumeFromStrategy(next)
		}
		mk := func(id int) *Thread {
			th := rt.Create(func() { order = append(order, id) })
			th.SetStrategy(lifoSuspend, lifoAwaken)
			return th
		}
		a, b, c := mk(1), mk(2), mk(3)
		rt.Awaken(a)
		rt.Awaken(b)
		rt.Awaken(c)
		// Kick off: resume the last awakened; each exit pops the stack.
		next := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		rt.Resume(next)
		if len(order) != 3 || order[0] != 3 || order[1] != 2 || order[2] != 1 {
			t.Errorf("order = %v, want [3 2 1]", order)
		}
	})
}

func TestSchedulerStrategy(t *testing.T) {
	// A thread awakened under the scheduler strategy becomes a
	// generalized message: the scheduler resumes it.
	cm := core.NewMachine(core.Config{PEs: 1, Watchdog: 10 * time.Second})
	err := cm.Run(func(p *core.Proc) {
		rt := Init(p)
		var log []string
		th := rt.Create(func() {
			log = append(log, "t-first")
			rt.Awaken(rt.Self()) // enqueue self, then give up control
			rt.Suspend()
			log = append(log, "t-second")
		})
		th.UseSchedulerStrategy(0)
		rt.Awaken(th) // enqueues the resume message
		log = append(log, "before-sched")
		p.ScheduleUntilIdle()
		log = append(log, "after-sched")
		got := strings.Join(log, ",")
		want := "before-sched,t-first,t-second,after-sched"
		if got != want {
			t.Errorf("order = %q, want %q", got, want)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestSchedulerStrategyPriorities(t *testing.T) {
	// Two threads with different priorities: the higher-priority
	// (lower value) one runs first regardless of awaken order.
	cm := core.NewMachine(core.Config{PEs: 1, Watchdog: 10 * time.Second})
	err := cm.Run(func(p *core.Proc) {
		rt := Init(p)
		var order []string
		mk := func(name string, prio int32) *Thread {
			th := rt.Create(func() { order = append(order, name) })
			th.UseSchedulerStrategy(prio)
			return th
		}
		low := mk("low", 10)
		high := mk("high", -10)
		rt.Awaken(low)
		rt.Awaken(high)
		p.ScheduleUntilIdle()
		if strings.Join(order, ",") != "high,low" {
			t.Errorf("order = %v", order)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestResumeMessageForExitedThreadIgnored(t *testing.T) {
	cm := core.NewMachine(core.Config{PEs: 1, Watchdog: 10 * time.Second})
	err := cm.Run(func(p *core.Proc) {
		rt := Init(p)
		th := rt.Create(func() {})
		th.UseSchedulerStrategy(0)
		rt.Awaken(th) // message 1
		rt.Awaken(th) // message 2 (double-awaken before it runs)
		p.ScheduleUntilIdle()
		// Message 2 finds the thread exited; must be ignored silently.
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestThreadsAcrossMessages(t *testing.T) {
	// A thread suspends waiting for data that arrives as a message from
	// another PE; the handler awakens it (the basic tSM pattern).
	cm := core.NewMachine(core.Config{PEs: 2, Watchdog: 10 * time.Second})
	var hData int
	result := 0
	hData = cm.RegisterHandler(func(p *core.Proc, msg []byte) {
		rt := Get(p)
		waiting := p.Ext("waiting").(*Thread)
		p.SetExt("data", int(core.Payload(msg)[0]))
		rt.Awaken(waiting)
	})
	err := cm.Run(func(p *core.Proc) {
		rt := Init(p)
		if p.MyPe() == 1 {
			p.SyncSend(0, core.MakeMsg(hData, []byte{42}))
			return
		}
		th := rt.Create(func() {
			p.SetExt("waiting", rt.Self())
			rt.Suspend() // wait for the data message
			result = p.Ext("data").(int)
			p.ExitScheduler()
		})
		th.UseSchedulerStrategy(0)
		rt.Resume(th) // runs until it suspends
		p.Scheduler(-1)
	})
	if err != nil {
		t.Fatal(err)
	}
	if result != 42 {
		t.Fatalf("result = %d, want 42", result)
	}
}

func TestStats(t *testing.T) {
	run(t, func(p *core.Proc, rt *Runtime) {
		c0, s0 := rt.Stats()
		th := rt.Create(func() { rt.Yield() })
		rt.Resume(th)
		// drain
		for rt.ReadyLen() > 0 {
			next, _ := rt.ready.PopFront()
			if !next.Done() {
				rt.Resume(next)
			}
		}
		c1, s1 := rt.Stats()
		if c1 != c0+1 {
			t.Errorf("created: %d -> %d", c0, c1)
		}
		if s1 <= s0 {
			t.Errorf("switches did not increase: %d -> %d", s0, s1)
		}
	})
}

// runPanicking runs body on PE0 of a 1-PE machine and returns the error
// Run reports.
func runPanicking(body func(p *core.Proc, rt *Runtime)) error {
	cm := core.NewMachine(core.Config{PEs: 1, Watchdog: 10 * time.Second})
	return cm.Run(func(p *core.Proc) { body(p, Init(p)) })
}

// suspendedBystander creates a thread that defers setting *deferred,
// suspends once and sits awakened in the default ready pool.
func suspendedBystander(rt *Runtime, deferred *bool) *Thread {
	th := rt.Create(func() {
		defer func() { *deferred = true }()
		rt.Suspend()
	})
	rt.Resume(th)
	rt.Awaken(th)
	return th
}

func TestThreadPanicPropagates(t *testing.T) {
	cases := []struct {
		name string
		body func(p *core.Proc, rt *Runtime)
	}{
		{"resumed by main", func(p *core.Proc, rt *Runtime) {
			rt.Resume(rt.Create(func() { panic("thread exploded") }))
		}},
		{"resumed by another thread", func(p *core.Proc, rt *Runtime) {
			bad := rt.Create(func() { panic("thread exploded") })
			rt.Resume(rt.Create(func() { rt.Resume(bad) }))
		}},
		{"with a ready bystander", func(p *core.Proc, rt *Runtime) {
			var deferred bool
			suspendedBystander(rt, &deferred)
			rt.Resume(rt.Create(func() { panic("thread exploded") }))
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := runPanicking(tc.body)
			if err == nil || !strings.Contains(err.Error(), "thread exploded") {
				t.Fatalf("err = %v, want thread panic propagation", err)
			}
			if n := strings.Count(err.Error(), "cth: pe 0: panic in thread"); n != 1 {
				t.Errorf("error names the thread panic %d times, want once:\n%v", n, err)
			}
		})
	}
}

func TestThreadPanicRunsDefers(t *testing.T) {
	cleaned := false
	_ = runPanicking(func(p *core.Proc, rt *Runtime) {
		th := rt.Create(func() {
			defer func() { cleaned = true }()
			panic("boom")
		})
		rt.Resume(th)
	})
	if !cleaned {
		t.Fatal("thread defers did not run on panic")
	}

	// A panic belongs to the thread that raised it: a thread waiting
	// in the ready pool is neither unwound nor retired by it.
	var bystander *Thread
	cleaned, bystanderDeferred := false, false
	err := runPanicking(func(p *core.Proc, rt *Runtime) {
		bystander = suspendedBystander(rt, &bystanderDeferred)
		rt.Resume(rt.Create(func() {
			defer func() { cleaned = true }()
			panic("boom")
		}))
	})
	if err == nil || !strings.Contains(err.Error(), "boom") {
		t.Fatalf("err = %v, want the thread's panic", err)
	}
	if !cleaned {
		t.Error("panicking thread's defers did not run")
	}
	if bystanderDeferred {
		t.Error("a ready bystander's defers ran on another thread's panic")
	}
	if bystander.Done() {
		t.Error("a ready bystander was retired by another thread's panic")
	}
}

func TestStrategyResumingExitingThreadPanics(t *testing.T) {
	// A suspend strategy that picks the thread that is exiting names a
	// thread that no longer exists.
	err := runPanicking(func(p *core.Proc, rt *Runtime) {
		th := rt.Create(func() {})
		th.SetStrategy(func(self *Thread) { rt.ResumeFromStrategy(self) }, nil)
		rt.Resume(th)
	})
	if err == nil || !strings.Contains(err.Error(), "strategy resumed exited thread") {
		t.Fatalf("err = %v, want strategy-resumed-exited-thread panic", err)
	}
}

func TestThousandThreadCascade(t *testing.T) {
	// A chain of 1000 threads, each resuming the next, all under the
	// scheduler strategy — stress for the hand-off protocol.
	cm := core.NewMachine(core.Config{PEs: 1, Watchdog: 30 * time.Second})
	err := cm.Run(func(p *core.Proc) {
		rt := Init(p)
		const n = 1000
		depth := 0
		var mk func(i int) *Thread
		mk = func(i int) *Thread {
			return rt.Create(func() {
				depth++
				if i+1 < n {
					next := mk(i + 1)
					next.UseSchedulerStrategy(0)
					rt.Awaken(next)
				}
			})
		}
		first := mk(0)
		first.UseSchedulerStrategy(0)
		rt.Awaken(first)
		p.ScheduleUntilIdle()
		if depth != n {
			t.Errorf("depth = %d, want %d", depth, n)
		}
		created, switches := rt.Stats()
		if created < n || switches < uint64(n) {
			t.Errorf("stats: created=%d switches=%d", created, switches)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestInterleavedResumeAndScheduler(t *testing.T) {
	// Threads suspended mid-work are resumed both directly and through
	// scheduler messages; ordering within a thread must be preserved.
	cm := core.NewMachine(core.Config{PEs: 1, Watchdog: 30 * time.Second})
	err := cm.Run(func(p *core.Proc) {
		rt := Init(p)
		var trace []int
		th := rt.Create(func() {
			for i := 0; i < 6; i++ {
				trace = append(trace, i)
				rt.Suspend()
			}
		})
		th.UseSchedulerStrategy(0)
		for i := 0; i < 3; i++ {
			rt.Resume(th) // direct
			rt.Awaken(th) // via scheduler message
			p.ScheduleUntilIdle()
		}
		for i, v := range trace {
			if v != i {
				t.Fatalf("trace = %v", trace)
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

// BenchmarkThreadSwitch is one main↔thread round trip: main resumes a
// thread that suspends straight back to it.
func BenchmarkThreadSwitch(b *testing.B) {
	run(b, func(p *core.Proc, rt *Runtime) {
		stop := false
		th := rt.Create(func() {
			for !stop {
				rt.Suspend()
			}
		})
		rt.Resume(th) // the first resume starts the thread
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			rt.Resume(th)
		}
		b.StopTimer()
		stop = true
		rt.Resume(th)
	})
}

// BenchmarkThreadSwitchBetweenThreads is one thread↔thread round trip:
// two threads resume each other, main only starting and finishing them.
func BenchmarkThreadSwitchBetweenThreads(b *testing.B) {
	run(b, func(p *core.Proc, rt *Runtime) {
		stop := false
		var ping, pong *Thread
		ping = rt.Create(func() {
			rt.Resume(pong) // the first resume starts pong
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				rt.Resume(pong)
			}
			b.StopTimer()
			stop = true
		})
		pong = rt.Create(func() {
			for !stop {
				rt.Resume(ping)
			}
		})
		rt.Resume(ping)
		rt.Resume(pong)
		if !ping.Done() || !pong.Done() {
			b.Fatal("benchmark threads did not finish")
		}
	})
}
