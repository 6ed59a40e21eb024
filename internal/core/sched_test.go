package core

import (
	"fmt"
	"strings"
	"testing"
	"time"
)

// newTestMachine builds a small machine with a watchdog so failing tests
// error out instead of hanging.
func newTestMachine(pes int) *Machine {
	return NewMachine(Config{PEs: pes, Watchdog: 10 * time.Second})
}

func TestSchedulerPingPongHandlers(t *testing.T) {
	cm := newTestMachine(2)
	const rounds = 100
	var hPing, hDone int
	count := 0
	hPing = cm.RegisterHandler(func(p *Proc, msg []byte) {
		n := int(Payload(msg)[0])
		if p.MyPe() == 0 {
			count++
		}
		if n == 0 {
			p.SyncSend(1-p.MyPe(), MakeMsg(hDone, nil))
			p.ExitScheduler()
			return
		}
		reply := MakeMsg(hPing, []byte{byte(n - 1)})
		p.SyncSend(1-p.MyPe(), reply)
	})
	hDone = cm.RegisterHandler(func(p *Proc, msg []byte) {
		p.ExitScheduler()
	})
	err := cm.Run(func(p *Proc) {
		if p.MyPe() == 0 {
			p.SyncSend(1, MakeMsg(hPing, []byte{rounds}))
		}
		p.Scheduler(-1)
	})
	if err != nil {
		t.Fatal(err)
	}
	if count != rounds/2 {
		t.Fatalf("PE0 handled %d pings, want %d", count, rounds/2)
	}
}

func TestSchedulerBoundedCountsMessages(t *testing.T) {
	cm := newTestMachine(1)
	handled := 0
	h := cm.RegisterHandler(func(p *Proc, msg []byte) { handled++ })
	err := cm.Run(func(p *Proc) {
		for i := 0; i < 10; i++ {
			p.SyncSend(0, MakeMsg(h, nil))
		}
		p.Scheduler(4)
		if handled != 4 {
			t.Errorf("after Scheduler(4): handled = %d, want 4", handled)
		}
		p.Scheduler(100) // returns at idle without blocking
		if handled != 10 {
			t.Errorf("after Scheduler(100): handled = %d, want 10", handled)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestScheduleUntilIdleDrainsBothQueues(t *testing.T) {
	cm := newTestMachine(1)
	var log []string
	var hNet, hQ int
	hNet = cm.RegisterHandler(func(p *Proc, msg []byte) {
		log = append(log, "net")
		// Generate local work: a delayed function via the queue.
		p.Enqueue(MakeMsg(hQ, nil))
	})
	hQ = cm.RegisterHandler(func(p *Proc, msg []byte) {
		log = append(log, "queued")
	})
	err := cm.Run(func(p *Proc) {
		p.SyncSend(0, MakeMsg(hNet, nil))
		p.SyncSend(0, MakeMsg(hNet, nil))
		p.ScheduleUntilIdle()
	})
	if err != nil {
		t.Fatal(err)
	}
	joined := strings.Join(log, ",")
	if joined != "net,net,queued,queued" && joined != "net,queued,net,queued" {
		t.Fatalf("order = %v", log)
	}
}

func TestSchedulerNetworkFirst(t *testing.T) {
	// Per Figure 3, each iteration drains the network before taking one
	// message from the scheduler queue.
	cm := newTestMachine(1)
	var order []string
	hq := cm.RegisterHandler(func(p *Proc, msg []byte) { order = append(order, "q") })
	hn := cm.RegisterHandler(func(p *Proc, msg []byte) { order = append(order, "n") })
	err := cm.Run(func(p *Proc) {
		p.Enqueue(MakeMsg(hq, nil))
		p.SyncSend(0, MakeMsg(hn, nil))
		p.Scheduler(2)
	})
	if err != nil {
		t.Fatal(err)
	}
	if strings.Join(order, "") != "nq" {
		t.Fatalf("order = %v, want network before queue", order)
	}
}

func TestEnqueuePriorityOrder(t *testing.T) {
	cm := newTestMachine(1)
	var got []byte
	h := cm.RegisterHandler(func(p *Proc, msg []byte) {
		got = append(got, Payload(msg)[0])
	})
	err := cm.Run(func(p *Proc) {
		p.EnqueuePrio(MakeMsg(h, []byte{'c'}), 3)
		p.EnqueuePrio(MakeMsg(h, []byte{'a'}), -7)
		p.Enqueue(MakeMsg(h, []byte{'b'})) // default lane = prio 0
		p.EnqueuePrio(MakeMsg(h, []byte{'d'}), 9)
		p.ScheduleUntilIdle()
	})
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "abcd" {
		t.Fatalf("dispatch order %q, want \"abcd\"", got)
	}
}

func TestEnqueueLifoOrder(t *testing.T) {
	cm := newTestMachine(1)
	var got []byte
	h := cm.RegisterHandler(func(p *Proc, msg []byte) {
		got = append(got, Payload(msg)[0])
	})
	err := cm.Run(func(p *Proc) {
		p.EnqueueLifo(MakeMsg(h, []byte{'1'}))
		p.EnqueueLifo(MakeMsg(h, []byte{'2'}))
		p.ScheduleUntilIdle()
	})
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "21" {
		t.Fatalf("got %q, want \"21\"", got)
	}
}

func TestGetSpecificMsgBuffersOthers(t *testing.T) {
	cm := newTestMachine(2)
	var hA, hB int
	var handled []string
	hA = cm.RegisterHandler(func(p *Proc, msg []byte) { handled = append(handled, "A"+string(Payload(msg))) })
	hB = cm.RegisterHandler(func(p *Proc, msg []byte) { handled = append(handled, "B") })
	err := cm.Run(func(p *Proc) {
		if p.MyPe() == 1 {
			p.SyncSend(0, MakeMsg(hA, []byte("1")))
			p.SyncSend(0, MakeMsg(hA, []byte("2")))
			p.SyncSend(0, MakeMsg(hB, nil))
			return
		}
		// PE0 waits specifically for hB, buffering the hA messages.
		msg := p.GetSpecificMsg(hB)
		if HandlerOf(msg) != hB {
			t.Errorf("GetSpecificMsg returned handler %d", HandlerOf(msg))
		}
		// The buffered hA messages must now be delivered, in order.
		p.Scheduler(2)
	})
	if err != nil {
		t.Fatal(err)
	}
	if strings.Join(handled, ",") != "A1,A2" {
		t.Fatalf("handled = %v, want buffered A1 then A2", handled)
	}
}

func TestGetMsg(t *testing.T) {
	cm := newTestMachine(1)
	h := cm.RegisterHandler(func(p *Proc, msg []byte) {})
	err := cm.Run(func(p *Proc) {
		if _, ok := p.GetMsg(); ok {
			t.Error("GetMsg on empty network returned ok")
		}
		p.SyncSend(0, MakeMsg(h, []byte("x")))
		msg, ok := p.GetMsg()
		if !ok || string(Payload(msg)) != "x" {
			t.Errorf("GetMsg = %q,%v", msg, ok)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestEnqueueWithoutGrabPanics(t *testing.T) {
	cm := newTestMachine(1)
	var h int
	h = cm.RegisterHandler(func(p *Proc, msg []byte) {
		p.Enqueue(msg) // bug: no GrabBuffer
	})
	err := cm.Run(func(p *Proc) {
		p.SyncSend(0, MakeMsg(h, nil))
		p.Scheduler(1)
	})
	if err == nil || !strings.Contains(err.Error(), "GrabBuffer") {
		t.Fatalf("err = %v, want GrabBuffer protocol violation", err)
	}
}

func TestEnqueueWithGrabWorks(t *testing.T) {
	cm := newTestMachine(1)
	var hIn, hOut int
	done := false
	hIn = cm.RegisterHandler(func(p *Proc, msg []byte) {
		p.GrabBuffer()
		SetHandler(msg, hOut) // the §3.3 second-handler trick
		p.Enqueue(msg)
	})
	hOut = cm.RegisterHandler(func(p *Proc, msg []byte) {
		done = true
	})
	err := cm.Run(func(p *Proc) {
		p.SyncSend(0, MakeMsg(hIn, []byte("payload")))
		p.ScheduleUntilIdle()
	})
	if err != nil {
		t.Fatal(err)
	}
	if !done {
		t.Fatal("re-enqueued message never dispatched")
	}
}

func TestBufferRecycling(t *testing.T) {
	// An un-grabbed handler buffer is recycled: a subsequent Alloc of a
	// compatible size returns the same backing array.
	cm := newTestMachine(1)
	var seen []byte
	h := cm.RegisterHandler(func(p *Proc, msg []byte) {
		seen = msg // illegally retained (not grabbed) to observe recycling
	})
	err := cm.Run(func(p *Proc) {
		p.SyncSend(0, MakeMsg(h, make([]byte, 32)))
		p.Scheduler(1)
		buf := p.Alloc(32)
		if !sameBuffer(buf, seen) {
			t.Error("un-grabbed buffer was not recycled by Alloc")
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestGrabbedBufferNotRecycled(t *testing.T) {
	cm := newTestMachine(1)
	var kept []byte
	h := cm.RegisterHandler(func(p *Proc, msg []byte) {
		kept = p.GrabBuffer()
	})
	err := cm.Run(func(p *Proc) {
		p.SyncSend(0, MakeMsg(h, []byte("keepme!")))
		p.Scheduler(1)
		buf := p.Alloc(7)
		if sameBuffer(buf, kept) {
			t.Error("grabbed buffer was recycled")
		}
		if string(Payload(kept)) != "keepme!" {
			t.Errorf("grabbed buffer content = %q", Payload(kept))
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestGrabBufferOutsideHandlingPanics(t *testing.T) {
	cm := newTestMachine(1)
	err := cm.Run(func(p *Proc) {
		p.GrabBuffer()
	})
	if err == nil || !strings.Contains(err.Error(), "GrabBuffer") {
		t.Fatalf("err = %v", err)
	}
}

func TestUnregisteredHandlerPanics(t *testing.T) {
	// checkSend rejects a never-registered handler index at send time,
	// before the message crosses to another processor.
	cm := newTestMachine(1)
	err := cm.Run(func(p *Proc) {
		p.SyncSend(0, MakeMsg(99, nil))
		p.Scheduler(1)
	})
	if err == nil || !strings.Contains(err.Error(), "handler index 99") {
		t.Fatalf("err = %v, want unregistered-handler panic", err)
	}
}

func TestNestedScheduler(t *testing.T) {
	// A handler may invoke the scheduler recursively (the SPM module
	// footnote in §3.1.2: invoke a concurrent function, then run the
	// scheduler to process what it deposited).
	cm := newTestMachine(1)
	var order []string
	var hOuter, hInner int
	hInner = cm.RegisterHandler(func(p *Proc, msg []byte) {
		order = append(order, "inner")
	})
	hOuter = cm.RegisterHandler(func(p *Proc, msg []byte) {
		order = append(order, "outer-begin")
		p.Enqueue(MakeMsg(hInner, nil))
		p.Scheduler(1) // nested: processes the inner message
		order = append(order, "outer-end")
	})
	err := cm.Run(func(p *Proc) {
		p.SyncSend(0, MakeMsg(hOuter, nil))
		p.Scheduler(1)
	})
	if err != nil {
		t.Fatal(err)
	}
	want := "outer-begin,inner,outer-end"
	if got := strings.Join(order, ","); got != want {
		t.Fatalf("order = %q, want %q", got, want)
	}
}

func TestExitSchedulerStopsOuterLoopOnly(t *testing.T) {
	cm := newTestMachine(1)
	ran := 0
	var h int
	h = cm.RegisterHandler(func(p *Proc, msg []byte) {
		ran++
		p.ExitScheduler()
	})
	err := cm.Run(func(p *Proc) {
		p.SyncSend(0, MakeMsg(h, nil))
		p.Scheduler(-1)
		// The exit flag must be cleared: a new scheduler call works.
		p.SyncSend(0, MakeMsg(h, nil))
		p.Scheduler(-1)
	})
	if err != nil {
		t.Fatal(err)
	}
	if ran != 2 {
		t.Fatalf("handler ran %d times, want 2", ran)
	}
}

func TestSchedulerBlocksIdleUntilMessage(t *testing.T) {
	cm := newTestMachine(2)
	got := false
	var h int
	h = cm.RegisterHandler(func(p *Proc, msg []byte) {
		got = true
		p.ExitScheduler()
	})
	err := cm.Run(func(p *Proc) {
		if p.MyPe() == 0 {
			p.Scheduler(-1) // must block idle, then process the late message
			return
		}
		time.Sleep(50 * time.Millisecond)
		p.SyncSend(0, MakeMsg(h, nil))
	})
	if err != nil {
		t.Fatal(err)
	}
	if !got {
		t.Fatal("late message not processed")
	}
}

// TestBlockingWaitsCountIdle: every blocking wait — ServeUntil and
// GetSpecificMsg as well as Scheduler(-1) — shows in IdleCount. PE 1
// sends only once PE 0 is asleep in its receive, so each wait blocks;
// it waits for that through the machine, polling its own inbox, whose
// empty polls yield to PE 0 whichever PE runs first.
func TestBlockingWaitsCountIdle(t *testing.T) {
	cm := newTestMachine(2)
	got := false
	h := cm.RegisterHandler(func(p *Proc, msg []byte) { got = true })
	var afterServe, afterSpecific uint64
	err := cm.Run(func(p *Proc) {
		if p.MyPe() == 0 {
			p.ServeUntil(func() bool { return got })
			afterServe = p.IdleCount()
			p.SyncSend(1, MakeMsg(h, nil)) // awake again
			p.GetSpecificMsg(h)
			afterSpecific = p.IdleCount()
			return
		}
		for i := 0; i < 2; i++ {
			if i > 0 {
				p.GetSpecificMsg(h)
			}
			for !cm.m.PE(0).BlockState().RecvWait {
				p.DeliverMsgs(-1)
			}
			p.SyncSend(0, MakeMsg(h, nil))
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if afterServe == 0 || afterSpecific <= afterServe {
		t.Fatalf("IdleCount after ServeUntil = %d, after GetSpecificMsg = %d; each blocked wait must count", afterServe, afterSpecific)
	}
}

// TestGetSpecificMsgKeepsDeferredOrder: taking a match out of the
// set-aside messages leaves the others in arrival order.
func TestGetSpecificMsgKeepsDeferredOrder(t *testing.T) {
	cm := newTestMachine(1)
	nop := func(p *Proc, msg []byte) {}
	hA, hB, hC := cm.RegisterHandler(nop), cm.RegisterHandler(nop), cm.RegisterHandler(nop)
	var got []string
	err := cm.Run(func(p *Proc) {
		for _, m := range []struct {
			h    int
			data string
		}{{hA, "a1"}, {hB, "b1"}, {hA, "a2"}, {hC, "c1"}} {
			p.SyncSendAndFree(0, MakeMsg(m.h, []byte(m.data)))
		}
		for _, h := range []int{hC, hB, hA, hA} { // sets a1, b1, a2 aside
			got = append(got, string(Payload(p.GetSpecificMsg(h))))
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(got) != "[c1 b1 a1 a2]" {
		t.Fatalf("GetSpecificMsg order %v, want [c1 b1 a1 a2]", got)
	}
}

func TestHandlerFuncLookup(t *testing.T) {
	cm := newTestMachine(1)
	called := false
	h := cm.RegisterHandler(func(p *Proc, msg []byte) { called = true })
	err := cm.Run(func(p *Proc) {
		fn := p.HandlerFunc(h)
		fn(p, MakeMsg(h, nil))
	})
	if err != nil {
		t.Fatal(err)
	}
	if !called {
		t.Fatal("HandlerFunc did not return the registered handler")
	}
}

func TestRegisterNilHandlerPanics(t *testing.T) {
	cm := newTestMachine(1)
	defer func() {
		if recover() == nil {
			t.Fatal("RegisterHandler(nil) did not panic")
		}
	}()
	cm.Proc(0).RegisterHandler(nil)
}

// TestSimFaultsPanics: a fault plan is a TCP-substrate setting; the
// simulated machine refuses one loudly, as it does a bad Transport.
func TestSimFaultsPanics(t *testing.T) {
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("NewMachine on the simulated machine accepted Config.Faults")
		}
		if msg := fmt.Sprint(r); !strings.Contains(msg, "TCP substrate") {
			t.Errorf("panic %q does not name the TCP substrate", msg)
		}
	}()
	NewMachine(Config{PEs: 2, Transport: TransportSim, Faults: "seed=7,drop=1%"})
}

func TestPerPEHandlerRegistration(t *testing.T) {
	// Runtime registration on a single Proc works and gets a distinct
	// index space continuation.
	cm := newTestMachine(2)
	shared := cm.RegisterHandler(func(p *Proc, msg []byte) {})
	err := cm.Run(func(p *Proc) {
		local := p.RegisterHandler(func(p *Proc, msg []byte) {})
		if local != shared+1 {
			t.Errorf("pe %d: local handler index = %d, want %d", p.MyPe(), local, shared+1)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestExtStorage(t *testing.T) {
	cm := newTestMachine(1)
	err := cm.Run(func(p *Proc) {
		if p.Ext("missing") != nil {
			t.Error("Ext of missing key != nil")
		}
		p.SetExt("k", 42)
		if p.Ext("k") != 42 {
			t.Error("Ext round trip failed")
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestScanfAsyncDeliversLine(t *testing.T) {
	cm := newTestMachine(1)
	cm.SetInput(strings.NewReader("hello 42\n"))
	var gotLine string
	h := cm.RegisterHandler(func(p *Proc, msg []byte) {
		gotLine = string(Payload(msg))
		p.ExitScheduler()
	})
	err := cm.Run(func(p *Proc) {
		if err := p.ScanfAsync(h); err != nil {
			t.Errorf("ScanfAsync: %v", err)
		}
		p.Scheduler(-1)
	})
	if err != nil {
		t.Fatal(err)
	}
	var s string
	var n int
	if _, err := fmt.Sscanf(gotLine, "%s %d", &s, &n); err != nil || s != "hello" || n != 42 {
		t.Fatalf("re-scan of %q failed: %v", gotLine, err)
	}
}

func TestImmediateMessagePreemptsBlockingReceive(t *testing.T) {
	cm := newTestMachine(2)
	var log []string
	var hUrgent, hData int
	hUrgent = cm.RegisterHandler(func(p *Proc, msg []byte) {
		log = append(log, "urgent:"+string(Payload(msg)))
	})
	hData = cm.RegisterHandler(func(p *Proc, msg []byte) {})
	err := cm.Run(func(p *Proc) {
		if p.MyPe() == 1 {
			urgent := MakeMsg(hUrgent, []byte("now"))
			SetImmediate(urgent)
			p.SyncSendAndFree(0, urgent)
			p.SyncSendAndFree(0, MakeMsg(hData, nil))
			return
		}
		// Blocked waiting for hData: the immediate message's handler
		// must run during the wait, not after.
		p.GetSpecificMsg(hData)
		log = append(log, "got-data")
	})
	if err != nil {
		t.Fatal(err)
	}
	if strings.Join(log, ",") != "urgent:now,got-data" {
		t.Fatalf("log = %v, want urgent handler to preempt the wait", log)
	}
}

func TestNonImmediateDeferredDuringBlockingReceive(t *testing.T) {
	cm := newTestMachine(2)
	ran := false
	var hOther, hData int
	hOther = cm.RegisterHandler(func(p *Proc, msg []byte) { ran = true })
	hData = cm.RegisterHandler(func(p *Proc, msg []byte) {})
	err := cm.Run(func(p *Proc) {
		if p.MyPe() == 1 {
			p.SyncSendAndFree(0, MakeMsg(hOther, nil)) // ordinary
			p.SyncSendAndFree(0, MakeMsg(hData, nil))
			return
		}
		p.GetSpecificMsg(hData)
		if ran {
			t.Error("ordinary message dispatched during GetSpecificMsg")
		}
		p.Scheduler(1)
		if !ran {
			t.Error("deferred message never dispatched")
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestImmediateFlagIsolatedFromLanguageFlags(t *testing.T) {
	msg := NewMsg(1, 4)
	SetImmediate(msg)
	SetFlags(msg, 0x7fffffff)
	if !IsImmediate(msg) {
		t.Fatal("SetFlags clobbered the immediate bit")
	}
	if FlagsOf(msg) != 0x7fffffff {
		t.Fatalf("FlagsOf = %#x", FlagsOf(msg))
	}
	msg2 := NewMsg(1, 4)
	SetFlags(msg2, 0xffffffff) // high bit must be masked out
	if IsImmediate(msg2) {
		t.Fatal("language flags leaked into the immediate bit")
	}
}
