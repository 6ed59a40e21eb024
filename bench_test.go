// Benchmarks reproducing the paper's evaluation (§5) and quantifying
// its "need-based cost" design claim (§3).
//
// One benchmark per evaluation figure (Figures 4-8) drives the real
// round-trip program on the corresponding machine model; wall time is
// the real software path on the host, and the modeled one-way virtual
// time — the number the paper plots — is attached as a custom metric
// (model-us/oneway). Figure 6's queueing experiment has its own bench.
//
// The microbenches measure the real cost of each optional layer so the
// "pay only for what you use" ladder is visible in ns: raw machine
// transport < +handler dispatch < +scheduler queue < +priority queue,
// plus thread switching, message-manager, synchronization and
// vector-send costs.
package converse_test

import (
	"sync/atomic"
	"testing"
	"time"

	"converse/internal/bench"
	"converse/internal/core"
	"converse/internal/csync"
	"converse/internal/cth"
	"converse/internal/lang/charm"
	"converse/internal/lang/dp"
	"converse/internal/lang/tsm"
	"converse/internal/ldb"
	"converse/internal/machine"
	"converse/internal/msgmgr"
	"converse/internal/netmodel"
	"converse/internal/queue"
)

const benchWatchdog = 10 * time.Minute

// --- figure benches (§5, Figures 4-8) -------------------------------

// benchFigure runs b.N round trips of the Converse layer at a reference
// 64-byte size on the given machine model, reporting the modeled
// one-way virtual time alongside real wall time.
func benchFigure(b *testing.B, model *netmodel.Model, queued bool) {
	const size = 64
	cm := core.NewMachine(core.Config{PEs: 2, Model: model, Watchdog: benchWatchdog})
	done := false
	echoed := 0
	twoPhase := func(p *core.Proc, msg []byte) bool {
		if !queued || core.FlagsOf(msg) != 0 {
			return false
		}
		buf := p.GrabBuffer()
		core.SetFlags(buf, 1)
		p.Enqueue(buf)
		return true
	}
	ponged := 0
	var hPing, hPong, hStop int
	hPing = cm.RegisterHandler(func(p *core.Proc, msg []byte) {
		if twoPhase(p, msg) {
			return
		}
		reply := p.Alloc(size - core.HeaderSize)
		core.SetHandler(reply, hPong)
		p.SyncSendAndFree(0, reply)
		echoed++
	})
	hPong = cm.RegisterHandler(func(p *core.Proc, msg []byte) {
		if twoPhase(p, msg) {
			return
		}
		ponged++
	})
	hStop = cm.RegisterHandler(func(p *core.Proc, msg []byte) { done = true })

	err := cm.Run(func(p *core.Proc) {
		if p.MyPe() == 0 {
			msg := core.NewMsg(hPing, size-core.HeaderSize)
			start := p.TimerUs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				p.SyncSend(1, msg)
				want := ponged + 1
				p.ServeUntil(func() bool { return ponged == want })
			}
			b.StopTimer()
			oneWay := (p.TimerUs() - start) / float64(2*b.N)
			b.ReportMetric(oneWay, "model-us/oneway")
			p.SyncSendAndFree(1, core.NewMsg(hStop, 0))
			return
		}
		p.ServeUntil(func() bool { return done })
	})
	if err != nil {
		b.Fatal(err)
	}
}

// BenchmarkFigure4ATMHP reproduces Figure 4 (ATM-connected HPs).
func BenchmarkFigure4ATMHP(b *testing.B) { benchFigure(b, netmodel.ATMHP(), false) }

// BenchmarkFigure5T3D reproduces Figure 5 (Cray T3D).
func BenchmarkFigure5T3D(b *testing.B) { benchFigure(b, netmodel.T3D(), false) }

// BenchmarkFigure6MyrinetFM reproduces Figure 6's main series
// (Myrinet/FM Suns, direct handler dispatch).
func BenchmarkFigure6MyrinetFM(b *testing.B) { benchFigure(b, netmodel.MyrinetFM(), false) }

// BenchmarkFigure6Queued reproduces Figure 6's queueing experiment:
// every received message passes through the scheduler's queue.
func BenchmarkFigure6Queued(b *testing.B) { benchFigure(b, netmodel.MyrinetFM(), true) }

// BenchmarkFigure7SP1 reproduces Figure 7 (IBM SP-1).
func BenchmarkFigure7SP1(b *testing.B) { benchFigure(b, netmodel.SP1(), false) }

// BenchmarkFigure8Paragon reproduces Figure 8 (Intel Paragon).
func BenchmarkFigure8Paragon(b *testing.B) { benchFigure(b, netmodel.Paragon(), false) }

// BenchmarkFigureSweeps regenerates the full size sweep of every figure
// once per iteration (heavyweight; used to sanity-check cmd/figures).
func BenchmarkFigureSweeps(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, fig := range bench.Figures() {
			bench.Sweep(fig.Model, 10)
		}
	}
}

// --- need-based-cost microbenches (§3) -------------------------------

// BenchmarkNativeTransport measures the raw machine layer: a self-send
// and receive with no Converse dispatch — the baseline every other
// layer's overhead is measured against.
func BenchmarkNativeTransport(b *testing.B) {
	m := machine.New(machine.Config{PEs: 1})
	pe := m.PE(0)
	buf := make([]byte, 64)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pe.Send(0, buf)
		if _, ok := pe.TryRecv(); !ok {
			b.Fatal("lost packet")
		}
	}
}

// BenchmarkHandlerDispatch adds the Converse layer: generalized-message
// send plus handler-table dispatch (CmiSyncSend + CmiDeliverMsgs), the
// paper's "few tens of instructions" claim in real nanoseconds.
func BenchmarkHandlerDispatch(b *testing.B) {
	cm := core.NewMachine(core.Config{PEs: 1, Watchdog: benchWatchdog})
	h := cm.RegisterHandler(func(p *core.Proc, msg []byte) {})
	err := cm.Run(func(p *core.Proc) {
		msg := core.NewMsg(h, 64-core.HeaderSize)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			p.SyncSend(0, msg)
			if p.DeliverMsgs(1) != 1 {
				b.Fatal("lost message")
			}
		}
	})
	if err != nil {
		b.Fatal(err)
	}
}

// BenchmarkSchedulerQueue adds the scheduler-queue pass: the cost paid
// only by languages that schedule through the queue (Figure 6's extra).
func BenchmarkSchedulerQueue(b *testing.B) {
	cm := core.NewMachine(core.Config{PEs: 1, Watchdog: benchWatchdog})
	ran := 0
	h := cm.RegisterHandler(func(p *core.Proc, msg []byte) { ran++ })
	err := cm.Run(func(p *core.Proc) {
		msg := core.NewMsg(h, 64-core.HeaderSize)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			p.Enqueue(msg)
			p.ScheduleUntilIdle()
		}
		if ran != b.N {
			b.Fatalf("ran %d of %d", ran, b.N)
		}
	})
	if err != nil {
		b.Fatal(err)
	}
}

// BenchmarkPriorityQueue uses the integer-priority heap instead of the
// FIFO lane — the §2.3 feature, costed.
func BenchmarkPriorityQueue(b *testing.B) {
	cm := core.NewMachine(core.Config{PEs: 1, Watchdog: benchWatchdog})
	h := cm.RegisterHandler(func(p *core.Proc, msg []byte) {})
	err := cm.Run(func(p *core.Proc) {
		msg := core.NewMsg(h, 64-core.HeaderSize)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			p.EnqueuePrio(msg, int32(i%64))
			p.ScheduleUntilIdle()
		}
	})
	if err != nil {
		b.Fatal(err)
	}
}

// BenchmarkBitVectorQueue costs the bit-vector priority queue.
func BenchmarkBitVectorQueue(b *testing.B) {
	cm := core.NewMachine(core.Config{PEs: 1, Watchdog: benchWatchdog})
	h := cm.RegisterHandler(func(p *core.Proc, msg []byte) {})
	err := cm.Run(func(p *core.Proc) {
		msg := core.NewMsg(h, 64-core.HeaderSize)
		prio := queue.BitVec{0x1234, 0x5678}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			p.EnqueueBitVec(msg, prio)
			p.ScheduleUntilIdle()
		}
	})
	if err != nil {
		b.Fatal(err)
	}
}

// BenchmarkThreadSwitch measures one suspend/resume round trip between
// the main context and a thread object — the core Cth primitive.
func BenchmarkThreadSwitch(b *testing.B) {
	cm := core.NewMachine(core.Config{PEs: 1, Watchdog: benchWatchdog})
	err := cm.Run(func(p *core.Proc) {
		rt := cth.Init(p)
		th := rt.Create(func() {
			for {
				rt.Suspend()
			}
		})
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			rt.Resume(th) // runs until the thread suspends back
		}
		b.StopTimer()
	})
	if err != nil {
		b.Fatal(err)
	}
}

// BenchmarkThreadCreateExit measures thread-object creation plus exit.
func BenchmarkThreadCreateExit(b *testing.B) {
	cm := core.NewMachine(core.Config{PEs: 1, Watchdog: benchWatchdog})
	err := cm.Run(func(p *core.Proc) {
		rt := cth.Init(p)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			th := rt.Create(func() {})
			rt.Resume(th)
		}
	})
	if err != nil {
		b.Fatal(err)
	}
}

// BenchmarkLockUnlock measures an uncontended csync lock cycle.
func BenchmarkLockUnlock(b *testing.B) {
	cm := core.NewMachine(core.Config{PEs: 1, Watchdog: benchWatchdog})
	err := cm.Run(func(p *core.Proc) {
		rt := cth.Init(p)
		l := csync.NewLock(rt)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			l.Lock()
			if err := l.Unlock(); err != nil {
				b.Fatal(err)
			}
		}
	})
	if err != nil {
		b.Fatal(err)
	}
}

// BenchmarkMsgMgrPutGet measures message-manager insert + tagged
// retrieval (the blocking-receive languages' storage path).
func BenchmarkMsgMgrPutGet(b *testing.B) {
	mm := msgmgr.New()
	msg := make([]byte, 64)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mm.Put(msg, i%16)
		if _, _, ok := mm.Get(i % 16); !ok {
			b.Fatal("lost message")
		}
	}
}

// BenchmarkMsgMgrTwoTagWildcard measures two-tag retrieval with a
// wildcard, the PVM-style (src, tag) addressing.
func BenchmarkMsgMgrTwoTagWildcard(b *testing.B) {
	mm := msgmgr.New()
	msg := make([]byte, 64)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mm.Put2(msg, i%16, i%4)
		if _, _, _, ok := mm.Get2(i%16, msgmgr.Wildcard); !ok {
			b.Fatal("lost message")
		}
	}
}

// BenchmarkVectorSend measures the EMI gather-send: three pieces
// gathered into one message and delivered.
func BenchmarkVectorSend(b *testing.B) {
	cm := core.NewMachine(core.Config{PEs: 1, Watchdog: benchWatchdog})
	h := cm.RegisterHandler(func(p *core.Proc, msg []byte) {})
	err := cm.Run(func(p *core.Proc) {
		a := make([]byte, 16)
		bb := make([]byte, 32)
		c := make([]byte, 16)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			p.VectorSend(0, h, a, bb, c)
			p.Progress()
			if p.DeliverMsgs(1) != 1 {
				b.Fatal("lost message")
			}
		}
	})
	if err != nil {
		b.Fatal(err)
	}
}

// BenchmarkBroadcast8 measures an 8-PE broadcast plus delivery.
func BenchmarkBroadcast8(b *testing.B) {
	cm := core.NewMachine(core.Config{PEs: 8, Watchdog: benchWatchdog})
	h := cm.RegisterHandler(func(p *core.Proc, msg []byte) {})
	hStop := cm.RegisterHandler(func(p *core.Proc, msg []byte) { p.ExitScheduler() })
	err := cm.Run(func(p *core.Proc) {
		if p.MyPe() != 0 {
			// Passive PEs absorb messages until stopped.
			p.Scheduler(-1)
			return
		}
		msg := core.NewMsg(h, 64-core.HeaderSize)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			p.SyncBroadcast(msg)
		}
		b.StopTimer()
		p.SyncBroadcastAllAndFree(core.NewMsg(hStop, 0))
	})
	if err != nil {
		b.Fatal(err)
	}
}

// --- ablation benches for design choices -----------------------------

// broadcastCompletion measures the modeled completion time of one
// 1 KB broadcast on a pes-wide T3D, flat vs tree.
func broadcastCompletion(b *testing.B, pes int, tree bool) {
	cm := core.NewMachine(core.Config{PEs: pes, Model: netmodel.T3D(), Watchdog: benchWatchdog})
	var last atomic.Int64 // max delivery time, fixed-point us*1000
	received := new(atomic.Int64)
	h := cm.RegisterHandler(func(p *core.Proc, msg []byte) {
		now := int64(p.TimerUs() * 1000)
		for {
			old := last.Load()
			if now <= old || last.CompareAndSwap(old, now) {
				break
			}
		}
		received.Add(1)
	})
	hStop := cm.RegisterHandler(func(p *core.Proc, msg []byte) { p.ExitScheduler() })
	err := cm.Run(func(p *core.Proc) {
		if p.MyPe() != 0 {
			p.Scheduler(-1)
			return
		}
		msg := core.NewMsg(h, 1024)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if tree {
				p.SyncBroadcast(msg)
				p.Scheduler(pes) // serve forwarding envelopes
			} else {
				for q := 1; q < pes; q++ {
					p.SyncSend(q, msg)
				}
			}
			for int(received.Load()) < (i+1)*(pes-1) {
				p.Scheduler(1)
			}
		}
		b.StopTimer()
		b.ReportMetric(float64(last.Load())/1000/float64(b.N), "model-us/bcast")
		p.SyncBroadcastAllAndFree(core.NewMsg(hStop, 0))
	})
	if err != nil {
		b.Fatal(err)
	}
}

// BenchmarkBroadcastFlat64 and BenchmarkBroadcastTree64 compare the
// O(P) flat broadcast against the O(log P) spanning-tree broadcast on a
// 64-PE T3D (ablation for the "machine layer should optimize group
// operations" design point).
func BenchmarkBroadcastFlat64(b *testing.B) { broadcastCompletion(b, 64, false) }

// BenchmarkBroadcastTree64 is the tree side of the ablation.
func BenchmarkBroadcastTree64(b *testing.B) { broadcastCompletion(b, 64, true) }

// BenchmarkCharmLocalInvoke measures a full local chare method
// invocation: send -> queue -> replay -> dispatch.
func BenchmarkCharmLocalInvoke(b *testing.B) {
	cm := core.NewMachine(core.Config{PEs: 1, Watchdog: benchWatchdog})
	err := cm.Run(func(p *core.Proc) {
		rt := charm.Attach(p, ldb.NewSpray())
		typeID := rt.Register(
			func(rt *charm.RT, self charm.ChareID, msg []byte) any { return nil },
			func(rt *charm.RT, obj any, msg []byte) {},
		)
		id := rt.CreateHere(typeID, nil)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			rt.Send(typeID, id, 0, nil)
			p.ScheduleUntilIdle()
		}
	})
	if err != nil {
		b.Fatal(err)
	}
}

// BenchmarkChareMigration measures a full migration round: pack, ship,
// rebuild, moved-notice, forwarding entry.
func BenchmarkChareMigration(b *testing.B) {
	cm := core.NewMachine(core.Config{PEs: 2, Watchdog: benchWatchdog})
	done := false
	hStop := cm.RegisterHandler(func(p *core.Proc, msg []byte) {
		done = true
		p.ExitScheduler()
	})
	err := cm.Run(func(p *core.Proc) {
		rt := charm.Attach(p, ldb.NewSpray())
		typeID := rt.Register(func(rt *charm.RT, self charm.ChareID, msg []byte) any {
			return &packable{}
		})
		rt.SetUnpacker(typeID, func(rt *charm.RT, self charm.ChareID, blob []byte) any {
			return &packable{}
		})
		if p.MyPe() != 0 {
			p.ServeUntil(func() bool { return done })
			return
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			id := rt.CreateHere(typeID, nil)
			rt.Migrate(typeID, id, 1)
			p.ScheduleUntilIdle() // process the moved-notice
		}
		b.StopTimer()
		p.SyncSendAndFree(1, core.NewMsg(hStop, 0))
	})
	if err != nil {
		b.Fatal(err)
	}
}

type packable struct{}

func (*packable) Pack() []byte { return nil }

// BenchmarkTSMThreadMessage measures a same-PE thread-to-thread tagged
// message: send, park, awaken, context switch, receive.
func BenchmarkTSMThreadMessage(b *testing.B) {
	cm := core.NewMachine(core.Config{PEs: 1, Watchdog: benchWatchdog})
	err := cm.Run(func(p *core.Proc) {
		ts := tsm.Attach(p)
		b.ResetTimer()
		ts.Create(func() {
			for i := 0; i < b.N; i++ {
				ts.Send(0, 1, nil)
				ts.Recv(2)
			}
		})
		ts.Create(func() {
			for i := 0; i < b.N; i++ {
				ts.Recv(1)
				ts.Send(0, 2, nil)
			}
		})
		ts.Run()
		b.StopTimer()
	})
	if err != nil {
		b.Fatal(err)
	}
}

// BenchmarkDPAllReduce measures a machine-wide float reduction +
// broadcast on 8 PEs.
func BenchmarkDPAllReduce(b *testing.B) {
	cm := core.NewMachine(core.Config{PEs: 8, Watchdog: benchWatchdog})
	err := cm.Run(func(p *core.Proc) {
		d := dp.Attach(p)
		v := d.NewVector(64, func(i int) float64 { return float64(i) })
		if p.MyPe() == 0 {
			b.ResetTimer()
		}
		for i := 0; i < b.N; i++ {
			v.Sum()
		}
	})
	if err != nil {
		b.Fatal(err)
	}
}
