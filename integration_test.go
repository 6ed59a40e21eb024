// Integration tests: whole-machine programs combining the paradigms the
// paper's framework exists to make coexist — SPM modules, message-driven
// objects, and threads, sharing processors under one scheduler.
package converse_test

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"converse"
	"converse/internal/core"
	"converse/internal/emi"
	"converse/internal/lang/charm"
	"converse/internal/lang/dp"
	"converse/internal/lang/mdt"
	"converse/internal/lang/mpi"
	"converse/internal/lang/nx"
	"converse/internal/lang/pvmc"
	"converse/internal/lang/sm"
	"converse/internal/lang/tsm"
	"converse/internal/ldb"
	"converse/internal/trace"
)

// TestPublicAPI exercises the root package's re-exported surface.
func TestPublicAPI(t *testing.T) {
	msg := converse.NewMsg(3, 4)
	if len(msg) != converse.HeaderSize+4 {
		t.Fatalf("NewMsg length %d", len(msg))
	}
	converse.SetHandler(msg, 9)
	if converse.HandlerOf(msg) != 9 {
		t.Fatal("handler round trip failed")
	}
	m2 := converse.MakeMsg(1, []byte("abc"))
	if string(converse.Payload(m2)) != "abc" {
		t.Fatal("payload round trip failed")
	}

	cm := converse.NewMachine(converse.Config{PEs: 2, Watchdog: 10 * time.Second})
	got := ""
	var h int
	h = cm.RegisterHandler(func(p *converse.Proc, msg []byte) {
		if p.MyPe() == 1 {
			p.SyncSend(0, converse.MakeMsg(h, converse.Payload(msg)))
		} else {
			got = string(converse.Payload(msg))
		}
		p.ExitScheduler()
	})
	err := cm.Run(func(p *converse.Proc) {
		if p.MyPe() == 0 {
			p.SyncSend(1, converse.MakeMsg(h, []byte("round")))
		}
		p.Scheduler(-1)
	})
	if err != nil {
		t.Fatal(err)
	}
	if got != "round" {
		t.Fatalf("got %q", got)
	}
}

// TestThreeParadigmsOneProcessor runs an SPM module, a chare, and a
// thread on the same processors in one program, all cross-communicating:
// the SPM side feeds a chare; the chare triggers a thread; the thread
// reports back to the SPM side via SM. This is the paper's central
// interoperability scenario.
func TestThreeParadigmsOneProcessor(t *testing.T) {
	const pes = 2
	cm := converse.NewMachine(converse.Config{PEs: pes, Watchdog: 20 * time.Second})
	var final string
	err := cm.Run(func(p *converse.Proc) {
		s := sm.Attach(p)
		ts := tsm.Attach(p)
		rt := charm.Attach(p, ldb.NewSpray())

		var echoType int
		echoType = rt.Register(
			func(rt *charm.RT, self charm.ChareID, msg []byte) any { return nil },
			// entry 0: transform the payload and wake the thread side
			func(rt *charm.RT, obj any, msg []byte) {
				out := strings.ToUpper(string(msg))
				tsm.Attach(rt.Proc()).Send(1, 50, []byte(out))
			},
		)
		id := rt.CreateHere(echoType, nil)

		if p.MyPe() == 1 {
			// The thread side: waits for the chare's output, decorates
			// it, ships it back to PE0's SPM module over SM.
			ts.Create(func() {
				d, _, _ := ts.Recv(50)
				s.Send(0, 60, append(d, []byte("-via-thread")...))
			})
		}

		if p.MyPe() == 0 {
			// SPM module: kick the chare on PE1 (message-driven world) …
			rt.Send(echoType, charm.ChareID{PE: 1, Local: id.Local}, 0, []byte("payload"))
			// … then block SPM-style for the final SM message, while
			// the scheduler stays available to other modules via the
			// CMI's buffering.
			d, _, _ := s.Recv(60)
			final = string(d)
			return
		}
		ts.Run()
	})
	if err != nil {
		t.Fatal(err)
	}
	if final != "PAYLOAD-via-thread" {
		t.Fatalf("final = %q", final)
	}
}

// TestExplicitInvokesImplicit reproduces the paper's footnote scenario:
// an SPM module invokes a function in a concurrent (message-driven)
// module, which deposits messages; the SPM module then explicitly
// invokes the scheduler, and the result of the concurrent computation
// comes back before the scheduler returns.
func TestExplicitInvokesImplicit(t *testing.T) {
	cm := converse.NewMachine(converse.Config{PEs: 1, Watchdog: 10 * time.Second})
	result := 0
	var hWork, hDone int
	hWork = cm.RegisterHandler(func(p *converse.Proc, msg []byte) {
		n := int(binary.LittleEndian.Uint32(converse.Payload(msg)))
		if n == 0 {
			p.Enqueue(converse.NewMsg(hDone, 0))
			return
		}
		result += n
		next := converse.NewMsg(hWork, 4)
		binary.LittleEndian.PutUint32(converse.Payload(next), uint32(n-1))
		p.Enqueue(next)
	})
	hDone = cm.RegisterHandler(func(p *converse.Proc, msg []byte) {
		p.ExitScheduler()
	})
	err := cm.Run(func(p *converse.Proc) {
		// SPM module deposits work into the concurrent regime …
		seed := converse.NewMsg(hWork, 4)
		binary.LittleEndian.PutUint32(converse.Payload(seed), 10)
		p.Enqueue(seed)
		// … and explicitly relinquishes control to the scheduler.
		p.Scheduler(-1)
		// Control is back: the concurrent computation has finished.
		if result != 55 {
			t.Errorf("result = %d, want 55", result)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestPVMAndCharmShareMachine runs a PVM-style SPM collective and a
// chare fan-out in the same program — the NAMD/FMA reuse story.
func TestPVMAndCharmShareMachine(t *testing.T) {
	const pes = 4
	cm := converse.NewMachine(converse.Config{PEs: pes, Watchdog: 20 * time.Second})
	var chareWork int64
	err := cm.Run(func(p *converse.Proc) {
		v := pvmc.Attach(p)
		rt := charm.Attach(p, ldb.NewRandom(int64(p.MyPe())+7))
		workType := rt.Register(func(rt *charm.RT, self charm.ChareID, msg []byte) any {
			atomic.AddInt64(&chareWork, 1)
			return nil
		})

		// Phase A: message-driven fan-out with quiescence.
		if p.MyPe() == 0 {
			for i := 0; i < 20; i++ {
				rt.Create(workType, nil)
			}
			rt.StartQD(func(rt *charm.RT) { rt.ExitAll() })
		}
		p.Scheduler(-1)

		// Phase B: loosely synchronous PVM collective on the same PEs.
		v.Barrier()
		if v.Mytid() != 0 {
			v.InitSend().PackInt(int64(v.Mytid()))
			v.Send(0, 5)
			return
		}
		sum := int64(0)
		for i := 1; i < pes; i++ {
			v.Recv(pvmc.Any, 5)
			sum += v.RecvBuf().UnpackInt()
		}
		if sum != 1+2+3 {
			t.Errorf("pvm reduce sum = %d", sum)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if chareWork != 20 {
		t.Fatalf("chare work = %d, want 20", chareWork)
	}
}

// TestTracedMultiParadigmRun attaches the tracing module to a combined
// run and checks the standard-format invariants across paradigms.
func TestTracedMultiParadigmRun(t *testing.T) {
	const pes = 2
	col := trace.NewCollector(pes)
	cm := converse.NewMachine(converse.Config{
		PEs: pes, Watchdog: 20 * time.Second, Tracer: col.Tracer,
	})
	err := cm.Run(func(p *converse.Proc) {
		ts := tsm.Attach(p)
		rt := charm.Attach(p, ldb.NewSpray())
		typ := rt.Register(func(rt *charm.RT, self charm.ChareID, msg []byte) any { return nil })
		if p.MyPe() == 0 {
			ts.Create(func() {
				ts.Send(1, 9, []byte("x"))
				ts.Recv(10)
			})
			rt.Create(typ, nil)
		} else {
			ts.Create(func() {
				ts.Recv(9)
				ts.Send(0, 10, nil)
			})
		}
		ts.Run()
	})
	if err != nil {
		t.Fatal(err)
	}
	s := col.Summarize()
	if s.Counts[core.EvThreadCreate] < 2 {
		t.Errorf("thread creations traced = %d", s.Counts[core.EvThreadCreate])
	}
	if s.Counts[core.EvObjectCreate] != 1 {
		t.Errorf("object creations traced = %d, want 1", s.Counts[core.EvObjectCreate])
	}
	if s.Sends == 0 || s.Sends != s.Recvs {
		t.Errorf("sends=%d recvs=%d", s.Sends, s.Recvs)
	}
	if s.Counts[core.EvBegin] != s.Counts[core.EvEnd] {
		t.Error("unbalanced handler begin/end")
	}
}

// TestEMIScatterIntoSPM: an advance-receive posted by an SPM module
// fills user buffers directly from a message produced by a chare on
// another processor.
func TestEMIScatterIntoSPM(t *testing.T) {
	cm := converse.NewMachine(converse.Config{PEs: 2, Watchdog: 20 * time.Second})
	payloadHandler := cm.RegisterHandler(func(p *converse.Proc, msg []byte) {
		t.Error("scattered message must not reach its handler")
	})
	err := cm.Run(func(p *converse.Proc) {
		emi.Init(p)
		s := sm.Attach(p)
		if p.MyPe() == 1 {
			msg := converse.NewMsg(payloadHandler, 12)
			pl := converse.Payload(msg)
			binary.LittleEndian.PutUint32(pl[0:], 0xfeed)
			copy(pl[4:], "datablob")
			p.SyncSendAndFree(0, msg)
			s.Send(0, 7, []byte("after"))
			return
		}
		dst := make([]byte, 8)
		reg := emi.RegisterScatter(p,
			[]emi.Match{{Offset: converse.HeaderSize, Value: 0xfeed}},
			[]emi.Segment{{MsgOffset: converse.HeaderSize + 4, Dst: dst}})
		// The SPM receive picks the scatter payload up first, while it
		// waits for the SM message behind it; the pre-dispatch hook must
		// see it there, not when the set-aside message is replayed.
		if d, _, _ := s.Recv(7); string(d) != "after" {
			t.Errorf("sm.Recv = %q", d)
		}
		p.ServeUntil(reg.Done)
		if string(dst) != "datablob" {
			t.Errorf("scattered %q", dst)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestGlobalPointersAcrossParadigms: a chare publishes data in a
// global-pointer region; an SPM module on another PE SyncGets it.
func TestGlobalPointersAcrossParadigms(t *testing.T) {
	cm := converse.NewMachine(converse.Config{PEs: 2, Watchdog: 20 * time.Second})
	carrier := cm.RegisterHandler(func(p *converse.Proc, msg []byte) {})
	err := cm.Run(func(p *converse.Proc) {
		s := emi.Init(p)
		if p.MyPe() == 0 {
			region := []byte("published-by-pe0")
			g := s.Create(region)
			ptr := converse.NewMsg(carrier, emi.GlobalPtrSize)
			g.Encode(converse.Payload(ptr))
			p.SyncSendAndFree(1, ptr)
			// Serve gets until the peer overwrites the first byte.
			p.ServeUntil(func() bool { return region[0] == '!' })
			return
		}
		g := emi.DecodeGlobalPtr(converse.Payload(p.GetSpecificMsg(carrier)))
		dst := make([]byte, 9)
		s.SyncGet(g, dst)
		if string(dst) != "published" {
			t.Errorf("SyncGet = %q", dst)
		}
		s.SyncPut(g, []byte("!"))
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestObservabilityEndToEnd runs a multi-paradigm, multi-PE program
// with both the tracer and the metrics registry attached, then checks
// (a) the merge property — every receive appears after its matching
// send in the globally merged stream, even with zero-cost timestamp
// ties — and (b) that the metrics registry agrees with the trace on
// message and dispatch counts.
func TestObservabilityEndToEnd(t *testing.T) {
	const pes = 4
	col := trace.NewCollector(pes)
	reg := converse.NewMetrics(pes)
	// No Model: the zero-cost machine produces heavily tied timestamps,
	// the hard case for a causally consistent global merge.
	cm := converse.NewMachine(converse.Config{
		PEs: pes, Watchdog: 20 * time.Second, Tracer: col.Tracer, Metrics: reg,
	})
	err := cm.Run(func(p *converse.Proc) {
		ts := tsm.Attach(p)
		bal := ldb.New(p, ldb.NewSpray())
		hWork := p.RegisterHandler(func(p *core.Proc, msg []byte) {})
		ts.Create(func() {
			for i := 0; i < 5; i++ {
				seed := converse.NewMsg(hWork, 8)
				bal.Deposit(seed)
				ts.Send((p.MyPe()+1)%pes, 7, []byte{byte(i)})
				ts.Recv(7)
			}
		})
		ts.Run()
		p.ScheduleUntilIdle()
	})
	if err != nil {
		t.Fatal(err)
	}

	// (a) Causal consistency of the global merge.
	type link struct{ src, dst int }
	sends := map[link]int{}
	merged := col.Merged()
	for i, e := range merged {
		if i > 0 && e.T < merged[i-1].T {
			t.Fatalf("merged stream not time sorted at %d", i)
		}
		switch e.Kind {
		case core.EvSend:
			sends[link{e.PE, e.Dst}]++
		case core.EvRecv:
			l := link{e.Src, e.PE}
			sends[l]--
			if sends[l] < 0 {
				t.Fatalf("event %d: receive on link %v precedes its send", i, l)
			}
		}
	}

	// (b) Metrics agree with the trace.
	s := col.Summarize()
	snap := reg.Snapshot()
	var sentMsgs, dispatches, seeds uint64
	for _, pe := range snap.PEs {
		for _, n := range pe.SentMsgs {
			sentMsgs += n
		}
		dispatches += pe.Dispatches
		seeds += pe.SeedsDeposited
	}
	if sentMsgs != s.Sends {
		t.Errorf("metrics sends=%d, trace sends=%d", sentMsgs, s.Sends)
	}
	if dispatches != s.Counts[core.EvBegin] {
		t.Errorf("metrics dispatches=%d, trace begins=%d", dispatches, s.Counts[core.EvBegin])
	}
	if seeds != pes*5 {
		t.Errorf("seeds deposited=%d, want %d", seeds, pes*5)
	}
}

// TestSevenDialectsIsolated attaches all seven messaging languages — SM,
// NX, PVM, MPI, DP, tSM and MDT — on the same two processors and
// interleaves their traffic under the same tag numbers, with wildcard
// receives, while MPI and DP collectives draw the same reserved tags.
// Each language must receive exactly its own messages, in per-pair FIFO
// order and byte for byte: every language has its own mailbox.
func TestSevenDialectsIsolated(t *testing.T) {
	const rounds = 4
	tags := []int{1, 2, 3}
	payload := func(lang string, src, r, tag int) []byte {
		b := []byte(fmt.Sprintf("%s:%d:%d:%d:", lang, src, r, tag))
		for i := 0; i < (r*7+tag)%23; i++ {
			b = append(b, byte(src*31+r*7+tag+i))
		}
		return b
	}
	cm := converse.NewMachine(converse.Config{PEs: 2, Watchdog: 20 * time.Second})
	err := cm.Run(func(p *converse.Proc) {
		me, peer := p.MyPe(), 1-p.MyPe()
		s, x, v, m := sm.Attach(p), nx.Attach(p), pvmc.Attach(p), mpi.Attach(p)
		d, ts, md := dp.Attach(p), tsm.Attach(p), mdt.Attach(p)
		check := func(lang string, r, tag, src, rtag int, got []byte) {
			if want := payload(lang, peer, r, tag); src != peer || rtag != tag || !bytes.Equal(got, want) {
				t.Errorf("pe %d: %s round %d tag %d: got %q from %d tag %d, want %q", me, lang, r, tag, got, src, rtag, want)
			}
		}
		for r := 0; r < rounds; r++ {
			for _, tag := range tags {
				s.Send(peer, tag, payload("sm", me, r, tag))
				x.Csend(tag, payload("nx", me, r, tag), peer)
				v.InitSend().PackBytes(payload("pvm", me, r, tag))
				v.Send(peer, tag)
				m.Send(payload("mpi", me, r, tag), peer, tag)
				ts.Send(peer, tag, payload("tsm", me, r, tag))
				md.Send(peer, tag, payload("mdt", me, r, tag))
			}
		}

		// MPI and DP collectives, interleaved, reserve the same tag
		// numbers above the user range in their own mailboxes.
		buf := []byte("........")
		if me == 0 {
			copy(buf, "mpibcast")
		}
		m.Bcast(buf, 0)
		if string(buf) != "mpibcast" {
			t.Errorf("pe %d: mpi Bcast = %q", me, buf)
		}
		if got := d.BroadcastScalar(float64(me) + 2.5); got != 2.5 {
			t.Errorf("pe %d: dp BroadcastScalar = %v", me, got)
		}
		if g := m.Gather([]byte{byte(me + 10)}, 1); me == 1 && !bytes.Equal(g, []byte{10, 11}) {
			t.Errorf("mpi Gather = %v", g)
		}
		vec := d.NewVector(6, func(i int) float64 { return float64(i) })
		if all := vec.Shift(1).Gather(); me == 0 && fmt.Sprint(all) != "[1 2 3 4 5 0]" {
			t.Errorf("dp Shift+Gather = %v", all)
		}

		// SM: wildcard tag, so the order is the send order.
		for r := 0; r < rounds; r++ {
			for _, tag := range tags {
				data, src, rtag := s.Recv(sm.Wildcard)
				check("sm", r, tag, src, rtag, data)
			}
		}
		// NX: by type, highest first, so the other types park meanwhile.
		nbuf := make([]byte, 64)
		for i := len(tags) - 1; i >= 0; i-- {
			for r := 0; r < rounds; r++ {
				n := x.Crecv(tags[i], nbuf)
				check("nx", r, tags[i], x.Infonode(), x.Infotype(), nbuf[:n])
			}
		}
		// PVM: source and tag both wildcards.
		for r := 0; r < rounds; r++ {
			for _, tag := range tags {
				src, rtag := v.Recv(pvmc.Any, pvmc.Any)
				check("pvm", r, tag, src, rtag, v.RecvBuf().UnpackBytes())
			}
		}
		// MPI: any source, by tag, probing first.
		for _, tag := range tags {
			for r := 0; r < rounds; r++ {
				st := m.Probe(mpi.AnySource, tag)
				rb := make([]byte, st.Count)
				if got := m.Recv(rb, mpi.AnySource, tag); got != st {
					t.Errorf("pe %d: mpi Recv status %+v after Probe %+v", me, got, st)
				}
				check("mpi", r, tag, st.Source, st.Tag, rb)
			}
		}
		// tSM threads receive by wildcard, MDT threads by tag.
		ts.Create(func() {
			for r := 0; r < rounds; r++ {
				for _, tag := range tags {
					data, src, rtag := ts.Recv(tsm.Wildcard)
					check("tsm", r, tag, src, rtag, data)
				}
			}
		})
		for _, tag := range tags {
			md.CreateThread(func() {
				for r := 0; r < rounds; r++ {
					check("mdt", r, tag, peer, tag, md.Recv(tag))
				}
			})
		}
		ts.Run()
		md.Run()
	})
	if err != nil {
		t.Fatal(err)
	}
}
