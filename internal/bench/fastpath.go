package bench

import (
	"fmt"
	"testing"

	"converse/internal/core"
	"converse/internal/netmodel"
)

// This file measures the communication fast path: pooled messages and
// sender-side coalescing (the BENCH_comm.json experiments run by
// cmd/commbench). The classic round-trip measurement in bench.go prices
// isolated messages; the fan-in measurement here prices the many-to-one
// burst pattern coalescing exists for.

// ConverseWith is Converse with an explicit coalescing configuration:
// the round trip through handler dispatch, coalescing applied to the
// ping and echo messages. With coalescing on, each message still
// travels alone (the round trip is strictly alternating), so this
// measures the fast path's per-message overhead floor — pack framing
// plus the receive-side unpack — rather than any amortization win.
func ConverseWith(model *netmodel.Model, size, rounds int, co core.CoalesceConfig) float64 {
	return converseRT(model, size, rounds, false, co)
}

// FanIn measures the many-to-one pattern on a machine of pes
// processors: every processor except 0 sends msgs messages of the
// given size to processor 0, which consumes them through the
// scheduler. It returns the virtual time in microseconds from start
// until processor 0 has dispatched the last message. Small messages
// make this receiver-bound: processor 0 pays the native per-message
// receive overhead once per packet, so coalescing (which turns ~32
// messages into one packet) raises fan-in throughput by the ratio
// netmodel.OneWayConverse / OneWayCoalesced of recv-side costs.
func FanIn(model *netmodel.Model, pes, msgs, size int, co core.CoalesceConfig) float64 {
	if size < core.HeaderSize {
		size = core.HeaderSize
	}
	cm := core.NewMachine(core.Config{
		PEs: pes, Model: model, Watchdog: watchdog, Coalesce: co,
	})
	total := (pes - 1) * msgs
	received := 0
	h := cm.RegisterHandler(func(p *core.Proc, msg []byte) {
		received++
		if received == total {
			p.ExitScheduler()
		}
	})
	var elapsed float64
	err := cm.Run(func(p *core.Proc) {
		if p.MyPe() == 0 {
			start := p.TimerUs()
			p.Scheduler(-1)
			elapsed = p.TimerUs() - start
			return
		}
		msg := core.NewMsg(h, size-core.HeaderSize)
		for i := 0; i < msgs; i++ {
			p.SyncSend(0, msg)
		}
	})
	if err != nil {
		panic(err)
	}
	if received != total {
		panic(fmt.Sprintf("bench: fan-in delivered %d of %d messages", received, total))
	}
	return elapsed
}

// FanInThroughput converts a FanIn elapsed time to messages per virtual
// millisecond.
func FanInThroughput(elapsedUs float64, pes, msgs int) float64 {
	return float64((pes-1)*msgs) / elapsedUs * 1000
}

// steadyState is the wall-clock benchmark body for the pooled
// SyncSendAndFree round trip: processor 0 allocates a message from the
// pool, transfers it, and blocks for the echo; processor 1's handler
// grabs the buffer and sends it straight back. After warmup every
// buffer in the cycle comes from and returns to a pool, so the steady
// state performs no heap allocation — the property the Makefile's
// overhead gate enforces.
func steadyState(b *testing.B, co core.CoalesceConfig) {
	cm := core.NewMachine(core.Config{PEs: 2, Watchdog: watchdog, Coalesce: co})
	var hPing, hPong, hStop int
	hPing = cm.RegisterHandler(func(p *core.Proc, msg []byte) {
		buf := p.GrabBuffer()
		core.SetHandler(buf, hPong)
		p.SyncSendAndFree(0, buf)
	})
	hPong = cm.RegisterHandler(func(p *core.Proc, msg []byte) {})
	hStop = cm.RegisterHandler(func(p *core.Proc, msg []byte) { p.ExitScheduler() })
	b.ReportAllocs()
	err := cm.Run(func(p *core.Proc) {
		if p.MyPe() != 0 {
			p.Scheduler(-1)
			return
		}
		roundTrip := func() {
			msg := p.Alloc(56)
			core.SetHandler(msg, hPing)
			p.SyncSendAndFree(1, msg)
			p.GetSpecificMsg(hPong)
		}
		for i := 0; i < 64; i++ {
			roundTrip() // warm both processors' pools
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			roundTrip()
		}
		b.StopTimer()
		p.SyncSend(1, core.MakeMsg(hStop, nil))
	})
	if err != nil {
		b.Fatal(err)
	}
}

// SteadyStateBench exposes the steady-state round trip to go-test
// benchmarks (see fastpath_test.go).
func SteadyStateBench(b *testing.B, co core.CoalesceConfig) { steadyState(b, co) }
