// Package bench re-exports the measurement harness behind the paper's
// evaluation figures and the communication fast-path benchmarks
// (BENCH_comm.json). See converse/internal/bench for details.
package bench

import (
	"io"
	"testing"

	"converse/internal/bench"
	"converse/internal/core"
	"converse/internal/netmodel"
)

// Sizes is the message-size sweep used for every figure, in bytes.
var Sizes = bench.Sizes

// Row is one point of a figure: modeled one-way times per layer.
type Row = bench.Row

// Figure describes one of the paper's evaluation figures.
type Figure = bench.Figure

// Native measures the raw machine-layer round trip.
func Native(model *netmodel.Model, size, rounds int) float64 {
	return bench.Native(model, size, rounds)
}

// Converse measures the round trip through Converse handler dispatch.
func Converse(model *netmodel.Model, size, rounds int) float64 {
	return bench.Converse(model, size, rounds)
}

// ConverseWith is Converse with an explicit coalescing configuration.
func ConverseWith(model *netmodel.Model, size, rounds int, co core.CoalesceConfig) float64 {
	return bench.ConverseWith(model, size, rounds, co)
}

// Queued adds the receive-side scheduler-queue pass (Figure 6).
func Queued(model *netmodel.Model, size, rounds int) float64 {
	return bench.Queued(model, size, rounds)
}

// FanIn measures the many-to-one pattern: all other processors send
// msgs messages of the given size to processor 0; the result is the
// virtual time until the last dispatch on processor 0.
func FanIn(model *netmodel.Model, pes, msgs, size int, co core.CoalesceConfig) float64 {
	return bench.FanIn(model, pes, msgs, size, co)
}

// FanInThroughput converts a FanIn time to messages per virtual ms.
func FanInThroughput(elapsedUs float64, pes, msgs int) float64 {
	return bench.FanInThroughput(elapsedUs, pes, msgs)
}

// SteadyStateBench exposes the steady-state round trip to go-test
// benchmarks.
func SteadyStateBench(b *testing.B, co core.CoalesceConfig) { bench.SteadyStateBench(b, co) }

// Sweep runs all layers over the standard size sweep.
func Sweep(model *netmodel.Model, rounds int) []Row { return bench.Sweep(model, rounds) }

// Figures returns the paper's five evaluation figures in order.
func Figures() []Figure { return bench.Figures() }

// Print writes a figure's table to w.
func Print(w io.Writer, fig Figure, rounds int) error { return bench.Print(w, fig, rounds) }

// NetPingPong measures the wall-clock round trip between processors 0
// and 1 on the substrate selected by cfg.Transport, returning one-way
// microseconds as seen by processor 0 (zero on other ranks).
func NetPingPong(cfg core.Config, size, rounds int) (float64, error) {
	return bench.NetPingPong(cfg, size, rounds)
}

// NetFanIn measures the wall-clock many-to-one burst into processor 0
// on the substrate selected by cfg.Transport: the first-to-last
// dispatch span in microseconds and the throughput over it in messages
// per millisecond (zeros on ranks other than 0).
func NetFanIn(cfg core.Config, msgs, size int) (elapsedUs, msgsPerMs float64, err error) {
	return bench.NetFanIn(cfg, msgs, size)
}

// ScalePEs is the default processor ladder for the scale profile
// (commbench -scale, BENCH_scale.json).
var ScalePEs = bench.ScalePEs

// ScalePoint is one row of the scale profile.
type ScalePoint = bench.ScalePoint

// ScaleOptions parameterizes ScaleSweep.
type ScaleOptions = bench.ScaleOptions

// ScaleSweep runs the 8→256-PE ladder on the simulated substrate,
// capturing CPU and heap profiles through a live ccs monitor socket at
// each point.
func ScaleSweep(peList []int, opt ScaleOptions) ([]ScalePoint, error) {
	return bench.ScaleSweep(peList, opt)
}
