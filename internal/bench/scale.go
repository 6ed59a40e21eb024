package bench

// The 8→256-PE scale profile (cmd/commbench -scale, BENCH_scale.json).
//
// Each ladder point runs the wall-clock network suite (NetPingPong,
// NetFanIn) on the in-process simulated substrate at that processor
// count, then repeats the fan-in under a live CPU capture pulled
// through a real ccs monitor socket — the same introspection endpoint
// conversetop uses — so the published scheduler-loop share is measured
// by the shipping profiling path, not a test-only hook. Allocation
// cost per delivered message comes from the runtime's cumulative
// Mallocs counter around one fan-in run (machine construction is
// included, amortized over the burst).

import (
	"bytes"
	"fmt"
	"io"
	"runtime"
	"slices"
	"strings"
	"time"

	"converse/internal/ccs"
	"converse/internal/core"
)

// ScalePEs is the default processor ladder for the scale profile.
var ScalePEs = []int{8, 16, 32, 64, 128, 256}

// rungSamples is how many ping-pong runs and how many fan-in bursts,
// each on a fresh machine, every ladder point takes. One run is a shot
// of a few hundred microseconds that a single GC pause or host
// preemption can multiply, so a point records the samples' median and
// quartiles.
const rungSamples = 9

// schedFrames are the scheduler-loop frames whose cumulative CPU share
// the profile reports: the main dispatch loops and the network-drain
// path that feeds them.
var schedFrames = []string{
	"core.(*Proc).Scheduler",
	"core.(*Proc).ServeUntil",
	"core.(*Proc).ScheduleUntilIdle",
	"core.(*Proc).deliverFromNetwork",
}

// ScalePoint is one row of BENCH_scale.json.
type ScalePoint struct {
	PEs int `json:"pes"`
	// PingPongOneWayUs is the 0↔1 one-way latency with pes-2 other
	// processors idle on the same machine: the median of
	// PingPongSamples runs, whose quartiles are P25 and P75.
	PingPongOneWayUs    float64 `json:"pingpong_one_way_us"`
	PingPongOneWayP25Us float64 `json:"pingpong_one_way_p25_us"`
	PingPongOneWayP75Us float64 `json:"pingpong_one_way_p75_us"`
	PingPongSamples     int     `json:"pingpong_samples"`
	// Fan-in burst: every processor but 0 sends Msgs messages to 0.
	// The elapsed time is the median of FanInSamples bursts, whose
	// quartiles are P25 and P75; the rate is the median burst's.
	FanInElapsedUs    float64 `json:"fanin_elapsed_us"`
	FanInElapsedP25Us float64 `json:"fanin_elapsed_p25_us"`
	FanInElapsedP75Us float64 `json:"fanin_elapsed_p75_us"`
	FanInSamples      int     `json:"fanin_samples"`
	FanInMsgsPerMs    float64 `json:"fanin_msgs_per_ms"`
	// SchedCPUShare is the cumulative CPU fraction spent under the
	// scheduler loops (schedFrames) during fan-in bursts; CoreCPUShare
	// widens that to all of internal/core.
	SchedCPUShare float64 `json:"sched_cpu_share"`
	CoreCPUShare  float64 `json:"core_cpu_share"`
	// AllocsPerMsg is heap allocations per delivered message over the
	// timed fan-in bursts (machine construction amortized in). It measures
	// NetFanIn's harness shape, not the runtime: a sender sends its
	// whole burst without yielding, so every SyncSend copy is a pool
	// miss before PE 0 frees anything (≈1.06–1.09 on every rung). The
	// runtime's steady-state figure is BenchmarkFanInSteadyState, whose
	// bursts are bounded by a Barrier: 0 allocs/op.
	AllocsPerMsg float64 `json:"allocs_per_msg"`
	// HeapInuseBytes is the process's live heap right after the last
	// timed burst, while the machine's pools are still reachable.
	HeapInuseBytes int64 `json:"heap_inuse_bytes"`
}

// ScaleOptions parameterizes ScaleSweep.
type ScaleOptions struct {
	Msgs   int // messages per sending PE in the fan-in burst
	Size   int // message size in bytes
	Rounds int // ping-pong rounds
	// ProfileSeconds is the CPU-capture window per ladder point; the
	// fan-in repeats until the capture completes.
	ProfileSeconds float64
	Log            io.Writer // progress lines; nil for silent
}

// ScaleSweep runs the ladder and returns one point per processor
// count. The sim substrate multiplexes all PEs into this process, so
// CPU and heap captures see the whole machine.
func ScaleSweep(peList []int, opt ScaleOptions) ([]ScalePoint, error) {
	if opt.Msgs <= 0 || opt.Size <= 0 || opt.Rounds <= 0 {
		return nil, fmt.Errorf("bench: scale sweep needs positive msgs/size/rounds, have %d/%d/%d",
			opt.Msgs, opt.Size, opt.Rounds)
	}
	if opt.ProfileSeconds <= 0 {
		opt.ProfileSeconds = 1.3
	}
	logf := func(format string, args ...any) {
		if opt.Log != nil {
			fmt.Fprintf(opt.Log, format, args...)
		}
	}
	var points []ScalePoint
	for _, pes := range peList {
		if pes < 2 {
			return nil, fmt.Errorf("bench: scale sweep needs >= 2 PEs per point, have %d", pes)
		}
		pt, err := scalePoint(pes, opt)
		if err != nil {
			return nil, fmt.Errorf("bench: scale point pes=%d: %w", pes, err)
		}
		logf("pes=%-4d ping-pong %7.2f us (%.2f-%.2f)   fan-in %9.0f us (%.0f-%.0f) %8.1f msgs/ms   sched %4.1f%% core %4.1f%%   %.2f allocs/msg\n",
			pt.PEs, pt.PingPongOneWayUs, pt.PingPongOneWayP25Us, pt.PingPongOneWayP75Us,
			pt.FanInElapsedUs, pt.FanInElapsedP25Us, pt.FanInElapsedP75Us, pt.FanInMsgsPerMs,
			pt.SchedCPUShare*100, pt.CoreCPUShare*100, pt.AllocsPerMsg)
		points = append(points, pt)
	}
	return points, nil
}

// quartiles sorts xs and returns its 25th, 50th and 75th percentiles
// (nearest rank).
func quartiles(xs []float64) (p25, p50, p75 float64) {
	slices.Sort(xs)
	rank := func(q float64) float64 { return xs[int(q*float64(len(xs)-1)+0.5)] }
	return rank(0.25), rank(0.5), rank(0.75)
}

func scalePoint(pes int, opt ScaleOptions) (ScalePoint, error) {
	cfg := core.Config{Transport: core.TransportSim, Watchdog: 5 * time.Minute}
	pt := ScalePoint{PEs: pes}

	cfg.PEs = pes
	pp := make([]float64, rungSamples)
	for i := range pp {
		us, err := NetPingPong(cfg, opt.Size, opt.Rounds)
		if err != nil {
			return pt, err
		}
		pp[i] = us
	}
	pt.PingPongOneWayP25Us, pt.PingPongOneWayUs, pt.PingPongOneWayP75Us = quartiles(pp)
	pt.PingPongSamples = len(pp)

	// The timed fan-in bursts double as the allocation count: the
	// Mallocs delta over machine builds + bursts, per delivered message.
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fan := make([]float64, rungSamples)
	for i := range fan {
		el, _, err := NetFanIn(cfg, opt.Msgs, opt.Size)
		if err != nil {
			return pt, err
		}
		fan[i] = el
	}
	runtime.ReadMemStats(&after)
	pt.FanInElapsedP25Us, pt.FanInElapsedUs, pt.FanInElapsedP75Us = quartiles(fan)
	pt.FanInSamples = len(fan)
	// NetFanIn's rate, at the median burst: deliveries after the first
	// over the span.
	pt.FanInMsgsPerMs = float64((pes-1)*opt.Msgs-1) / pt.FanInElapsedUs * 1000
	pt.AllocsPerMsg = float64(after.Mallocs-before.Mallocs) / float64(len(fan)*(pes-1)*opt.Msgs)
	pt.HeapInuseBytes = int64(after.HeapInuse)

	// Profile captures go through a real monitor socket so the sweep
	// exercises the shipping introspection path end to end.
	mon, err := ccs.NewMonitor(ccs.Config{Addr: "127.0.0.1:0", NumPEs: pes})
	if err != nil {
		return pt, err
	}
	defer mon.Close()

	var cpuBuf bytes.Buffer
	fetchDone := make(chan error, 1)
	go func() {
		fetchDone <- ccs.FetchProfile(mon.Addr(), "", ccs.ProfileCPU, opt.ProfileSeconds, 0, &cpuBuf)
	}()
	// Keep the machine busy with fan-in bursts for the whole capture
	// window, then drain the last burst after the fetch returns.
	var fetchErr error
	done := false
	for !done {
		if _, _, err := NetFanIn(cfg, opt.Msgs, opt.Size); err != nil {
			return pt, err
		}
		select {
		case fetchErr = <-fetchDone:
			done = true
		default:
		}
	}
	if fetchErr != nil {
		return pt, fmt.Errorf("cpu capture: %w", fetchErr)
	}
	prof, err := ccs.ParseProfile(cpuBuf.Bytes())
	if err != nil {
		return pt, fmt.Errorf("cpu capture does not parse: %w", err)
	}
	pt.SchedCPUShare = prof.Share(schedFrames...)
	pt.CoreCPUShare = prof.Share("internal/core")

	// A heap capture through the same socket, parsed as a cross-check
	// that the profile path works at this scale (the live-heap number
	// itself comes from MemStats above — by the time this capture runs
	// the bench machines are garbage, so its totals are near zero).
	var heapBuf bytes.Buffer
	if err := ccs.FetchProfile(mon.Addr(), "", ccs.ProfileHeap, 0, 0, &heapBuf); err != nil {
		return pt, fmt.Errorf("heap capture: %w", err)
	}
	hp, err := ccs.ParseProfile(heapBuf.Bytes())
	if err != nil {
		return pt, fmt.Errorf("heap capture does not parse: %w", err)
	}
	if !strings.Contains(strings.Join(hp.SampleTypes, " "), "inuse_space") {
		return pt, fmt.Errorf("heap capture has sample types %v, want inuse_space", hp.SampleTypes)
	}
	return pt, nil
}
