// Command perfbench is the Converse benchmark: four closed-loop
// workloads over the repository's layers, each measured end to end,
// and a traced run that breaks the same paths down layer by layer.
//
// Run it from the repository root; perfbench/run.sh builds it from the
// checkout and passes its arguments on:
//
//	bash perfbench/run.sh --workload msg-sim --seed 1 --seconds 10 --trace 0
//	bash perfbench/run.sh --workload all --seconds 5
//
// Each metric is printed on its own line with its unit; the last line
// of standard output is one JSON object with correct, attempted, failed
// and metrics: every end-to-end metric with --trace 0, every per-layer
// metric with --trace 1. Scratch state and span files go under
// .bench_build/ in the working directory.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"
)

// workload is one named input set the benchmark runs.
type workload struct {
	name string
	run  func(*passCfg) (*passResult, error)
	// every is the traced runs' sampling interval: spans are recorded
	// for one operation in every, which keeps the span buffers bounded.
	every uint64
}

var workloads = []workload{
	{name: "msg-sim", run: runMsgSim, every: 256},
	{name: "stream-tcp", run: runStreamTCP, every: 128},
	{name: "coll-sim", run: runCollSim, every: 16},
	{name: "jobs", run: runJobs, every: 1},
}

// setupReps is how many fresh bring-ups an untraced run times besides
// the measured ones; setup_s is the median of them all, since a single
// bring-up varies several-fold from one to the next.
const setupReps = 40

// metricDef is one reported metric. For a per-layer metric, home is
// the workload a traced run borrows the value from when the workload
// it was asked for bypasses that layer ("" when every workload
// measures it).
type metricDef struct {
	name, unit, better, home string
}

var endToEndDefs = []metricDef{
	{name: "lat_p50_us", unit: "us", better: "lower"},
	{name: "lat_p90_us", unit: "us", better: "lower"},
	{name: "ops_per_s", unit: "1/s", better: "higher"},
	{name: "heap_mib", unit: "MiB", better: "lower"},
	{name: "setup_s", unit: "s", better: "lower"},
}

var perLayerDefs = []metricDef{
	{"core.send_ns", "ns", "lower", "msg-sim"},
	{"core.alloc_ns", "ns", "lower", "msg-sim"},
	{"core.serve_wait_us", "us", "lower", "msg-sim"},
	{"core.pool_hit_ratio", "ratio", "higher", "msg-sim"},
	{"core.idle_frac", "ratio", "lower", "stream-tcp"},
	{"core.queue_hwm", "count", "lower", "coll-sim"},
	{"proc.allocs_per_op", "count", "lower", ""},
	{"mnet.join_ms", "ms", "lower", "stream-tcp"},
	{"mnet.frames_per_msg", "count", "lower", "stream-tcp"},
	{"mnet.wire_bytes_per_msg", "B", "lower", "stream-tcp"},
	{"mnet.stalls", "count", "lower", "stream-tcp"},
	{"coll.core_bcast_us", "us", "lower", "coll-sim"},
	{"coll.core_reduce_us", "us", "lower", "coll-sim"},
	{"coll.core_barrier_us", "us", "lower", "coll-sim"},
	{"coll.mpi_allreduce_us", "us", "lower", "coll-sim"},
	{"coll.mpi_barrier_us", "us", "lower", "coll-sim"},
	{"coll.msgs_per_op_core", "count", "lower", "coll-sim"},
	{"coll.msgs_per_op_mpi", "count", "lower", "coll-sim"},
	{"service.submit_us", "us", "lower", "jobs"},
	{"service.status_us", "us", "lower", "jobs"},
	{"service.queue_wait_ms", "ms", "lower", "jobs"},
	{"service.run_ms", "ms", "lower", "jobs"},
	{"service.notify_ms", "ms", "lower", "jobs"},
	{"service.daemon_register_ms", "ms", "lower", "jobs"},
	{"service.journal_bytes_per_job", "B", "lower", "jobs"},
	{"lat_p99_us", "us", "lower", ""},
	{"trace.overhead_p50_pct", "%", "lower", ""},
	{"trace.overhead_ops_pct", "%", "lower", ""},
	{"trace.op_self_us", "us", "lower", ""},
}

// laneRoom is the span capacity of an operation lane.
const laneRoom = 1 << 17

// passCfg parameterizes one pass: bring up a workload's fixture
// setups+segments times and measure on each of the last segments, so
// one run's figures pool several fresh fixtures.
type passCfg struct {
	seed     int64
	warm     time.Duration // closed-loop warm-up before each timed segment
	dur      time.Duration // timed window, split evenly over the segments
	setups   int
	segments int
	// rec, when non-nil, makes this a traced pass: spans are recorded
	// and the metrics registry is attached to the measured fixture.
	rec *Recorder
	// corrupt is the index of an operation whose output the workload
	// damages before checking it (-1: none), so tests can show that
	// every check catches a wrong result.
	corrupt int64
	dir     string // scratch directory for state the fixture writes
}

// segmentSecs is the target length of one timed segment. Pooling many
// short segments on fresh fixtures averages out how goroutines happen
// to land on the CPUs in any one fixture, which otherwise moves a
// run's figures by up to ±10 %.
const segmentSecs = 1

func newPassCfg(seed int64, secs float64, setups int, rec *Recorder, dir string) *passCfg {
	dur := time.Duration(secs * float64(time.Second))
	return &passCfg{
		seed: seed, dur: dur, warm: 200 * time.Millisecond,
		setups: setups, segments: max(int(math.Round(secs/segmentSecs)), 1),
		rec: rec, corrupt: -1, dir: dir,
	}
}

// measured reports whether bring-up rep (counting from 0) is one of the
// measured segments rather than a set-up-only one.
func (c *passCfg) measured(rep int) bool { return rep >= c.setups }

// reps is the number of fixtures a pass brings up.
func (c *passCfg) reps() int { return c.setups + c.segments }

// watchdog bounds a simulated machine's run, turning a hang into an
// error.
func (c *passCfg) watchdog() time.Duration { return c.warm + c.dur + time.Minute }

// passResult is what one pass measured.
type passResult struct {
	setupS    []float64 // every bring-up, seconds
	lat       Hist      // timed-window operation latencies
	ops       uint64    // operations completed in the timed window
	elapsed   time.Duration
	attempted uint64    // operations run, warm-up included
	failed    uint64    // operations whose output check failed
	mallocs   uint64    // heap allocations during the timed windows
	heapMiB   []float64 // live heap at the end of each segment
	// layer holds the per-layer metrics a traced pass measured.
	layer map[string]float64
}

func (r *passResult) opsPerSec() float64 { return float64(r.ops) / r.elapsed.Seconds() }

// measure drives op closed-loop on the calling goroutine for one
// segment: a warm-up of cfg.warm, then a timed window of
// cfg.dur/cfg.segments whose per-operation latencies go into res.lat.
// Allocations are counted across the window, and the live heap is read
// after a forced GC at its end, while the fixture is still up. op runs
// operation i and reports whether its output check passed; measure
// returns how many operations it ran.
func measure(cfg *passCfg, res *passResult, op func(i uint64) bool) uint64 {
	var i uint64
	step := func() {
		res.attempted++
		if !op(i) {
			res.failed++
		}
		i++
	}
	for end := time.Now().Add(cfg.warm); time.Now().Before(end); {
		step()
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	mallocs := ms.Mallocs
	start := time.Now()
	end := start.Add(cfg.dur / time.Duration(cfg.segments))
	t := start
	for t.Before(end) {
		step()
		now := time.Now()
		res.lat.Record(now.Sub(t))
		t = now
		res.ops++
	}
	res.elapsed += t.Sub(start)
	runtime.ReadMemStats(&ms)
	res.mallocs += ms.Mallocs - mallocs
	// Let work the last operation set off in the background (a job's
	// mesh teardown) finish before weighing the heap.
	time.Sleep(20 * time.Millisecond)
	runtime.GC()
	runtime.ReadMemStats(&ms)
	res.heapMiB = append(res.heapMiB, float64(ms.HeapAlloc)/(1<<20))
	return i
}

// metricVal is one metric of the final JSON line.
type metricVal struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the final JSON line.
type report struct {
	Correct   bool                 `json:"correct"`
	Attempted uint64               `json:"attempted"`
	Failed    uint64               `json:"failed"`
	Metrics   map[string]metricVal `json:"metrics"`
}

func newReport() *report { return &report{Metrics: map[string]metricVal{}} }

func (rp *report) count(res *passResult) {
	rp.Attempted += res.attempted
	rp.Failed += res.failed
}

// add records one metric and prints its line. A value that could not be
// measured is reported as 0 and flagged, since JSON has no NaN.
func (rp *report) add(out io.Writer, wl string, d metricDef, v float64, note string) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		note = "not measured; " + note
		v = 0
	}
	rp.Metrics[d.name] = metricVal{Value: v, Unit: d.unit}
	fmt.Fprintf(out, "%-10s %-30s %16.6f %-5s %s\n", wl, d.name, v, d.unit, note)
}

// plainRun is an untraced run: every end-to-end metric of one workload.
func plainRun(w *workload, seed int64, secs float64, dir string, out io.Writer) (*report, error) {
	res, err := w.run(newPassCfg(seed, secs, setupReps, nil, dir))
	if err != nil {
		return nil, err
	}
	rp := newReport()
	rp.count(res)
	q1, q2, q3, _ := Quartiles(res.setupS)
	n := res.lat.Count()
	type line struct {
		v    float64
		note string
	}
	lines := map[string]line{
		"lat_p50_us": {res.lat.Quantile(0.5) / 1e3, fmt.Sprintf("n=%d ops", n)},
		"lat_p90_us": {res.lat.Quantile(0.9) / 1e3, fmt.Sprintf("n=%d ops, %d beyond", n, res.lat.Beyond(0.9))},
		"ops_per_s":  {res.opsPerSec(), fmt.Sprintf("%d ops in %.3fs", res.ops, res.elapsed.Seconds())},
		"heap_mib": {Median(res.heapMiB),
			fmt.Sprintf("live heap after GC, fixture up; median of %d segments", len(res.heapMiB))},
		"setup_s": {q2, fmt.Sprintf("median of %d bring-ups, quartiles %.6f..%.6f", len(res.setupS), q1, q3)},
	}
	for _, d := range endToEndDefs {
		rp.add(out, w.name, d, lines[d.name].v, lines[d.name].note)
	}
	return rp, nil
}

// tracedRun measures the workload untraced and then traced, reports
// every per-layer metric, and states the tracing overhead as the
// traced minus the untraced end-to-end figures. Per-layer metrics of
// layers this workload bypasses come from short traced passes of the
// workloads that exercise them. Spans of the workload's traced pass are
// written to spansDir.
func tracedRun(w *workload, seed int64, secs float64, dir, spansDir string, out io.Writer) (*report, error) {
	rp := newReport()
	base, err := w.run(newPassCfg(seed, 0.3*secs, 2, nil, dir))
	if err != nil {
		return nil, err
	}
	rp.count(base)
	rec := NewRecorder(w.every)
	tr, err := w.run(newPassCfg(seed, 0.4*secs, 2, rec, dir))
	if err != nil {
		return nil, err
	}
	rp.count(tr)

	layer := map[string]float64{}
	from := map[string]string{}
	for k, v := range tr.layer {
		layer[k], from[k] = v, w.name
	}
	need := map[string]bool{}
	for _, d := range perLayerDefs {
		if _, ok := layer[d.name]; !ok && d.home != "" {
			need[d.home] = true
		}
	}
	for i := range workloads {
		y := &workloads[i]
		if !need[y.name] {
			continue
		}
		yr, err := y.run(newPassCfg(seed, 0.1*secs, 2, NewRecorder(y.every), dir))
		if err != nil {
			return nil, err
		}
		rp.count(yr)
		for _, d := range perLayerDefs {
			if _, ok := layer[d.name]; !ok && d.home == y.name {
				v, ok := yr.layer[d.name]
				if !ok {
					v = math.NaN()
				}
				layer[d.name], from[d.name] = v, y.name
			}
		}
	}

	b50, t50 := base.lat.Quantile(0.5), tr.lat.Quantile(0.5)
	bops, tops := base.opsPerSec(), tr.opsPerSec()
	self := rec.Stats()[spOp].self
	layer["lat_p99_us"] = base.lat.Quantile(0.99) / 1e3
	layer["trace.overhead_p50_pct"] = (t50 - b50) / b50 * 100
	layer["trace.overhead_ops_pct"] = (bops - tops) / bops * 100
	layer["trace.op_self_us"] = Median(self) / 1e3
	kept, dropped := rec.Counts()
	notes := map[string]string{
		"lat_p99_us":             fmt.Sprintf("untraced, n=%d ops, %d beyond", base.lat.Count(), base.lat.Beyond(0.99)),
		"trace.overhead_p50_pct": fmt.Sprintf("p50 %.3fus traced vs %.3fus untraced", t50/1e3, b50/1e3),
		"trace.overhead_ops_pct": fmt.Sprintf("%.1f/s traced vs %.1f/s untraced", tops, bops),
		"trace.op_self_us":       fmt.Sprintf("median over %d sampled ops", len(self)),
	}
	for _, d := range perLayerDefs {
		note := notes[d.name]
		if f := from[d.name]; f != "" {
			note = "from " + f + " traced pass"
		}
		rp.add(out, w.name, d, layer[d.name], note)
	}
	if err := os.MkdirAll(spansDir, 0o755); err != nil {
		return nil, err
	}
	path := filepath.Join(spansDir, fmt.Sprintf("%s-seed%d.jsonl", w.name, seed))
	if err := rec.WriteSpans(path); err != nil {
		return nil, err
	}
	fmt.Fprintf(out, "spans: %d kept, %d dropped (1 op in %d sampled), written to %s\n", kept, dropped, w.every, path)
	return rp, nil
}

func main() {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	wl := flag.String("workload", "", "workload to run: "+strings.Join(names, ", ")+", or all")
	seed := flag.Int64("seed", 1, "seed the workload inputs are generated from")
	seconds := flag.Float64("seconds", 10, "length of the timed window in seconds")
	trace := flag.Int("trace", 0, "1 for a traced run reporting the per-layer metrics")
	flag.Parse()
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be positive and --trace 0 or 1")
		os.Exit(2)
	}
	var chosen []*workload
	for i := range workloads {
		if *wl == "all" || *wl == workloads[i].name {
			chosen = append(chosen, &workloads[i])
		}
	}
	if len(chosen) == 0 {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q (want %s or all)\n", *wl, strings.Join(names, ", "))
		os.Exit(2)
	}
	runtime.GOMAXPROCS(runtime.NumCPU())

	env, _ := json.Marshal(readEnv("."))
	fmt.Printf("env %s\n", env)
	fmt.Printf("run workload=%s seed=%d seconds=%g trace=%d\n", *wl, *seed, *seconds, *trace)
	scratch := filepath.Join(".bench_build", "run", strconv.Itoa(os.Getpid()))
	rp, err := runAll(chosen, *seed, *seconds, *trace == 1, scratch)
	os.RemoveAll(scratch)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	line, err := json.Marshal(rp)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("%s\n", line)
	if !rp.Correct {
		os.Exit(3)
	}
}

// runAll runs the chosen workloads; with more than one, metric names in
// the combined report are prefixed with the workload name.
func runAll(chosen []*workload, seed int64, secs float64, traced bool, scratch string) (*report, error) {
	total := newReport()
	for _, w := range chosen {
		dir := filepath.Join(scratch, w.name)
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, err
		}
		var rp *report
		var err error
		if traced {
			rp, err = tracedRun(w, seed, secs, dir, filepath.Join(".bench_build", "spans"), os.Stdout)
		} else {
			rp, err = plainRun(w, seed, secs, dir, os.Stdout)
		}
		if err != nil {
			return nil, fmt.Errorf("%s: %w", w.name, err)
		}
		total.Attempted += rp.Attempted
		total.Failed += rp.Failed
		for k, v := range rp.Metrics {
			if len(chosen) > 1 {
				k = w.name + "." + k
			}
			total.Metrics[k] = v
		}
		fmt.Printf("%-10s checks: %d operations attempted, %d failed\n", w.name, rp.Attempted, rp.Failed)
	}
	total.Correct = total.Failed == 0 && total.Attempted > 0
	return total, nil
}
