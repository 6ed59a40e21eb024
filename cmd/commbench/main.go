// Command commbench measures the communication fast path and writes
// BENCH_comm.json: small-message fan-in throughput and ping-pong
// latency with coalescing off and on (virtual time, deterministic),
// plus wall-clock steady-state allocation counts for the pooled send
// path.
//
// With -transport tcp it instead measures the machine layer itself in
// wall-clock time — the same ping-pong and fan-in programs on the
// in-process simulated substrate and on the real TCP network substrate
// — and writes BENCH_net.json quantifying the wire's overhead. The
// network machine always coalesces, so tcp reports one fan-in figure;
// the sim fan-in with coalescing off and on is the ablation. Run
// directly it launches itself as a converserun job; under converserun
// it joins the job it finds.
//
// With -transport tcp -faults it measures the reliability sub-layer:
// -faults takes a fault plan (internal/faultnet grammar) applied under
// the retry policy, or the word "sweep" to run the fan-in at a range of
// frame-drop rates (0, 0.1%, 1%, 5%) and write BENCH_faults.json — the
// throughput-vs-loss curve of the ack/retransmit machinery.
//
// With -collectives it measures the two-level topology-aware broadcast
// tree against the flat per-peer send loop it replaced, on the modeled
// simulated substrate (virtual time, deterministic), across machine
// sizes and node shapes (1, 4 and 8 PEs per node), and writes
// BENCH_collectives.json — the flat-vs-tree table EXPERIMENTS.md
// quotes.
//
// With -jobs it measures the elastic service (conversed): sustained
// jobs/sec and p50/p99 completion latency of a warm three-daemon
// cluster against a baseline that cold-starts a cluster around every
// job, and writes BENCH_jobs.json.
//
// With -scale it runs the 8→256-PE ladder on the simulated substrate
// and writes BENCH_scale.json: ping-pong latency and fan-in throughput
// per processor count, plus the scheduler-loop CPU share and live heap
// from pprof captures pulled through a ccs monitor socket (-pes is
// ignored; the ladder is fixed).
//
// Usage:
//
//	commbench [-o BENCH_comm.json] [-pes 8] [-msgs 400] [-size 64] [-smoke]
//	commbench -transport tcp [-o BENCH_net.json] [-pes 4] [-msgs 400] [-size 64] [-smoke]
//	commbench -transport tcp -faults sweep [-o BENCH_faults.json] [-smoke]
//	commbench -collectives [-o BENCH_collectives.json] [-size 64] [-smoke]
//	commbench -scale [-o BENCH_scale.json] [-msgs 200] [-size 64] [-smoke]
//	commbench -jobs [-o BENCH_jobs.json] [-smoke]
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"sync/atomic"
	"time"

	converse "converse"
	"converse/bench"
	"converse/mnet"
	"converse/netmodel"
)

type fanInResult struct {
	Machine        string  `json:"machine"`
	OffUs          float64 `json:"off_us"`
	OnUs           float64 `json:"on_us"`
	Speedup        float64 `json:"speedup"`
	OffMsgsPerMs   float64 `json:"off_msgs_per_ms"`
	OnMsgsPerMs    float64 `json:"on_msgs_per_ms"`
	MeetsTwoXFloor bool    `json:"meets_2x_floor"`
}

type pingPongResult struct {
	Machine     string  `json:"machine"`
	DirectUs    float64 `json:"direct_us"`
	CoalescedUs float64 `json:"coalesced_us"`
}

type steadyStateResult struct {
	Coalesced   bool    `json:"coalesced"`
	AllocsPerOp float64 `json:"allocs_per_op"`
	NsPerOp     float64 `json:"ns_per_op"`
}

type report struct {
	PEs         int                 `json:"pes"`
	MsgsPerPE   int                 `json:"msgs_per_pe"`
	MsgSize     int                 `json:"msg_size"`
	Rounds      int                 `json:"pingpong_rounds"`
	FanIn       []fanInResult       `json:"fan_in"`
	PingPong    []pingPongResult    `json:"ping_pong"`
	SteadyState []steadyStateResult `json:"steady_state"`
}

func main() {
	out := flag.String("o", "", "output file (- for stdout; default BENCH_comm.json or BENCH_net.json)")
	transport := flag.String("transport", "sim", "machine layer to measure: sim (virtual-time fast path) or tcp (wall-clock sim-vs-tcp)")
	pes := flag.Int("pes", 8, "processors in the fan-in pattern (>= 2: one receiver plus at least one sender)")
	msgs := flag.Int("msgs", 400, "messages per sending PE")
	size := flag.Int("size", 64, "message size in bytes")
	rounds := flag.Int("rounds", 200, "ping-pong rounds")
	smoke := flag.Bool("smoke", false, "small, fast run for CI (skips wall-clock allocs)")
	faults := flag.String("faults", "", `with -transport tcp: a fault plan run under the retry policy, or "sweep" for the drop-rate sweep (BENCH_faults.json)`)
	scale := flag.Bool("scale", false, "run the 8..256-PE scale ladder on the sim substrate (BENCH_scale.json)")
	collectives := flag.Bool("collectives", false, "run the flat-vs-tree broadcast sweep on the sim substrate (BENCH_collectives.json)")
	jobs := flag.Bool("jobs", false, "measure the elastic service's job throughput vs per-job cold launches (BENCH_jobs.json)")
	flag.Parse()

	if *pes < 2 {
		log.Fatalf("commbench: -pes %d: the fan-in pattern needs at least 2 processors (one receiver, one sender)", *pes)
	}
	if *smoke {
		*msgs, *rounds = 50, 20
	}
	if *jobs {
		if *out == "" {
			*out = "BENCH_jobs.json"
		}
		jobsMain(*out, *smoke)
		return
	}
	if *collectives {
		if *out == "" {
			*out = "BENCH_collectives.json"
		}
		collectivesMain(*out, *size, *smoke)
		return
	}
	if *scale {
		if *out == "" {
			*out = "BENCH_scale.json"
		}
		scaleMain(*out, *msgs, *size, *rounds, *smoke)
		return
	}

	switch *transport {
	case "tcp":
		if *faults == "sweep" {
			if *out == "" {
				*out = "BENCH_faults.json"
			}
			faultMain(*out, *pes, *msgs, *size)
			return
		}
		if *out == "" {
			*out = "BENCH_net.json"
		}
		netMain(*out, *pes, *msgs, *size, *rounds, *faults)
		return
	case "sim":
		if *faults != "" {
			log.Fatalf("commbench: -faults needs -transport tcp (the sim substrate has no reliability layer to measure)")
		}
	default:
		log.Fatalf("commbench: unknown -transport %q (want sim or tcp)", *transport)
	}
	if *out == "" {
		*out = "BENCH_comm.json"
	}

	off := converse.CoalesceConfig{}
	on := converse.CoalesceConfig{Enabled: true}

	r := report{PEs: *pes, MsgsPerPE: *msgs, MsgSize: *size, Rounds: *rounds}
	for _, m := range netmodel.All() {
		fOff := bench.FanIn(m, *pes, *msgs, *size, off)
		fOn := bench.FanIn(m, *pes, *msgs, *size, on)
		r.FanIn = append(r.FanIn, fanInResult{
			Machine:        m.Name,
			OffUs:          fOff,
			OnUs:           fOn,
			Speedup:        fOff / fOn,
			OffMsgsPerMs:   bench.FanInThroughput(fOff, *pes, *msgs),
			OnMsgsPerMs:    bench.FanInThroughput(fOn, *pes, *msgs),
			MeetsTwoXFloor: fOff/fOn >= 2,
		})
		r.PingPong = append(r.PingPong, pingPongResult{
			Machine:     m.Name,
			DirectUs:    bench.Converse(m, *size, *rounds),
			CoalescedUs: bench.ConverseWith(m, *size, *rounds, on),
		})
	}

	if !*smoke {
		for _, co := range []converse.CoalesceConfig{off, on} {
			allocs, ns := bench.SteadyStateAllocs(co)
			r.SteadyState = append(r.SteadyState, steadyStateResult{
				Coalesced: co.Enabled, AllocsPerOp: allocs, NsPerOp: ns,
			})
		}
	}

	writeJSON(*out, &r)
	for _, f := range r.FanIn {
		fmt.Printf("%-22s fan-in %dx%dx%dB  off=%8.0fus  on=%8.0fus  speedup=%.2fx\n",
			f.Machine, *pes, *msgs, *size, f.OffUs, f.OnUs, f.Speedup)
	}
	for _, s := range r.SteadyState {
		fmt.Printf("steady-state coalesced=%-5v  %.2f allocs/op  %.0f ns/op\n",
			s.Coalesced, s.AllocsPerOp, s.NsPerOp)
	}
}

// writeJSON marshals v to out ("-" for stdout).
func writeJSON(out string, v any) {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		log.Fatal(err)
	}
	data = append(data, '\n')
	if out == "-" {
		os.Stdout.Write(data)
		return
	}
	if err := os.WriteFile(out, data, 0o644); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("wrote %s\n", out)
}

// --- -transport tcp: wall-clock sim-vs-tcp machine-layer overhead ---

type netPoint struct {
	Transport string  `json:"transport"`
	Coalesced bool    `json:"coalesced"`
	OneWayUs  float64 `json:"one_way_us,omitempty"`
	ElapsedUs float64 `json:"elapsed_us,omitempty"`
	MsgsPerMs float64 `json:"msgs_per_ms,omitempty"`
}

type netReport struct {
	NP        int        `json:"np"`
	PEs       int        `json:"pes"`
	MsgsPerPE int        `json:"msgs_per_pe"`
	MsgSize   int        `json:"msg_size"`
	Rounds    int        `json:"pingpong_rounds"`
	PingPong  []netPoint `json:"ping_pong"`
	FanIn     []netPoint `json:"fan_in"`
	// PingPongTCPOverhead is the tcp/sim ratio of one-way wall-clock
	// times: what crossing a real socket costs relative to an
	// in-process channel on the identical program.
	PingPongTCPOverhead float64 `json:"pingpong_tcp_overhead"`
}

// netMain measures the same ping-pong and fan-in programs on the
// simulated and TCP substrates in wall-clock time. Outside a
// converserun job it launches itself as one; inside, every rank runs
// the TCP measurements (each machine is one rendezvous round, so the
// creation order below must be identical on all ranks) and rank 0
// additionally runs the in-process sim baselines and writes the report.
func netMain(out string, pes, msgs, size, rounds int, faults string) {
	if pes < 2 {
		log.Fatalf("commbench: -transport tcp needs -pes >= 2, have %d", pes)
	}
	if !mnet.InJob() {
		exe, err := os.Executable()
		if err != nil {
			log.Fatal(err)
		}
		start := time.Now()
		if err := mnet.Launch(mnet.LaunchConfig{
			NP: pes, Prog: exe, Args: os.Args[1:], Timeout: 10 * time.Minute,
		}); err != nil {
			log.Fatalf("commbench: tcp job failed after %v: %v", time.Since(start).Round(time.Millisecond), err)
		}
		return
	}

	const wdog = 2 * time.Minute
	off := converse.CoalesceConfig{}
	on := converse.CoalesceConfig{Enabled: true}
	r := netReport{NP: pes, PEs: pes, MsgsPerPE: msgs, MsgSize: size, Rounds: rounds}
	rank0 := mnet.Rank() == 0

	var simPP float64
	if rank0 {
		// In-process baselines: same code, sim substrate, same wall clock.
		simCfg := converse.Config{Transport: converse.TransportSim, Watchdog: wdog}
		var err error
		simCfg.PEs = 2
		simPP, err = bench.NetPingPong(simCfg, size, rounds)
		if err != nil {
			log.Fatalf("commbench: sim ping-pong: %v", err)
		}
		r.PingPong = append(r.PingPong, netPoint{Transport: "sim", OneWayUs: simPP})
		simCfg.PEs = pes
		for _, co := range []converse.CoalesceConfig{off, on} {
			simCfg.Coalesce = co
			el, tput, err := bench.NetFanIn(simCfg, msgs, size)
			if err != nil {
				log.Fatalf("commbench: sim fan-in: %v", err)
			}
			r.FanIn = append(r.FanIn, netPoint{Transport: "sim", Coalesced: co.Enabled, ElapsedUs: el, MsgsPerMs: tput})
		}
	}

	tcpCfg := converse.Config{Transport: converse.TransportTCP, Watchdog: wdog}
	if faults != "" {
		// A fault plan only makes sense with the reliability layer on:
		// under fail-fast the first injected drop would kill the job.
		tcpCfg.FailurePolicy = converse.FailRetry
		tcpCfg.Faults = faults
	}
	tcpCfg.PEs = 2
	tcpPP, err := bench.NetPingPong(tcpCfg, size, rounds)
	if err != nil {
		log.Fatalf("commbench: tcp ping-pong: %v", err)
	}
	// The network machine always coalesces, so tcp has one fan-in
	// arm; the sim off/on pair above is the ablation.
	tcpCfg.PEs = pes
	tcpEl, tcpTput, err := bench.NetFanIn(tcpCfg, msgs, size)
	if err != nil {
		log.Fatalf("commbench: tcp fan-in: %v", err)
	}
	if !rank0 {
		return
	}

	r.PingPong = append(r.PingPong, netPoint{Transport: "tcp", Coalesced: true, OneWayUs: tcpPP})
	r.FanIn = append(r.FanIn, netPoint{Transport: "tcp", Coalesced: true, ElapsedUs: tcpEl, MsgsPerMs: tcpTput})
	if simPP > 0 {
		r.PingPongTCPOverhead = tcpPP / simPP
	}
	writeJSON(out, &r)
	for _, p := range r.PingPong {
		fmt.Printf("%-4s ping-pong %dB        one-way %8.2f us\n", p.Transport, size, p.OneWayUs)
	}
	for _, p := range r.FanIn {
		fmt.Printf("%-4s fan-in %dx%dx%dB coalesced=%-5v  %8.0f us  %8.1f msgs/ms\n",
			p.Transport, pes, msgs, size, p.Coalesced, p.ElapsedUs, p.MsgsPerMs)
	}
	fmt.Printf("tcp/sim ping-pong overhead: %.1fx\n", r.PingPongTCPOverhead)
}

// --- -faults sweep: throughput vs injected frame loss ---

type faultPoint struct {
	DropRate  float64 `json:"drop_rate"`
	Plan      string  `json:"plan"`
	ElapsedUs float64 `json:"elapsed_us"`
	MsgsPerMs float64 `json:"msgs_per_ms"`
	// SlowdownX is this point's elapsed time over the clean (0% drop)
	// run's: what the retransmit machinery costs at this loss rate.
	SlowdownX float64 `json:"slowdown_vs_clean"`
}

type faultReport struct {
	NP        int          `json:"np"`
	PEs       int          `json:"pes"`
	MsgsPerPE int          `json:"msgs_per_pe"`
	MsgSize   int          `json:"msg_size"`
	Policy    string       `json:"policy"`
	Points    []faultPoint `json:"points"`
}

// faultDropRates is the sweep: clean baseline, then loss rates spanning
// "background noise" to "badly degraded network".
var faultDropRates = []float64{0, 0.001, 0.01, 0.05}

// faultMain runs the fan-in at each drop rate under the retry policy.
// Every rank runs every point (one rendezvous round per machine, same
// order everywhere); rank 0 writes the report.
func faultMain(out string, pes, msgs, size int) {
	if pes < 2 {
		log.Fatalf("commbench: -faults sweep needs -pes >= 2, have %d", pes)
	}
	if !mnet.InJob() {
		exe, err := os.Executable()
		if err != nil {
			log.Fatal(err)
		}
		start := time.Now()
		if err := mnet.Launch(mnet.LaunchConfig{
			NP: pes, Prog: exe, Args: os.Args[1:], Timeout: 10 * time.Minute,
			FailurePolicy: mnet.FailRetry,
			// A tight heartbeat keeps the retransmit timeout (hb/2) small,
			// so the sweep measures steady-loss throughput rather than
			// tail-drop RTO stalls of the 1s default.
			Heartbeat: 50 * time.Millisecond,
		}); err != nil {
			log.Fatalf("commbench: fault sweep job failed after %v: %v", time.Since(start).Round(time.Millisecond), err)
		}
		return
	}

	const wdog = 2 * time.Minute
	r := faultReport{NP: pes, PEs: pes, MsgsPerPE: msgs, MsgSize: size, Policy: "retry"}
	var clean float64
	for _, rate := range faultDropRates {
		plan := ""
		if rate > 0 {
			plan = fmt.Sprintf("seed=7,drop=%g", rate)
		}
		cfg := converse.Config{
			Transport:     converse.TransportTCP,
			Watchdog:      wdog,
			PEs:           pes,
			FailurePolicy: converse.FailRetry,
			Faults:        plan,
		}
		el, tput, err := bench.NetFanIn(cfg, msgs, size)
		if err != nil {
			log.Fatalf("commbench: fan-in at drop=%g: %v", rate, err)
		}
		if rate == 0 {
			clean = el
		}
		slow := 0.0
		if clean > 0 {
			slow = el / clean
		}
		r.Points = append(r.Points, faultPoint{
			DropRate: rate, Plan: plan, ElapsedUs: el, MsgsPerMs: tput, SlowdownX: slow,
		})
	}
	if mnet.Rank() != 0 {
		return
	}
	writeJSON(out, &r)
	for _, p := range r.Points {
		fmt.Printf("drop=%-6g fan-in %dx%dx%dB  %10.0f us  %8.1f msgs/ms  %5.2fx vs clean\n",
			p.DropRate, pes, msgs, size, p.ElapsedUs, p.MsgsPerMs, p.SlowdownX)
	}
}

// --- -scale: the 8..256-PE ladder (BENCH_scale.json) ---

type scaleReport struct {
	MsgsPerPE      int                `json:"msgs_per_pe"`
	MsgSize        int                `json:"msg_size"`
	Rounds         int                `json:"pingpong_rounds"`
	ProfileSeconds float64            `json:"profile_seconds"`
	Points         []bench.ScalePoint `json:"points"`
}

// scaleMain runs the ladder on the in-process simulated substrate; CPU
// and heap captures per point go through a live ccs monitor socket.
func scaleMain(out string, msgs, size, rounds int, smoke bool) {
	opt := bench.ScaleOptions{
		Msgs: msgs, Size: size, Rounds: rounds,
		ProfileSeconds: 1.3,
		Log:            os.Stdout,
	}
	ladder := bench.ScalePEs
	if smoke {
		// CI variant: two small points, sub-second captures.
		ladder = []int{4, 8}
		opt.ProfileSeconds = 0.3
	}
	points, err := bench.ScaleSweep(ladder, opt)
	if err != nil {
		log.Fatalf("commbench: %v", err)
	}
	writeJSON(out, &scaleReport{
		MsgsPerPE: opt.Msgs, MsgSize: opt.Size, Rounds: opt.Rounds,
		ProfileSeconds: opt.ProfileSeconds, Points: points,
	})
}

// --- -collectives: flat loop vs two-level tree (BENCH_collectives.json) ---

type collectivePoint struct {
	PEs   int `json:"pes"`
	PPN   int `json:"ppn"`
	Nodes int `json:"nodes"`
	// FlatUs is the completion time (last PE's arrival, virtual us) of
	// the pre-tree broadcast: one serial send per destination, all
	// charged to the root. TreeUs is the same broadcast through the
	// two-level spanning tree (binomial across nodes, flat fan-out
	// within each node).
	FlatUs  float64 `json:"flat_us"`
	TreeUs  float64 `json:"tree_us"`
	Speedup float64 `json:"speedup"`
}

type collectiveReport struct {
	Machine string            `json:"machine"`
	MsgSize int               `json:"msg_size"`
	Points  []collectivePoint `json:"points"`
}

// collectiveLadder and collectiveShapes span the sweep: machine sizes
// against PEs-per-node groupings (1 = the classic flat machine, 4 and 8
// = SMP-style nodes where intra-node hops are pointer handoffs).
var (
	collectiveLadder = []int{8, 16, 32, 64, 128}
	collectiveShapes = []int{1, 4, 8}
)

// broadcastCompletion measures one broadcast from PE 0 on a modeled
// sim machine of pes processors grouped ppn to a node, and returns the
// virtual time at which the last PE received its copy. Virtual time
// makes the number deterministic: reruns produce the identical table.
func broadcastCompletion(m *netmodel.Model, pes, ppn, size int, tree bool) float64 {
	cfg := converse.Config{PEs: pes, Model: m, Watchdog: 2 * time.Minute}
	if ppn > 1 {
		sizes := make([]int, pes/ppn)
		for i := range sizes {
			sizes[i] = ppn
		}
		cfg.NodeSizes = sizes
	}
	cm := converse.NewMachine(cfg)
	var last atomic.Int64 // max arrival time, fixed-point ns
	h := cm.RegisterHandler(func(p *converse.Proc, msg []byte) {
		now := int64(p.TimerUs() * 1000)
		for {
			old := last.Load()
			if now <= old || last.CompareAndSwap(old, now) {
				break
			}
		}
		p.ExitScheduler()
	})
	err := cm.Run(func(p *converse.Proc) {
		if p.MyPe() == 0 {
			msg := converse.MakeMsg(h, make([]byte, size))
			if tree {
				p.Broadcast(msg, converse.ExcludeSelf)
				p.Scheduler(pes) // serve relay traffic; returns at idle
			} else {
				for q := 1; q < pes; q++ {
					p.SyncSend(q, msg)
				}
			}
			return
		}
		p.Scheduler(-1)
	})
	if err != nil {
		log.Fatalf("commbench: broadcast pes=%d ppn=%d tree=%v: %v", pes, ppn, tree, err)
	}
	return float64(last.Load()) / 1000
}

// collectivesMain sweeps the flat-vs-tree broadcast over the ladder and
// node shapes on the sim substrate.
func collectivesMain(out string, size int, smoke bool) {
	ladder := collectiveLadder
	if smoke {
		ladder = []int{8, 16}
	}
	model := netmodel.T3D()
	r := collectiveReport{Machine: model.Name, MsgSize: size}
	for _, ppn := range collectiveShapes {
		for _, pes := range ladder {
			if pes%ppn != 0 {
				continue
			}
			flat := broadcastCompletion(model, pes, ppn, size, false)
			tree := broadcastCompletion(model, pes, ppn, size, true)
			r.Points = append(r.Points, collectivePoint{
				PEs: pes, PPN: ppn, Nodes: pes / ppn,
				FlatUs: flat, TreeUs: tree, Speedup: flat / tree,
			})
		}
	}
	writeJSON(out, &r)
	for _, p := range r.Points {
		fmt.Printf("bcast %3d PEs x %d/node (%2d nodes)  flat=%8.1fus  tree=%8.1fus  speedup=%.2fx\n",
			p.PEs, p.PPN, p.Nodes, p.FlatUs, p.TreeUs, p.Speedup)
	}
}
