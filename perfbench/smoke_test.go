package main

import (
	"encoding/json"
	"io"
	"os"
	"testing"
	"time"
)

// smokeCfg is a short pass: two bring-ups and a quarter-second window.
func smokeCfg(t *testing.T, rec *Recorder) *passCfg {
	return &passCfg{
		seed: 11, warm: 50 * time.Millisecond, dur: 250 * time.Millisecond,
		setups: 1, segments: 1, rec: rec, corrupt: -1, dir: t.TempDir(),
	}
}

func TestWorkloadsRunClean(t *testing.T) {
	for i := range workloads {
		w := &workloads[i]
		t.Run(w.name, func(t *testing.T) {
			res, err := w.run(smokeCfg(t, nil))
			if err != nil {
				t.Fatal(err)
			}
			if res.failed != 0 || res.attempted == 0 || res.ops == 0 {
				t.Errorf("attempted %d, failed %d, timed %d: want a clean run", res.attempted, res.failed, res.ops)
			}
			if len(res.setupS) != 2 || res.lat.Count() != res.ops || len(res.heapMiB) != 1 || res.heapMiB[0] <= 0 {
				t.Errorf("setups %v, %d latencies for %d ops, heap %v MiB", res.setupS, res.lat.Count(), res.ops, res.heapMiB)
			}
		})
	}
}

// TestChecksCatchWrongResults damages one operation's output in each
// workload; its check must report exactly that operation as failed.
func TestChecksCatchWrongResults(t *testing.T) {
	for i := range workloads {
		w := &workloads[i]
		t.Run(w.name, func(t *testing.T) {
			cfg := smokeCfg(t, nil)
			cfg.corrupt = 2
			res, err := w.run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if res.failed != 1 {
				t.Errorf("failed = %d of %d with operation 2 damaged, want 1", res.failed, res.attempted)
			}
		})
	}
}

func TestTracedRunReportsEveryPerLayerMetric(t *testing.T) {
	for _, name := range []string{"stream-tcp", "jobs"} {
		var w *workload
		for i := range workloads {
			if workloads[i].name == name {
				w = &workloads[i]
			}
		}
		rp, err := tracedRun(w, 5, 1, t.TempDir(), t.TempDir(), io.Discard)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if rp.Failed != 0 || rp.Attempted == 0 {
			t.Errorf("%s: attempted %d, failed %d", name, rp.Attempted, rp.Failed)
		}
		if len(rp.Metrics) != len(perLayerDefs) {
			t.Errorf("%s: %d metrics, want the %d per-layer ones", name, len(rp.Metrics), len(perLayerDefs))
		}
		for _, d := range perLayerDefs {
			m, ok := rp.Metrics[d.name]
			if !ok || m.Unit != d.unit {
				t.Errorf("%s: metric %s = %+v, want unit %s", name, d.name, m, d.unit)
			}
		}
		for _, d := range []string{"core.send_ns", "core.pool_hit_ratio", "mnet.frames_per_msg",
			"coll.msgs_per_op_core", "service.run_ms", "service.journal_bytes_per_job"} {
			if rp.Metrics[d].Value <= 0 {
				t.Errorf("%s: %s = %v, want > 0", name, d, rp.Metrics[d].Value)
			}
		}
	}
}

// TestBenchmarkSpecMatchesCode keeps BENCHMARK.json and the metric
// tables here in step.
func TestBenchmarkSpecMatchesCode(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit, Better string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the code %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: BENCHMARK.json %q, code %q", i, w.Name, workloads[i].name)
		}
	}
	check := func(kind string, got []struct{ Name, Unit, Better string }, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json has %d metrics, the code %d", kind, len(got), len(want))
		}
		for i, d := range want {
			if g := got[i]; g.Name != d.name || g.Unit != d.unit || g.Better != d.better {
				t.Errorf("%s metric %d: BENCHMARK.json %+v, code %+v", kind, i, g, d)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEndDefs)
	check("per_layer", spec.PerLayer, perLayerDefs)
}
