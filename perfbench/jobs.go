package main

// jobs: a warm in-process cluster service — a gateway journaling to a
// state directory and two 1-slot daemons. One operation is one gang-2
// pingpong job, so every job spans both daemons and brings up its own
// TCP mesh: submit it, follow its log stream until it is terminal, then
// read its final status. Every job must end done on both daemons.

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"time"

	"converse/internal/service"
)

const (
	jobsToken = "perfbench-jobs"
	jobIters  = 20 // pingpong round trips per job
)

// jobsFixture is one running service.
type jobsFixture struct {
	g   *service.Gateway
	ds  []*service.Daemon
	dir string
}

// startJobs brings up a gateway journaling into dir and two 1-slot
// daemons, returning once both are registered.
func startJobs(dir string, lane *Lane) (*jobsFixture, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	g, err := service.NewGateway(service.GatewayConfig{
		Addr: "127.0.0.1:0", Token: jobsToken, StateDir: dir,
		Logf: func(string, ...any) {},
	})
	if err != nil {
		return nil, err
	}
	f := &jobsFixture{g: g, dir: dir}
	for i := 0; i < 2; i++ {
		t := time.Now()
		d, err := service.StartDaemon(service.DaemonConfig{
			Gateway: g.Addr(), Token: jobsToken, Name: fmt.Sprintf("d%d", i), Slots: 1,
		})
		lane.Add(spDaemonStart, t, time.Now())
		if err != nil {
			f.close()
			return nil, err
		}
		f.ds = append(f.ds, d)
	}
	return f, nil
}

func (f *jobsFixture) close() {
	for _, d := range f.ds {
		d.Stop()
	}
	f.g.Close()
	os.RemoveAll(f.dir)
}

func runJobs(cfg *passCfg) (*passResult, error) {
	res := &passResult{}
	setupLane := cfg.rec.Lane(4 * cfg.reps())
	// The seed picks the job names and the pingpong payload size; the
	// work per job does not depend on either.
	rng := rand.New(rand.NewSource(cfg.seed))
	prefix := fmt.Sprintf("pb%08x", rng.Uint32())
	args := map[string]int{"iters": jobIters, "bytes": 64 + rng.Intn(64)}
	lane := cfg.rec.Lane(laneRoom)
	var queueMS, runMS, notifyMS, journalB []float64
	for rep := 0; rep < cfg.reps(); rep++ {
		t0 := time.Now()
		f, err := startJobs(filepath.Join(cfg.dir, fmt.Sprintf("jobs-%d", rep)), setupLane)
		if err != nil {
			return nil, fmt.Errorf("bringing up the service: %w", err)
		}
		res.setupS = append(res.setupS, time.Since(t0).Seconds())
		if cfg.measured(rep) {
			c := &service.Client{Addr: f.g.Addr(), Token: jobsToken}
			traced := cfg.rec != nil
			journal := filepath.Join(f.dir, "journal")
			measure(cfg, res, func(i uint64) bool {
				lane.Op()
				var size0 int64
				if traced {
					size0 = fileSize(journal)
				}
				op := lane.Begin(spOp, -1)
				s := lane.Begin(spSubmit, op)
				start := time.Now()
				id, err := c.Submit(fmt.Sprintf("%s-%d-%d", prefix, rep, i), "pingpong", args, 2)
				lane.End(s)
				if err != nil {
					lane.End(op)
					return false
				}
				s = lane.Begin(spLogs, op)
				state, _, err := c.Logs(id, true, nil)
				ended := time.Now()
				lane.End(s)
				s = lane.Begin(spStatus, op)
				info, serr := c.Status(id)
				lane.End(s)
				lane.End(op)
				if int64(i) == cfg.corrupt {
					state = "failed"
				}
				ok := err == nil && serr == nil && state == "done" && info.State == "done" &&
					info.Gang == 2 && len(info.Daemons) == 2
				if traced && ok {
					queueMS = append(queueMS, info.QueueWaitMS)
					runMS = append(runMS, info.RuntimeMS)
					// Client-observed end minus (submit + queue wait + run).
					notifyMS = append(notifyMS, float64(ended.Sub(start))/1e6-info.QueueWaitMS-info.RuntimeMS)
					// A compaction shrinks the journal; skip the job it lands on.
					if d := fileSize(journal) - size0; d > 0 {
						journalB = append(journalB, float64(d))
					}
				}
				return ok
			})
		}
		f.close()
	}
	if cfg.rec != nil {
		st := cfg.rec.Stats()
		res.layer = map[string]float64{
			"proc.allocs_per_op":            float64(res.mallocs) / float64(res.ops),
			"service.submit_us":             st.median(spSubmit) / 1e3,
			"service.status_us":             st.median(spStatus) / 1e3,
			"service.queue_wait_ms":         Median(queueMS),
			"service.run_ms":                Median(runMS),
			"service.notify_ms":             Median(notifyMS),
			"service.daemon_register_ms":    st.median(spDaemonStart) / 1e6,
			"service.journal_bytes_per_job": Median(journalB),
		}
	}
	return res, nil
}

func fileSize(path string) int64 {
	fi, err := os.Stat(path)
	if err != nil {
		return 0
	}
	return fi.Size()
}
