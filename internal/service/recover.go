package service

// Gateway crash recovery and graceful shutdown: rebuilding state from
// the journal, the post-restart reconciliation window in which daemons
// re-register and hand running gangs back, and the drain path.

import (
	"fmt"
	"time"
)

// restore rebuilds the gateway's job table from a replayed journal.
// Runs from NewGateway before the accept/sched loops start, so it is
// effectively single-threaded — but it holds mu anyway: the invariant
// "gateway tables are touched under mu" is then machine-checkable
// instead of resting on a comment, and the watchdog closures armed
// here can fire against a consistent table even if the window is
// misconfigured short. Formerly in-flight jobs enter Recovering with a
// stand-in attempt (the real control server died with the previous
// incarnation); the recovery window decides between re-adoption and
// requeue.
func (g *Gateway) restore(st *replayed) {
	g.mu.Lock()
	defer g.mu.Unlock()
	recovering := 0
	for _, pj := range st.jobs {
		j := newJob(pj.ID, pj.Name, pj.Workload, pj.Args, pj.Gang)
		j.submitted = time.UnixMilli(pj.SubmittedMS)
		j.deadline = time.Duration(pj.DeadlineMS) * time.Millisecond
		j.maxMemMB = pj.MaxMemMB
		j.state = State(pj.State)
		j.err = pj.Err
		j.reason = pj.Reason
		j.requeues = pj.Requeues
		j.daemons = append([]string(nil), pj.Daemons...)
		j.nodeSizes = append([]int(nil), pj.Sizes...)
		j.jn = g.jn // transitions from here on are journaled again
		g.jobs[j.id] = j
		g.order = append(g.order, j.id)

		switch State(pj.State) {
		case Done, Cancelled, Failed:
			// Approximate: the journal records when, but the job table
			// only needs "finished in a previous life" to stop the
			// runtime clock.
			j.finished = time.Now()
		case Queued:
			g.queue = append(g.queue, j)
		case Requeued:
			// Crash landed between Requeued and Queued: finish the
			// requeue the previous incarnation started (including the
			// budget spend it had not journaled yet).
			g.requeueJobLocked(j, true)
		case Admitted, Running:
			if len(pj.Daemons) == 0 {
				// Placed but never journaled an assignment (impossible in
				// order — jAssign precedes Admitted — unless the tail was
				// torn exactly there). No daemon can be running it.
				j.transition(Recovering)
				g.requeueJobLocked(j, true)
				break
			}
			seq := pj.Attempt
			if seq == 0 {
				seq = pj.Requeues + 1
			}
			at := &jobAttempt{
				job: j, seq: seq, recovered: true,
				ranks:    len(pj.Daemons),
				daemons:  make([]*daemonSession, len(pj.Daemons)),
				sizes:    append([]int(nil), pj.Sizes...),
				reported: make([]bool, len(pj.Daemons)),
				adopted:  make([]bool, len(pj.Daemons)),
			}
			g.attempts[j.id] = at
			// Recovered attempts get the job watchdog too: an adopted
			// gang that wedges (or whose final report is lost) must
			// abort and requeue, not hang the job forever. Unlike a
			// live attempt, a stand-in may have no machinery to relay
			// the abort (no control server; the daemon may have retired
			// the job already), so the unaccounted ranks are synthesized
			// as lost — the same churn accounting endRecovery uses.
			at.wdog = time.AfterFunc(g.cfg.JobWatchdog, func() {
				j.setError(fmt.Sprintf("job exceeded watchdog %v after gateway recovery", g.cfg.JobWatchdog))
				g.abortAttempt(at, "watchdog expired")
				g.mu.Lock()
				var lost []int
				if g.attempts[j.id] == at {
					for r := 0; r < at.ranks; r++ {
						if !at.reported[r] {
							lost = append(lost, r)
						}
					}
				}
				g.mu.Unlock()
				for _, r := range lost {
					g.rankUpdate(updateMsg{Job: j.id, Attempt: at.seq, Rank: r, OK: false,
						Error: "watchdog expired after gateway recovery"}, true)
				}
			})
			j.transition(Recovering)
			recovering++
		}
	}
	g.recovering = true
	g.recoverTimer = time.AfterFunc(g.cfg.RecoveryWindow, g.endRecovery)
	how := "clean shutdown"
	if !st.clean {
		how = "crash"
	}
	g.cfg.Logf("recovered journal (epoch %d after %s): %d jobs, %d queued, %d awaiting re-adoption",
		g.epoch, how, len(st.jobs), len(g.queue), recovering)
}

// requeueJobLocked pushes one job through the Requeued->Queued leg outside
// the normal finalize path: restore (crash mid-requeue, or a placement
// that never reached any daemon). The requeue budget still applies.
// Caller holds mu; countBudget spends one requeue.
func (g *Gateway) requeueJobLocked(j *Job, countBudget bool) {
	j.mu.Lock()
	over := countBudget && j.requeues >= g.cfg.MaxRequeues
	j.mu.Unlock()
	if over {
		j.setError("requeue budget exhausted across gateway restarts")
		j.setReason("requeue-exhausted")
		j.transition(Failed)
		return
	}
	if j.State() != Requeued && !j.transition(Requeued) {
		return
	}
	j.resetAttempt()
	if countBudget {
		j.mu.Lock()
		j.requeues++
		j.mu.Unlock()
	}
	if j.transition(Queued) {
		g.queue = append(g.queue, j)
	}
}

// adoptResume reconciles one re-registering daemon's job state.
// Running ranks of a recovering attempt are adopted back (slots held,
// job returns to Running, tagged "recovered"); results the previous
// incarnation never saw are applied as ordinary rank updates; anything
// else running is fenced — the daemon must kill it.
func (g *Gateway) adoptResume(d *daemonSession, entries []resumeEntry) []fenceEntry {
	var kills []fenceEntry
	var finished []updateMsg
	var adopted []*Job
	g.mu.Lock()
	for _, re := range entries {
		at := g.attempts[re.Job]
		if at == nil || re.Attempt != at.seq {
			if re.Running {
				kills = append(kills, fenceEntry{Job: re.Job, Attempt: re.Attempt,
					Reason: "stale attempt (job finished, requeued, or unknown)"})
			}
			// A finished result for a gone attempt carries no information
			// the FSM can still use; drop it.
			continue
		}
		if !re.Running {
			finished = append(finished, updateMsg{
				Job: re.Job, Attempt: re.Attempt, Rank: re.Rank,
				OK: re.OK, Error: re.Error, Reason: re.Reason, SentBytes: re.SentBytes,
			})
			continue
		}
		if !at.recovered || re.Rank < 0 || re.Rank >= at.ranks ||
			at.adopted[re.Rank] || at.reported[re.Rank] {
			kills = append(kills, fenceEntry{Job: re.Job, Attempt: re.Attempt,
				Reason: "rank not adoptable (already accounted)"})
			continue
		}
		at.adopted[re.Rank] = true
		at.daemons[re.Rank] = d
		d.busy += at.sizes[re.Rank]
		adopted = append(adopted, at.job)
	}
	g.mu.Unlock()
	for _, j := range adopted {
		j.setReason("recovered")
		if j.transition(Running) {
			g.cfg.Logf("re-adopted %s from daemon %s", j.id, d.name)
		}
	}
	for _, u := range finished {
		if u.Reason != "" {
			if j, err := g.lookupJob(u.Job); err == nil {
				j.setReason(u.Reason)
			}
		}
		g.rankUpdate(u, false)
	}
	return kills
}

// endRecovery closes the reconciliation window: ranks of recovered
// attempts that no daemon resumed are accounted as lost (requeueing
// their gangs through the ordinary churn path), partially-adopted
// gangs have their survivors aborted first so nothing double-runs, and
// the capacity checks suspended during the window come back.
func (g *Gateway) endRecovery() {
	type lostRank struct {
		job  string
		seq  int
		rank int
	}
	g.mu.Lock()
	if g.closed || !g.recovering {
		g.mu.Unlock()
		return
	}
	g.recovering = false
	var lost []lostRank
	var partial []*jobAttempt
	for _, at := range g.attempts {
		if !at.recovered {
			continue
		}
		missing := false
		for r := 0; r < at.ranks; r++ {
			if !at.adopted[r] && !at.reported[r] {
				lost = append(lost, lostRank{at.job.id, at.seq, r})
				missing = true
			}
		}
		if missing {
			partial = append(partial, at)
		}
	}
	// With real capacity known again, fail queued jobs the cluster can
	// never place (the same sweep daemon loss runs).
	cp := g.capacityLocked()
	var doomed []*Job
	remaining := g.queue[:0]
	for _, j := range g.queue {
		if j.gang > cp {
			doomed = append(doomed, j)
		} else {
			remaining = append(remaining, j)
		}
	}
	g.queue = remaining
	g.mu.Unlock()

	for _, j := range doomed {
		j.setError(fmt.Sprintf("gang of %d exceeds the recovered cluster's capacity of %d PEs", j.gang, cp))
		j.transition(Failed)
	}
	if len(lost) > 0 {
		g.cfg.Logf("recovery window closed: %d ranks never re-registered; requeueing their gangs", len(lost))
	}
	// Abort the adopted survivors of incomplete gangs before accounting
	// the missing ranks: a half-gang left running while its job requeues
	// would double-run the workload.
	for _, at := range partial {
		g.abortAttempt(at, "gang incomplete after gateway recovery")
	}
	for _, lr := range lost {
		g.rankUpdate(updateMsg{Job: lr.job, Attempt: lr.seq, Rank: lr.rank, OK: false,
			Error: "daemon did not re-register within the recovery window"}, true)
	}
	g.kick()
}

// Drain is the graceful shutdown: stop admitting, let running gangs
// finish (bounded by DrainTimeout), journal a clean-shutdown record,
// and close without cancelling what remains — queued and unfinished
// jobs stay in the journal for the next incarnation to pick up.
// Without a state dir there is nothing to hand over, so Drain falls
// back to Close's cancel-everything semantics after the wait.
func (g *Gateway) Drain() error {
	g.mu.Lock()
	if g.closed {
		g.mu.Unlock()
		return nil
	}
	already := g.draining
	g.draining = true
	running := len(g.attempts)
	g.mu.Unlock()
	if !already {
		g.cfg.Logf("draining: admissions stopped; waiting up to %v for %d running gangs",
			g.cfg.DrainTimeout, running)
	}
	deadline := time.Now().Add(g.cfg.DrainTimeout)
	for {
		g.mu.Lock()
		n := len(g.attempts)
		closed := g.closed
		g.mu.Unlock()
		if n == 0 || closed || time.Now().After(deadline) {
			break
		}
		time.Sleep(20 * time.Millisecond)
	}
	if g.jn == nil {
		return g.Close()
	}
	g.jn.shutdown()

	g.mu.Lock()
	if g.closed {
		g.mu.Unlock()
		return nil
	}
	g.closed = true
	ds := make([]*daemonSession, 0, len(g.daemons))
	for _, d := range g.daemons {
		ds = append(ds, d)
	}
	atts := make([]*jobAttempt, 0, len(g.attempts))
	for _, at := range g.attempts {
		atts = append(atts, at)
	}
	idle := g.idleClientsLocked()
	g.mu.Unlock()
	for _, conn := range idle {
		conn.Close()
	}
	// Unfinished attempts lose their control servers but not their
	// journal state: the daemons keep running them (tolerated control
	// loss) and the next incarnation re-adopts or requeues.
	for _, at := range atts {
		if at.wdog != nil {
			at.wdog.Stop()
		}
		if at.cs != nil {
			at.cs.Shutdown()
		}
		if at.ls != nil {
			at.ls.Close()
		}
	}
	for _, d := range ds {
		d.conn.Close()
	}
	close(g.done)
	err := g.ls.Close()
	g.kick()
	g.wg.Wait()
	if g.recoverTimer != nil {
		g.recoverTimer.Stop()
	}
	g.jn.close()
	return err
}

// snapshotJobs captures every job's persistable state for compaction.
func (g *Gateway) snapshotJobs() (int64, []persistedJob) {
	g.mu.Lock()
	ids := append([]string(nil), g.order...)
	jobs := make([]*Job, 0, len(ids))
	seqs := make([]int, 0, len(ids))
	for _, id := range ids {
		j := g.jobs[id]
		jobs = append(jobs, j)
		seq := 0
		if at := g.attempts[id]; at != nil {
			seq = at.seq
		}
		seqs = append(seqs, seq)
	}
	g.mu.Unlock()
	out := make([]persistedJob, 0, len(jobs))
	for i, j := range jobs {
		j.mu.Lock()
		out = append(out, persistedJob{
			ID: j.id, Name: j.name, Workload: j.workload, Args: j.args, Gang: j.gang,
			DeadlineMS: int64(j.deadline / time.Millisecond), MaxMemMB: j.maxMemMB,
			State: string(j.state), Err: j.err, Reason: j.reason,
			Requeues: j.requeues, Attempt: seqs[i],
			Daemons: append([]string(nil), j.daemons...),
			Sizes:   append([]int(nil), j.nodeSizes...),
			SubmittedMS: j.submitted.UnixMilli(),
		})
		j.mu.Unlock()
	}
	return g.epoch, out
}
