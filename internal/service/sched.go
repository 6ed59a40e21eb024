package service

// The gang scheduler and the daemon side of the gateway: placement of
// queued jobs onto live daemons, per-job control servers, rank
// completion accounting, and the churn path — daemon loss drains the
// victim's gangs back into the queue instead of failing them.

import (
	"fmt"
	"net"
	"sort"
	"time"

	"converse/internal/mnet"
	"converse/internal/wire"
)

// schedLoop is the single placement goroutine: every doorbell ring it
// scans the queue in order and launches every job that fits the free
// slots (in-order backfill — a small job may overtake a large one that
// is waiting for capacity, which favors throughput; the large job is
// still first in line for freed slots).
func (g *Gateway) schedLoop() {
	for range g.schedCh {
		g.mu.Lock()
		if g.closed {
			g.mu.Unlock()
			return
		}
		var launches []*jobAttempt
		if !g.draining {
			remaining := g.queue[:0]
			for _, j := range g.queue {
				if j.State() != Queued {
					continue // cancelled while queued
				}
				at := g.placeLocked(j)
				if at == nil {
					if j.State() == Queued { // else failed to place
						remaining = append(remaining, j)
					}
					continue
				}
				launches = append(launches, at)
			}
			g.queue = remaining
		}
		g.mu.Unlock()
		for _, at := range launches {
			g.launch(at)
		}
		// Compaction rides the scheduler loop — never the append path,
		// whose callers hold job locks the state snapshot needs.
		if g.jn.needsCompact() {
			epoch, jobs := g.snapshotJobs()
			g.jn.compact(epoch, jobs)
		}
	}
}

// placeLocked tries to carve a gang's PEs out of the live daemons' free
// slots, preferring the emptiest daemons (spreads load, keeps node
// counts small). On success the slots are held and the attempt is
// registered, complete: its control listener, control server and
// watchdog exist before anything else can reach it through g.attempts,
// and never change afterwards. A job whose control port cannot be bound
// fails here. Caller holds mu.
func (g *Gateway) placeLocked(j *Job) *jobAttempt {
	type cand struct {
		d    *daemonSession
		free int
	}
	var cands []cand
	for _, d := range g.daemons {
		if d.live && !d.draining && d.slots > d.busy {
			cands = append(cands, cand{d, d.slots - d.busy})
		}
	}
	sort.Slice(cands, func(a, b int) bool {
		if cands[a].free != cands[b].free {
			return cands[a].free > cands[b].free
		}
		return cands[a].d.name < cands[b].d.name
	})
	need := j.gang
	var picked []*daemonSession
	var sizes []int
	for _, c := range cands {
		if need == 0 {
			break
		}
		take := c.free
		if take > need {
			take = need
		}
		picked = append(picked, c.d)
		sizes = append(sizes, take)
		need -= take
	}
	if need > 0 {
		return nil // not enough free slots right now
	}
	bind := "127.0.0.1:0"
	if g.cfg.Advertise != "" {
		bind = ":0"
	}
	ls, err := net.Listen("tcp", bind)
	if err != nil {
		j.setError(fmt.Sprintf("binding job control port: %v", err))
		j.transition(Failed)
		return nil
	}
	for i, d := range picked {
		d.busy += sizes[i]
	}
	at := &jobAttempt{
		job: j, daemons: picked, sizes: sizes, ls: ls, token: newID("tok"),
		ranks: len(picked), reported: make([]bool, len(picked)),
	}
	maxPPN := 0
	for _, s := range sizes {
		if s > maxPPN {
			maxPPN = s
		}
	}
	at.cs = mnet.NewControlServer(len(picked), maxPPN, at.token, g.cfg.Heartbeat, mnet.ControlCallbacks{
		Console: func(rank int, isErr bool, text string) {
			j.appendLog(text, isErr)
		},
		Fail: func(err error) {
			// Teardown of a drained gang relays rank failures here after
			// the job has already requeued; only the live attempt may
			// stamp the job's error.
			g.mu.Lock()
			cur := g.attempts[j.id] == at
			g.mu.Unlock()
			if cur {
				j.setError(err.Error())
			}
		},
		RankLost: func(rank int, err error) bool {
			// A lost rank is drained, not fatal: its daemon died or its
			// runner crashed. The update path (or daemon-loss sweep)
			// decides between requeue and failure.
			return true
		},
	})
	at.wdog = time.AfterFunc(g.cfg.JobWatchdog, func() {
		j.setError(fmt.Sprintf("job exceeded watchdog %v; state: %s", g.cfg.JobWatchdog, at.cs.Describe()))
		g.abortAttempt(at, "watchdog expired")
	})
	names := make([]string, 0, len(picked))
	for _, d := range picked {
		names = append(names, d.name)
	}
	j.mu.Lock()
	at.seq = j.requeues + 1 // attempt 1 is the first placement
	j.daemons = append(j.daemons[:0], names...)
	j.nodeSizes = append([]int(nil), sizes...)
	j.mu.Unlock()
	g.attempts[j.id] = at
	g.jn.assign(j.id, at.seq, names, sizes)
	return at
}

// launch starts one placed attempt: it serves the control server and
// sends one assignment per rank. Runs without mu.
func (g *Gateway) launch(at *jobAttempt) {
	j := at.job
	if !j.transition(Admitted) {
		// Cancelled between placement and launch.
		g.releaseAttempt(at)
		return
	}
	go at.cs.Serve(at.ls)
	launcher := at.ls.Addr().String()
	if g.cfg.Advertise != "" {
		if _, port, perr := net.SplitHostPort(launcher); perr == nil {
			launcher = net.JoinHostPort(g.cfg.Advertise, port)
		}
	}
	pes := 0
	for _, s := range at.sizes {
		pes += s
	}

	j.mu.Lock()
	deadlineMS := int64(j.deadline / time.Millisecond)
	maxMemMB := j.maxMemMB
	workload, args := j.workload, j.args
	j.mu.Unlock()
	asn := assignMsg{
		Job:         j.id,
		Attempt:     at.seq,
		Workload:    workload,
		Args:        args,
		Launcher:    launcher,
		JobToken:    at.token,
		NP:          len(at.daemons),
		PEs:         pes,
		NodeSizes:   append([]int(nil), at.sizes...),
		HeartbeatMS: g.cfg.Heartbeat.Milliseconds(),
		DeadlineMS:  deadlineMS,
		MaxMemMB:    maxMemMB,
	}
	g.cfg.Logf("launching %s attempt %d: %d PEs over %d daemons", j.id, at.seq, pes, len(at.daemons))
	for rank, d := range at.daemons {
		asn.Rank = rank
		asn.Advertise = d.advertise
		if err := d.send(kAssign, asn); err != nil {
			// The session reader will notice the dead daemon; the rank
			// can never start, so count it lost now.
			g.cfg.Logf("assigning %s rank %d to %s: %v", j.id, rank, d.name, err)
			g.rankUpdate(updateMsg{Job: j.id, Attempt: at.seq, Rank: rank, OK: false, Error: "daemon unreachable"}, true)
		}
	}
	j.transition(Running)
}

// releaseAttempt returns an attempt's held slots and tears down its
// control server. Idempotent; runs without mu.
func (g *Gateway) releaseAttempt(at *jobAttempt) {
	g.mu.Lock()
	if g.attempts[at.job.id] != at {
		g.mu.Unlock()
		return
	}
	delete(g.attempts, at.job.id)
	for i, d := range at.daemons {
		if d == nil {
			continue // never-adopted rank of a recovered stand-in
		}
		d.busy -= at.sizes[i]
		if d.busy < 0 {
			d.busy = 0
		}
	}
	g.mu.Unlock()
	if at.wdog != nil {
		at.wdog.Stop()
	}
	if at.cs != nil {
		at.cs.Shutdown()
	}
	if at.ls != nil {
		at.ls.Close()
	}
	g.kick()
}

// abortAttempt tells every participating daemon to kill the job's
// local ranks. Their terminal updates (or their sessions' deaths)
// complete the accounting.
func (g *Gateway) abortAttempt(at *jobAttempt, reason string) {
	for _, d := range at.daemons {
		if d == nil {
			continue
		}
		d.send(kUnassign, unassignMsg{Job: at.job.id, Attempt: at.seq, Reason: reason})
	}
	// A rank still blocked in the job's rendezvous can't see the
	// unassign — its daemon indexes the job only after Join returns —
	// and with a gang member dead the table broadcast it is waiting for
	// will never come. Abort severs its control connection instead, so
	// the gang drains now rather than after the handshake timeout. The
	// listener stays open on purpose: a rank that has not dialed yet
	// retries a refused connect until its deadline, so the fast path
	// for it is accept-then-close (which the aborted server does), not
	// connection refused. releaseAttempt closes the listener once the
	// drain completes.
	if at.cs != nil {
		at.cs.Abort()
	}
}

// rankUpdate folds one rank's terminal report into its job; the last
// rank's update finalizes the attempt. daemonLost marks the rank as a
// churn casualty rather than a workload failure. Each rank counts
// exactly once per attempt: recovery can race a synthesized loss
// report (daemon death, window expiry) against the real resumed
// update, and whichever lands second is dropped here.
func (g *Gateway) rankUpdate(m updateMsg, daemonLost bool) {
	g.mu.Lock()
	at := g.attempts[m.Job]
	if at == nil || m.Attempt != at.seq {
		g.mu.Unlock()
		return // late update for a finished/cancelled/requeued attempt
	}
	if m.Rank < 0 || m.Rank >= at.ranks || at.reported[m.Rank] {
		g.mu.Unlock()
		return // out of range, or this rank already counted
	}
	at.reported[m.Rank] = true
	g.mu.Unlock()
	j := at.job
	j.mu.Lock()
	j.ranksDone++
	j.bytes += m.SentBytes
	if daemonLost {
		j.daemonLost = true
	} else if !m.OK && j.rankErr == "" {
		j.rankErr = m.Error
	}
	complete := j.ranksDone >= at.ranks
	j.mu.Unlock()
	if complete {
		g.finalizeAttempt(at)
	}
}

// finalizeAttempt decides one fully-reported attempt's fate: done,
// failed, cancelled (already terminal), or — when daemon loss drained
// it — requeued with the budget decremented.
func (g *Gateway) finalizeAttempt(at *jobAttempt) {
	j := at.job
	g.releaseAttempt(at)

	j.mu.Lock()
	lost := j.daemonLost
	rankErr := j.rankErr
	requeues := j.requeues
	j.mu.Unlock()

	switch {
	case j.State().Terminal():
		// Cancelled (or failed by the watchdog) while ranks drained.
		return
	case lost && requeues < g.cfg.MaxRequeues:
		if !j.transition(Requeued) {
			return
		}
		j.resetAttempt()
		j.mu.Lock()
		j.requeues++
		j.mu.Unlock()
		if !j.transition(Queued) {
			return // cancelled in the requeue window
		}
		g.cfg.Logf("requeueing %s after daemon loss (attempt %d)", j.id, requeues+2)
		g.mu.Lock()
		ok := !g.closed
		if ok {
			// Requeued jobs go to the front: they already waited once.
			g.queue = append([]*Job{j}, g.queue...)
		}
		g.mu.Unlock()
		if !ok {
			j.setError("gateway shut down")
			j.transition(Cancelled)
			return
		}
		g.kick()
	case lost:
		j.setError(fmt.Sprintf("requeue budget exhausted (%d attempts lost to daemon churn)", requeues+1))
		j.setReason("requeue-exhausted")
		j.transition(Failed)
		g.cfg.Logf("job %s failed: requeue budget exhausted after %d attempts", j.id, requeues+1)
	case rankErr != "":
		j.setError(rankErr)
		j.transition(Failed)
		g.cfg.Logf("job %s attempt %d failed: %s", j.id, at.seq, rankErr)
	default:
		j.transition(Done)
	}
}

// --- daemon sessions -------------------------------------------------

// serveDaemon runs one daemon's persistent control session: register,
// then read updates and pings until the connection dies, which is the
// leave/churn event. Only a refused registration returns an error.
func (g *Gateway) serveDaemon(conn net.Conn, payload []byte) (any, error) {
	var m registerMsg
	if err := wire.DecodeJSON(kRegister, payload, &m); err != nil {
		return nil, err
	}
	if m.Slots < 1 {
		return nil, fmt.Errorf("service: daemon %q registered with %d slots", m.Name, m.Slots)
	}
	d := &daemonSession{name: m.Name, slots: m.Slots, live: true, conn: conn, advertise: m.Advertise}
	g.mu.Lock()
	if g.closed {
		g.mu.Unlock()
		return nil, errShuttingDown
	}
	if d.name == "" {
		d.name = newID("d")
	}
	for g.daemons[d.name] != nil {
		d.name = newID(m.Name + "-d")
	}
	g.daemons[d.name] = d
	g.mu.Unlock()
	// Reconcile the daemon's carried job state before replying: running
	// ranks of recovering jobs are re-adopted, missed results applied,
	// and anything stale goes back in the reply's kill list.
	kills := g.adoptResume(d, m.Resume)
	if err := d.send(kRegister, registerReply{Name: d.name, Epoch: g.epoch, Kill: kills}); err != nil {
		g.dropDaemon(d, err)
		return nil, nil
	}
	if m.Epoch != 0 || len(m.Resume) > 0 {
		g.cfg.Logf("daemon %s re-joined with %d slots (last epoch %d, %d resumed ranks, %d fenced)",
			d.name, d.slots, m.Epoch, len(m.Resume), len(kills))
	} else {
		g.cfg.Logf("daemon %s joined with %d slots", d.name, d.slots)
	}
	g.kick()

	allowance := time.Duration(daemonMissFactor) * daemonPing
	for {
		conn.SetReadDeadline(time.Now().Add(allowance))
		k, pl, err := wire.ReadFrame(conn)
		if err != nil {
			g.dropDaemon(d, err)
			return nil, nil
		}
		switch k {
		case kDPing:
			// The read itself refreshed the liveness deadline.
		case kUpdate:
			var u updateMsg
			if err := wire.DecodeJSON(k, pl, &u); err != nil {
				g.dropDaemon(d, err)
				return nil, nil
			}
			if u.Epoch != g.epoch {
				// A straggler stamped by a previous gateway incarnation:
				// fence it off rather than let it corrupt the recovered
				// attempt accounting.
				g.cfg.Logf("fencing stale update for %s (epoch %d, current %d)", u.Job, u.Epoch, g.epoch)
				continue
			}
			if u.Reason != "" {
				if j, jerr := g.lookupJob(u.Job); jerr == nil {
					j.setReason(u.Reason)
				}
			}
			g.rankUpdate(u, false)
		case kDrain:
			g.mu.Lock()
			d.draining = true
			g.mu.Unlock()
			g.cfg.Logf("daemon %s draining: no new placements", d.name)
		default:
			g.dropDaemon(d, fmt.Errorf("service: unexpected frame kind %d from daemon", k))
			return nil, nil
		}
	}
}

// dropDaemon handles a daemon leaving (clean or by death): deregister
// it, synthesize lost-rank updates for every attempt it carried so
// those gangs drain and requeue, and fail queued jobs the shrunken
// cluster can never place.
func (g *Gateway) dropDaemon(d *daemonSession, cause error) {
	g.mu.Lock()
	if !d.live {
		g.mu.Unlock()
		return
	}
	d.live = false
	delete(g.daemons, d.name)
	var affected []*jobAttempt
	for _, at := range g.attempts {
		for _, ad := range at.daemons {
			if ad == d {
				affected = append(affected, at)
				break
			}
		}
	}
	cp := g.capacityLocked()
	var doomed []*Job
	remaining := g.queue[:0]
	for _, j := range g.queue {
		// During the recovery window capacity is a moving target (most
		// daemons have not re-registered yet); the post-window sweep in
		// endRecovery re-runs this check with real numbers.
		if j.gang > cp && !g.recovering {
			doomed = append(doomed, j)
		} else {
			remaining = append(remaining, j)
		}
	}
	g.queue = remaining
	closed := g.closed
	g.mu.Unlock()
	d.conn.Close()
	if closed {
		return
	}
	g.cfg.Logf("daemon %s left (%v); %d gangs to drain", d.name, cause, len(affected))
	for _, j := range doomed {
		j.setError(fmt.Sprintf("cluster shrank below gang size %d after daemon %s left", j.gang, d.name))
		j.transition(Failed)
	}
	for _, at := range affected {
		// Abort the survivors' ranks, then account the dead daemon's
		// ranks as lost; the survivors' own updates complete the drain.
		g.abortAttempt(at, fmt.Sprintf("daemon %s left", d.name))
		for rank, ad := range at.daemons {
			if ad == d {
				if at.cs != nil {
					at.cs.MarkDead(rank)
				}
				g.rankUpdate(updateMsg{Job: at.job.id, Attempt: at.seq, Rank: rank, OK: false,
					Error: fmt.Sprintf("daemon %s left", d.name)}, true)
			}
		}
	}
	g.kick()
}
