package service

// The gateway's control-plane core. fleet holds every decision the
// gateway makes — admission, placement, rank accounting, requeue versus
// failure, re-adoption versus fencing, the recovery window — as a value
// with no sockets, no clock and no locks. Each entry below is one event
// and carries the time it happened; what the event changes in the job
// table goes through apply as a journal record, and what it asks of
// the outside world comes back as commands. The shell (gateway.go,
// sched.go, recover.go) turns sockets and timers into these events,
// appends the records to the journal in apply order, and runs the
// commands. Journal replay folds the same apply over the file, so a
// replayed journal equals the live job table at every record boundary
// by construction. The roster and the per-attempt rank accounting are
// not journaled: a restarted gateway rebuilds them from re-registering
// daemons, and the entries change them directly.

import (
	"cmp"
	"fmt"
	"slices"
	"sort"
	"time"
)

// fleet is the core's state.
type fleet struct {
	maxRequeues, backlogCap  int
	watchdog, recoveryWindow time.Duration

	epoch int64
	// clean is set while the last record applied is a clean-shutdown
	// marker; replay reports with it how the previous incarnation ended.
	clean bool
	// recovering is the post-restart reconciliation window: daemons may
	// still re-register and hand running gangs back, so capacity checks
	// are suspended. draining refuses new admissions and placements.
	recovering, draining bool

	jobs     map[string]*Job
	order    []*Job // every job, in submit order
	queue    []*Job // the Queued jobs, FIFO with backfill
	attempts map[string]*attempt
	daemons  map[string]*daemon

	recs []record // applied since the shell last took them
	cmds []cmd
}

// attempt is one scheduled gang attempt's rank accounting.
type attempt struct {
	// seq numbers the job's attempts; rank updates must echo it, so a
	// straggler from a drained attempt can't finalize its successor.
	seq int
	// daemons holds each rank's daemon; "" for a rank whose daemon left,
	// or a stand-in's rank no daemon has re-adopted yet.
	daemons []string
	sizes   []int // PEs per rank
	// reported dedups rank results: synthesized losses (daemon death,
	// recovery expiry) and real resumed updates may race for the same
	// rank, and each rank counts exactly once. left counts the rest.
	reported []bool
	left     int
	// recovered marks a stand-in rebuilt from the journal after a
	// restart; adopted marks its ranks re-registering daemons handed back.
	recovered bool
	adopted   []bool
	// lost makes the attempt a casualty of daemon death: requeue rather
	// than fail. err is control-plane failure chatter (first writer wins),
	// rankErr the first failing rank's error, reason the first rank's
	// terminal tag.
	lost                 bool
	err, rankErr, reason string
}

// daemon is one registered daemon's share of the roster.
type daemon struct {
	slots, busy int
	// draining means the daemon asked to leave: it keeps its gangs but
	// gets no new placements.
	draining bool
}

// cmdKind names what a command asks of the shell.
type cmdKind uint8

const (
	cLaunch  cmdKind = iota // start the attempt: control server up, one assignment per rank
	cAbort                  // unassign the attempt's ranks, stop its control server
	cRelease                // the attempt is over: stop its watchdog, close its control server
	cArm                    // arm a timer: the attempt's watchdog, or (no job) the recovery window
	cFence                  // tell the registering daemon to kill a resumed rank
	cLog                    // one diagnostic line
)

// cmd is one effect the core asks the shell to perform.
type cmd struct {
	kind    cmdKind
	job     string
	seq     int
	after   time.Duration // cArm
	text    string        // abort and fence reason; log line format
	args    []any         // cLog: the format's operands
	daemons []string      // cAbort: the attempt's daemons by rank
}

func newFleet() *fleet {
	return &fleet{jobs: map[string]*Job{}, attempts: map[string]*attempt{}, daemons: map[string]*daemon{}}
}

// take hands the shell what the last events produced.
func (f *fleet) take() ([]record, []cmd) {
	recs, cmds := f.recs, f.cmds
	f.recs, f.cmds = nil, nil
	return recs, cmds
}

func (f *fleet) logf(format string, args ...any) {
	f.cmds = append(f.cmds, cmd{kind: cLog, text: format, args: args})
}

// stamp is a record's time in Unix nanoseconds: the live event's clock
// reading, or the journaled millisecond when replaying.
func stamp(at time.Time, ms int64) int64 {
	if at.IsZero() {
		return ms * 1e6
	}
	return at.UnixNano()
}

// apply is the only writer of the job table. Live events and journal
// replay both fold records through it. An edge the state machine
// refuses (impossible unless the file was edited) is dropped with a
// log line rather than corrupting the table.
func (f *fleet) apply(rec record) {
	f.recs = append(f.recs, rec)
	f.clean = false
	switch r := rec.(type) {
	case jEpochRec:
		f.epoch = max(f.epoch, r.Epoch)
	case jSubmitRec:
		if f.jobs[r.ID] != nil {
			f.logf("service: journal: duplicate submit %s ignored", r.ID)
			return
		}
		f.add(&Job{
			ID: r.ID, Name: r.Name, Workload: r.Workload, Args: r.Args, Gang: r.Gang,
			DeadlineMS: r.DeadlineMS, MaxMemMB: r.MaxMemMB, State: Queued,
			SubmittedMS: r.SubmittedMS, submitted: stamp(r.at, r.SubmittedMS),
		})
	case jTransRec:
		j := f.jobs[r.ID]
		if j == nil {
			f.logf("service: journal: transition for unknown job %s ignored", r.ID)
			return
		}
		to := State(r.To)
		if !canTransition(j.State, to) {
			f.logf("service: journal: illegal edge %s -> %s for %s ignored", j.State, to, r.ID)
			return
		}
		j.State, j.Err, j.Reason, j.Requeues = to, r.Err, r.Reason, r.Requeues
		switch at := stamp(r.at, r.AtMS); {
		case to == Queued:
			// Requeued -> Queued starts a fresh attempt: stale placement
			// and stage times must not leak into the next one.
			j.Daemons, j.Sizes, j.Err, j.Reason = nil, nil, "", ""
			j.stages = JobStages{}
		case to == Admitted:
			j.admitted = at
		case to.Terminal():
			j.finished = at
		}
	case jAssignRec:
		if j := f.jobs[r.ID]; j != nil {
			j.Attempt, j.Daemons, j.Sizes = r.Attempt, r.Daemons, r.Sizes
		}
	case jSnapshotRec:
		f.epoch = r.Epoch
		f.jobs, f.order = map[string]*Job{}, nil
		for _, j := range r.Jobs {
			if j != nil && f.jobs[j.ID] == nil {
				j.submitted = j.SubmittedMS * 1e6
				f.add(j)
			}
		}
	case jShutdownRec:
		f.clean = true
	}
}

func (f *fleet) add(j *Job) {
	f.jobs[j.ID] = j
	f.order = append(f.order, j)
}

// move journals j's edge to `to`, reporting false for an edge the state
// machine refuses (a lost race: the loser of cancel vs done is a
// no-op). err and reason fill the job's own only where those are empty
// — the first writer wins. Entering Queued starts a fresh attempt and
// spends one requeue.
func (f *fleet) move(j *Job, to State, err, reason string, now time.Time) bool {
	if !canTransition(j.State, to) {
		return false
	}
	rq := j.Requeues
	if to == Queued {
		rq, err, reason = rq+1, "", ""
	} else {
		err, reason = cmp.Or(j.Err, err), cmp.Or(j.Reason, reason)
	}
	f.apply(jTransRec{ID: j.ID, From: string(j.State), To: string(to), Err: err, Reason: reason,
		Requeues: rq, AtMS: now.UnixMilli(), at: now})
	return true
}

// capacity totals the non-draining daemons' slots.
func (f *fleet) capacity() int {
	total := 0
	for _, d := range f.daemons {
		if !d.draining {
			total += d.slots
		}
	}
	return total
}

// submit runs admission control: a full backlog and an impossible gang
// are both rejected now, with a reason, rather than queued to rot. The
// capacity check is suspended during recovery: right after a restart no
// daemon has re-registered yet, and rejecting every submit for a few
// seconds would turn a survived crash into an outage anyway.
func (f *fleet) submit(id string, m submitMsg, now time.Time) error {
	if f.draining {
		return fmt.Errorf("service: gateway is draining; resubmit to its successor")
	}
	if len(f.queue) >= f.backlogCap {
		return fmt.Errorf("service: backlog full (%d jobs queued, cap %d); retry later", len(f.queue), f.backlogCap)
	}
	if cp := f.capacity(); !f.recovering && m.Gang > cp {
		return fmt.Errorf("service: gang of %d exceeds cluster capacity of %d PEs", m.Gang, cp)
	}
	if f.jobs[id] != nil {
		return fmt.Errorf("service: duplicate job id %q", id)
	}
	f.apply(jSubmitRec{ID: id, Name: m.Name, Workload: m.Workload, Args: m.Args, Gang: m.Gang,
		DeadlineMS: m.DeadlineMS, MaxMemMB: m.MaxMemMB, SubmittedMS: now.UnixMilli(), at: now})
	f.queue = append(f.queue, f.jobs[id])
	f.schedule(now)
	return nil
}

// cancel ends one job wherever it is: a queued job leaves the queue, a
// scheduled one has its ranks aborted on their daemons. A terminal job
// wins the race silently (cancel-after-done is not an error).
func (f *fleet) cancel(id, why string, now time.Time) error {
	j := f.jobs[id]
	if j == nil {
		return fmt.Errorf("service: unknown job %q", id)
	}
	if !f.move(j, Cancelled, why, "", now) {
		return nil
	}
	f.queue = slices.DeleteFunc(f.queue, func(q *Job) bool { return q == j })
	if at := f.attempts[id]; at != nil {
		f.abort(id, at, why)
	}
	return nil
}

// schedule scans the queue in order and places every job that fits the
// free slots (in-order backfill: a small job may overtake a large one
// waiting for capacity, which favors throughput; the large job is still
// first in line for freed slots).
func (f *fleet) schedule(now time.Time) {
	if f.draining {
		return
	}
	f.queue = slices.DeleteFunc(f.queue, func(j *Job) bool { return f.place(j, now) })
}

// place carves a gang's PEs out of the daemons' free slots, preferring
// the emptiest daemons (spreads load, keeps node counts small). On
// success the slots are held, the attempt is journaled and the job is
// dispatched; the shell launches it and arms its watchdog.
func (f *fleet) place(j *Job, now time.Time) bool {
	type cand struct {
		name string
		free int
	}
	var cands []cand
	for name, d := range f.daemons {
		if !d.draining && d.slots > d.busy {
			cands = append(cands, cand{name, d.slots - d.busy})
		}
	}
	sort.Slice(cands, func(a, b int) bool {
		if cands[a].free != cands[b].free {
			return cands[a].free > cands[b].free
		}
		return cands[a].name < cands[b].name
	})
	need := j.Gang
	var names []string
	var sizes []int
	for _, c := range cands {
		if need == 0 {
			break
		}
		take := min(c.free, need)
		names = append(names, c.name)
		sizes = append(sizes, take)
		need -= take
	}
	if need > 0 {
		return false // not enough free slots right now
	}
	for i, name := range names {
		f.daemons[name].busy += sizes[i]
	}
	seq := j.Requeues + 1 // attempt 1 is the first placement
	f.attempts[j.ID] = &attempt{seq: seq, daemons: names, sizes: sizes,
		reported: make([]bool, len(names)), left: len(names)}
	f.apply(jAssignRec{ID: j.ID, Attempt: seq, Daemons: slices.Clone(names), Sizes: slices.Clone(sizes)})
	f.move(j, Admitted, "", "", now)
	f.move(j, Running, "", "", now)
	f.logf("launching %s attempt %d: %d PEs over %d daemons", j.ID, seq, j.Gang, len(names))
	f.cmds = append(f.cmds, cmd{kind: cLaunch, job: j.ID, seq: seq},
		cmd{kind: cArm, job: j.ID, seq: seq, after: f.watchdog})
	return true
}

// abort asks every participating daemon to kill the attempt's ranks;
// their terminal updates (or their sessions' deaths) complete the
// accounting.
func (f *fleet) abort(id string, at *attempt, why string) {
	f.cmds = append(f.cmds, cmd{kind: cAbort, job: id, seq: at.seq, text: why,
		daemons: slices.Clone(at.daemons)})
}

// release drops a finished attempt and returns its held slots.
func (f *fleet) release(id string, at *attempt) {
	delete(f.attempts, id)
	for r, name := range at.daemons {
		if d := f.daemons[name]; d != nil {
			d.busy -= at.sizes[r]
		}
	}
	f.cmds = append(f.cmds, cmd{kind: cRelease, job: id, seq: at.seq})
}

// update is one rank's terminal report from a daemon session. An update
// stamped by a previous gateway incarnation is fenced off rather than
// let corrupt the recovered attempt accounting. The live attempt's
// slowest rank's stage times become the job's.
func (f *fleet) update(u updateMsg, now time.Time) {
	if u.Epoch != f.epoch {
		f.logf("fencing stale update for %s (epoch %d, current %d)", u.Job, u.Epoch, f.epoch)
		return
	}
	if at, j := f.attempts[u.Job], f.jobs[u.Job]; at != nil && at.seq == u.Attempt && u.Stages != nil &&
		u.Stages.total() > j.stages.total() {
		j.stages = *u.Stages
	}
	f.report(u.Job, u.Attempt, u.Rank, u.OK, u.Error, u.Reason, u.SentBytes, false, now)
	f.schedule(now)
}

// rankLost counts one rank as lost with its daemon: its assignment could
// not be delivered.
func (f *fleet) rankLost(id string, seq, rank int, why string, now time.Time) {
	f.report(id, seq, rank, false, why, "", 0, true, now)
	f.schedule(now)
}

// report folds one rank's result into its attempt; the last rank's
// result finalizes it. A result for a finished, cancelled or requeued
// attempt, or for a rank already counted, is dropped.
func (f *fleet) report(id string, seq, rank int, ok bool, errText, reason string, sent uint64, lost bool, now time.Time) {
	at := f.attempts[id]
	if at == nil || at.seq != seq || rank < 0 || rank >= len(at.reported) || at.reported[rank] {
		return
	}
	at.reported[rank] = true
	at.left--
	j := f.jobs[id]
	j.bytes += sent
	if lost {
		at.lost = true
	} else if !ok && at.rankErr == "" {
		at.rankErr = errText
	}
	at.reason = cmp.Or(at.reason, reason)
	if at.left == 0 {
		f.finalize(j, at, now)
	}
}

// finalize decides one fully reported attempt's fate: done, failed,
// already terminal (cancelled, or failed by its watchdog), or — when
// daemon loss drained it — requeued with the budget spent.
func (f *fleet) finalize(j *Job, at *attempt, now time.Time) {
	f.release(j.ID, at)
	switch {
	case j.State.Terminal():
	case at.lost && j.Requeues < f.maxRequeues:
		f.logf("requeueing %s after daemon loss (attempt %d)", j.ID, j.Requeues+2)
		f.requeue(j, now)
	case at.lost:
		f.move(j, Failed, fmt.Sprintf("requeue budget exhausted (%d attempts lost to daemon churn)", j.Requeues+1),
			"requeue-exhausted", now)
		f.logf("job %s failed: requeue budget exhausted after %d attempts", j.ID, j.Requeues+1)
	case at.rankErr != "":
		f.move(j, Failed, cmp.Or(at.err, at.rankErr), at.reason, now)
		f.logf("job %s attempt %d failed: %s", j.ID, at.seq, at.rankErr)
	default:
		f.move(j, Done, at.err, at.reason, now)
	}
}

// requeue sends j to the front of the queue (it already waited once)
// for a fresh attempt. A job a crash left Requeued — the journal cut
// between the edge's two records — just finishes the edge.
func (f *fleet) requeue(j *Job, now time.Time) {
	f.move(j, Requeued, "", "", now)
	f.move(j, Queued, "", "", now)
	f.queue = append([]*Job{j}, f.queue...)
}

// ctlFailed records control-plane failure chatter for the live attempt
// (a drained attempt's teardown relays rank failures after it is gone).
func (f *fleet) ctlFailed(id string, seq int, text string) {
	if at := f.attempts[id]; at != nil && at.seq == seq && at.err == "" {
		at.err = text
	}
}

// watchdogFired is a job attempt outliving JobWatchdog. Live attempt or
// recovered stand-in alike, expiry fails the job — it never requeues,
// since a wedged gang would wedge again — and aborts the ranks, whose
// reports then only release the slots.
func (f *fleet) watchdogFired(id string, seq int, detail string, now time.Time) {
	at := f.attempts[id]
	if at == nil || at.seq != seq {
		return
	}
	msg := fmt.Sprintf("job exceeded watchdog %v", f.watchdog)
	if detail != "" {
		msg += "; state: " + detail
	}
	f.move(f.jobs[id], Failed, msg, "", now)
	f.abort(id, at, "watchdog expired")
}

// unlaunched gives back an attempt the shell could not start (its
// control port would not bind) or must not start (cancelled, or a rank
// lost with its daemon, before launch ran): no daemon ever got its
// ranks, so each one fails with why and the attempt finalizes as any
// other does.
func (f *fleet) unlaunched(id string, seq int, why string, now time.Time) {
	if at := f.attempts[id]; at != nil && at.seq == seq {
		for r := range at.reported {
			f.report(id, seq, r, false, why, "", 0, false, now)
		}
	}
	f.schedule(now)
}

// join registers a daemon and reconciles the job state it carries:
// running ranks of a recovering attempt are re-adopted (slots held, job
// back to Running, tagged "recovered"), results the previous
// incarnation never saw are applied as ordinary rank reports, and
// anything else running is fenced — the daemon must kill it. join does
// not place work: the shell schedules once the daemon has its reply.
func (f *fleet) join(name string, slots int, resume []resumeEntry, now time.Time) {
	d := &daemon{slots: slots}
	f.daemons[name] = d
	for _, re := range resume {
		at := f.attempts[re.Job]
		switch {
		case at == nil || re.Attempt != at.seq:
			// A finished result for a gone attempt carries nothing the
			// core can still use; drop it.
			if re.Running {
				f.fence(re, "stale attempt (job finished, requeued, or unknown)")
			}
		case !re.Running:
			f.report(re.Job, re.Attempt, re.Rank, re.OK, re.Error, re.Reason, re.SentBytes, false, now)
		case !at.recovered || re.Rank < 0 || re.Rank >= len(at.adopted) || at.adopted[re.Rank] || at.reported[re.Rank]:
			f.fence(re, "rank not adoptable (already accounted)")
		default:
			at.adopted[re.Rank] = true
			at.daemons[re.Rank] = name
			d.busy += at.sizes[re.Rank]
			if f.move(f.jobs[re.Job], Running, "", "recovered", now) {
				f.logf("re-adopted %s from daemon %s", re.Job, name)
			}
		}
	}
}

func (f *fleet) fence(re resumeEntry, why string) {
	f.cmds = append(f.cmds, cmd{kind: cFence, job: re.Job, seq: re.Attempt, text: why})
}

// leave handles a daemon leaving (cleanly or by death): deregister it,
// fail queued jobs the shrunken cluster can never place, and count its
// ranks of every attempt as lost, so those gangs drain and requeue.
func (f *fleet) leave(name, cause string, now time.Time) {
	if f.daemons[name] == nil {
		return
	}
	delete(f.daemons, name)
	f.failDoomed(now)
	var hit []string
	for id, at := range f.attempts {
		if slices.Contains(at.daemons, name) {
			hit = append(hit, id)
		}
	}
	sort.Strings(hit)
	f.logf("daemon %s left (%s); %d gangs to drain", name, cause, len(hit))
	why := fmt.Sprintf("daemon %s left", name)
	for _, id := range hit {
		at := f.attempts[id]
		var dead []int
		for r, n := range at.daemons {
			if n == name {
				at.daemons[r] = "" // its slots left with it
				dead = append(dead, r)
			}
		}
		// Abort the survivors' ranks, then account the dead daemon's
		// ranks as lost; the survivors' own updates complete the drain.
		f.abort(id, at, why)
		for _, r := range dead {
			f.report(id, at.seq, r, false, why, "", 0, true, now)
		}
	}
	f.schedule(now)
}

// failDoomed fails queued jobs the cluster can never place. During the
// recovery window capacity is a moving target (most daemons have not
// re-registered yet), so the window's close runs the check instead.
func (f *fleet) failDoomed(now time.Time) {
	if f.recovering {
		return
	}
	cp := f.capacity()
	f.queue = slices.DeleteFunc(f.queue, func(j *Job) bool {
		return j.Gang > cp && f.move(j, Failed, fmt.Sprintf("gang of %d exceeds the cluster's capacity of %d PEs", j.Gang, cp), "", now)
	})
}

// daemonDraining stops placements on a daemon that asked to leave.
func (f *fleet) daemonDraining(name string) {
	if d := f.daemons[name]; d != nil {
		d.draining = true
		f.logf("daemon %s draining: no new placements", name)
	}
}

// boot starts a journaled incarnation over the replayed table: a new
// epoch, the queue rebuilt, and every job that was in flight put in
// Recovering with a stand-in attempt (the real control server died with
// the previous incarnation), armed with the job watchdog; the recovery
// window decides between re-adoption and requeue.
func (f *fleet) boot(now time.Time) {
	how := "clean shutdown"
	if !f.clean {
		how = "crash"
	}
	f.apply(jEpochRec{Epoch: f.epoch + 1, AtMS: now.UnixMilli()})
	f.recovering = true
	recovering := 0
	for _, j := range f.order {
		switch j.State {
		case Queued:
			f.queue = append(f.queue, j)
		case Requeued:
			f.requeue(j, now)
		case Admitted, Running, Recovering:
			n := len(j.Daemons)
			f.attempts[j.ID] = &attempt{seq: j.Attempt, recovered: true,
				daemons: make([]string, n), sizes: slices.Clone(j.Sizes),
				reported: make([]bool, n), adopted: make([]bool, n), left: n}
			f.move(j, Recovering, "", "", now)
			f.cmds = append(f.cmds, cmd{kind: cArm, job: j.ID, seq: j.Attempt, after: f.watchdog})
			recovering++
		}
	}
	f.cmds = append(f.cmds, cmd{kind: cArm, after: f.recoveryWindow})
	f.logf("recovered journal (epoch %d after %s): %d jobs, %d queued, %d awaiting re-adoption",
		f.epoch, how, len(f.order), len(f.queue), recovering)
}

// endRecovery closes the reconciliation window: the capacity checks
// suspended during it come back, and ranks of stand-in attempts that no
// daemon resumed are counted lost (requeueing their gangs through the
// ordinary churn path) — after the adopted survivors of an incomplete
// gang are aborted, so nothing double-runs.
func (f *fleet) endRecovery(now time.Time) {
	if !f.recovering {
		return
	}
	f.recovering = false
	f.failDoomed(now)
	var ids []string
	for id, at := range f.attempts {
		if at.recovered {
			ids = append(ids, id)
		}
	}
	sort.Strings(ids)
	lost := 0
	for _, id := range ids {
		at := f.attempts[id]
		var missing []int
		for r := range at.adopted {
			if !at.adopted[r] && !at.reported[r] {
				missing = append(missing, r)
			}
		}
		if len(missing) == 0 {
			continue
		}
		lost += len(missing)
		f.abort(id, at, "gang incomplete after gateway recovery")
		for _, r := range missing {
			f.report(id, at.seq, r, false, "daemon did not re-register within the recovery window", "", 0, true, now)
		}
	}
	if lost > 0 {
		f.logf("recovery window closed: %d ranks never re-registered; requeueing their gangs", lost)
	}
	f.schedule(now)
}

// shutdown cancels every unfinished job of a closing gateway and
// releases their attempts; the daemons abort the ranks themselves when
// their sessions drop.
func (f *fleet) shutdown(now time.Time) {
	for _, j := range f.order {
		f.move(j, Cancelled, "gateway shut down", "", now)
	}
	f.queue = nil
	for id, at := range f.attempts {
		f.release(id, at)
	}
}
