package service

import (
	"encoding/json"
	"fmt"
	"sync"
	"time"
)

// State is one job's position in the service lifecycle.
type State string

// The job state machine. A submitted job is Queued; admission control
// either rejects it outright (never a state — rejection is a submit
// error) or it waits for a gang. Scheduling moves it to Admitted
// (slots held, assignments in flight), then Running (every rank
// reported in / the gang dispatched). Daemon loss mid-flight moves it
// to Requeued and then back to Queued with the gang's slots returned —
// availability under churn instead of whole-job failure — until the
// requeue budget runs out. A gateway restarted from its journal puts
// every formerly in-flight job in Recovering: the gang may still be
// running on daemons that outlived the crash, so the job is neither
// running (nobody is watching it yet) nor lost (its daemons may
// re-register and hand it back). Re-adoption moves it back to Running;
// the recovery window expiring moves it through Requeued like a daemon
// death would. Done, Cancelled, and Failed are terminal and sticky: a
// cancel racing a completion resolves to whichever transition lands
// first, and the loser is a no-op.
const (
	Queued     State = "queued"
	Admitted   State = "admitted"
	Running    State = "running"
	Requeued   State = "requeued"
	Recovering State = "recovering"
	Done       State = "done"
	Cancelled  State = "cancelled"
	Failed     State = "failed"
)

// Terminal reports whether s is a final state.
func (s State) Terminal() bool {
	return s == Done || s == Cancelled || s == Failed
}

// validNext enumerates the legal transitions. The zero-value absence
// of a state maps to "no transitions", which terminal states rely on.
var validNext = map[State][]State{
	Queued:     {Admitted, Cancelled, Failed},
	Admitted:   {Running, Requeued, Recovering, Done, Cancelled, Failed},
	Running:    {Done, Requeued, Recovering, Cancelled, Failed},
	Requeued:   {Queued, Cancelled, Failed},
	Recovering: {Running, Requeued, Done, Cancelled, Failed},
}

// canTransition reports whether from -> to is a legal edge.
func canTransition(from, to State) bool {
	for _, n := range validNext[from] {
		if n == to {
			return true
		}
	}
	return false
}

// Job is one unit of admitted work: a named workload gang-scheduled
// onto a PE subset. All fields behind mu; the gateway is the only
// writer.
type Job struct {
	mu sync.Mutex

	id       string
	name     string
	workload string
	args     json.RawMessage
	gang     int

	state State
	err   string
	// reason is the short machine-readable tag for how the job reached
	// (or will reach) its terminal state: deadline-killed, mem-killed,
	// requeue-exhausted, recovered. First writer wins, like err; cleared
	// on requeue with the rest of the attempt.
	reason string

	// Per-job resource limits, enforced by the daemon-side watchdog.
	// Zero means unlimited.
	deadline time.Duration
	maxMemMB int

	// Gang placement, valid while Admitted/Running: the participating
	// daemons in rank order and the per-daemon PE counts (the job
	// machine's NodeSizes).
	daemons   []string
	nodeSizes []int

	// Per-rank completion accounting for the current attempt.
	ranksDone int
	rankErr   string
	bytes     uint64
	// daemonLost marks the current attempt as a casualty of daemon
	// death, making the terminal decision "requeue" rather than "fail".
	daemonLost bool

	requeues int

	submitted time.Time
	admitted  time.Time
	finished  time.Time

	// jn, when the gateway runs with a state dir, receives every applied
	// transition — journaling lives inside the FSM so the record stream
	// and the in-memory machine cannot diverge, and replay is the same
	// table-driven canTransition walk in reverse. Nil without a journal
	// and during replay itself.
	jn *journal

	// log is the job's captured console output; followers are notified
	// on every append and on terminal transition. The gateway keeps
	// every job, and most are never followed, so followers is made by
	// the first follow and dropped again by the last unfollow.
	log       []logChunk
	followers map[chan struct{}]struct{}
}

// newJob builds a Queued job.
func newJob(id, name, workload string, args json.RawMessage, gang int) *Job {
	return &Job{
		id: id, name: name, workload: workload, args: args, gang: gang,
		state:     Queued,
		submitted: time.Now(),
	}
}

// transition attempts the edge to `to`, returning false if the job's
// current state does not allow it (a lost race, e.g. cancel vs done).
// Terminal states stamp the finish time and wake log followers.
func (j *Job) transition(to State) bool {
	j.mu.Lock()
	from := j.state
	ok := canTransition(j.state, to)
	if ok {
		j.state = to
		switch to {
		case Admitted:
			j.admitted = time.Now()
		case Done, Cancelled, Failed:
			j.finished = time.Now()
		}
		if j.jn != nil {
			j.jn.transition(j.id, from, to, j.err, j.reason, j.requeues)
		}
	}
	var wake []chan struct{}
	if ok && to.Terminal() {
		for ch := range j.followers {
			wake = append(wake, ch)
		}
	}
	j.mu.Unlock()
	for _, ch := range wake {
		select {
		case ch <- struct{}{}:
		default:
		}
	}
	return ok
}

// setError records the job-level failure reason (first writer wins).
func (j *Job) setError(msg string) {
	j.mu.Lock()
	if j.err == "" {
		j.err = msg
	}
	j.mu.Unlock()
}

// setReason records the job's terminal-reason tag (first writer wins).
func (j *Job) setReason(r string) {
	j.mu.Lock()
	if j.reason == "" {
		j.reason = r
	}
	j.mu.Unlock()
}

// State returns the job's current state.
func (j *Job) State() State {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.state
}

// ID returns the job's identifier.
func (j *Job) ID() string { return j.id }

// appendLog records one console chunk and wakes followers.
func (j *Job) appendLog(text string, isErr bool) {
	j.mu.Lock()
	j.log = append(j.log, logChunk{Text: text, Err: isErr})
	var wake []chan struct{}
	for ch := range j.followers {
		wake = append(wake, ch)
	}
	j.mu.Unlock()
	for _, ch := range wake {
		select {
		case ch <- struct{}{}:
		default:
		}
	}
}

// follow registers a log follower; the returned channel is signalled
// (coalesced) on appends and terminal transitions. unfollow must be
// called when done.
func (j *Job) follow() chan struct{} {
	ch := make(chan struct{}, 1)
	j.mu.Lock()
	if j.followers == nil {
		j.followers = map[chan struct{}]struct{}{}
	}
	j.followers[ch] = struct{}{}
	j.mu.Unlock()
	return ch
}

func (j *Job) unfollow(ch chan struct{}) {
	j.mu.Lock()
	delete(j.followers, ch)
	if len(j.followers) == 0 {
		j.followers = nil
	}
	j.mu.Unlock()
}

// logsFrom copies the chunks at and after index from, returning the
// new high-water index, the current state, and the error string.
func (j *Job) logsFrom(from int) (chunks []logChunk, next int, st State, errText string) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if from < len(j.log) {
		chunks = append(chunks, j.log[from:]...)
	}
	return chunks, len(j.log), j.state, j.err
}

// info snapshots the client-visible view.
func (j *Job) info() JobInfo {
	j.mu.Lock()
	defer j.mu.Unlock()
	in := JobInfo{
		ID:       j.id,
		Name:     j.name,
		Workload: j.workload,
		State:    string(j.state),
		Gang:     j.gang,
		Daemons:  append([]string(nil), j.daemons...),
		BytesMoved: j.bytes,
		Requeues:   j.requeues,
		Error:      j.err,
		Reason:     j.reason,
		DeadlineMS: float64(j.deadline) / 1e6,
		MaxMemMB:   j.maxMemMB,
	}
	if !j.admitted.IsZero() {
		in.QueueWaitMS = float64(j.admitted.Sub(j.submitted)) / 1e6
		end := j.finished
		if end.IsZero() {
			end = time.Now()
		}
		in.RuntimeMS = float64(end.Sub(j.admitted)) / 1e6
	} else if j.state == Queued {
		in.QueueWaitMS = float64(time.Since(j.submitted)) / 1e6
	}
	return in
}

// resetAttempt clears per-attempt accounting before a requeue. The
// job-level error clears too: the drained attempt's failure chatter
// (rank aborts, session-loss relays) must not mask the next attempt's
// real outcome.
func (j *Job) resetAttempt() {
	j.mu.Lock()
	j.daemons = nil
	j.nodeSizes = nil
	j.ranksDone = 0
	j.rankErr = ""
	j.daemonLost = false
	j.err = ""
	j.reason = ""
	j.mu.Unlock()
}

// String implements fmt.Stringer for diagnostics.
func (j *Job) String() string {
	j.mu.Lock()
	defer j.mu.Unlock()
	return fmt.Sprintf("job %s (%s, gang %d, %s)", j.id, j.workload, j.gang, j.state)
}
