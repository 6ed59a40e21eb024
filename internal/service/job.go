package service

import (
	"encoding/json"
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
// onto a PE subset. It is a plain record owned by the gateway core
// (fleet.go), which changes its exported fields only by applying
// journal records; its JSON is the job's entry in a snapshot record.
type Job struct {
	ID       string          `json:"id"`
	Name     string          `json:"name"`
	Workload string          `json:"workload"`
	Args     json.RawMessage `json:"args,omitempty"`
	Gang     int             `json:"gang"`
	// Per-job resource limits, enforced by the daemon-side watchdog.
	// Zero means unlimited.
	DeadlineMS int64 `json:"deadline_ms,omitempty"`
	MaxMemMB   int   `json:"max_mem_mb,omitempty"`

	State State  `json:"state"`
	Err   string `json:"err,omitempty"`
	// Reason is the short machine-readable tag for how the job reached
	// (or will reach) its terminal state: deadline-killed, mem-killed,
	// requeue-exhausted, recovered. Cleared on requeue with the rest of
	// the attempt.
	Reason   string `json:"reason,omitempty"`
	Requeues int    `json:"requeues,omitempty"`
	// Attempt, Daemons and Sizes are the latest placement: its attempt
	// number, the participating daemons in rank order, and the
	// per-daemon PE counts (the job machine's NodeSizes).
	Attempt     int      `json:"attempt,omitempty"`
	Daemons     []string `json:"daemons,omitempty"`
	Sizes       []int    `json:"sizes,omitempty"`
	SubmittedMS int64    `json:"submitted_ms"`

	// Not journaled: full-precision stamps for the client view (Unix
	// nanoseconds, 0 unset: every job the gateway ever ran keeps them,
	// and a time.Time is three times the size), the bytes moved over
	// every attempt, and the latest attempt's stage times (its slowest
	// rank's; see JobStages).
	submitted, admitted, finished int64
	bytes                         uint64
	stages                        JobStages
}

// info snapshots the client-visible view at time now.
func (j *Job) info(now time.Time) JobInfo {
	in := JobInfo{
		ID:         j.ID,
		Name:       j.Name,
		Workload:   j.Workload,
		State:      string(j.State),
		Gang:       j.Gang,
		Daemons:    append([]string(nil), j.Daemons...),
		BytesMoved: j.bytes,
		Requeues:   j.Requeues,
		Error:      j.Err,
		Reason:     j.Reason,
		DeadlineMS: float64(j.DeadlineMS),
		MaxMemMB:   j.MaxMemMB,
	}
	if j.stages.total() > 0 {
		st := j.stages
		in.Stages = &st
	}
	if j.admitted != 0 {
		in.QueueWaitMS = float64(j.admitted-j.submitted) / 1e6
		end := j.finished
		if end == 0 {
			end = now.UnixNano()
		}
		in.RuntimeMS = float64(end-j.admitted) / 1e6
	} else if j.State == Queued {
		in.QueueWaitMS = float64(now.UnixNano()-j.submitted) / 1e6
	}
	return in
}
