package service

import (
	"testing"
	"time"
)

// TestStateMachineEdges is the table-driven check of the job state
// machine: every legal edge transitions, every other pair refuses.
func TestStateMachineEdges(t *testing.T) {
	all := []State{Queued, Admitted, Running, Requeued, Recovering, Done, Cancelled, Failed}
	legal := map[State]map[State]bool{
		Queued:     {Admitted: true, Cancelled: true, Failed: true},
		Admitted:   {Running: true, Requeued: true, Recovering: true, Done: true, Cancelled: true, Failed: true},
		Running:    {Done: true, Requeued: true, Recovering: true, Cancelled: true, Failed: true},
		Requeued:   {Queued: true, Cancelled: true, Failed: true},
		Recovering: {Running: true, Requeued: true, Done: true, Cancelled: true, Failed: true},
		// Done, Cancelled, Failed: terminal, no exits.
	}
	for _, from := range all {
		for _, to := range all {
			want := legal[from][to]
			if got := canTransition(from, to); got != want {
				t.Errorf("canTransition(%s, %s) = %v, want %v", from, to, got, want)
			}
			// The core's move must agree with canTransition, and journal
			// exactly the edges it takes.
			f := newFleet()
			j := &Job{ID: "t", State: from}
			f.add(j)
			if got := f.move(j, to, "", "", time.Now()); got != want {
				t.Errorf("move %s -> %s = %v, want %v", from, to, got, want)
			}
			if want && (j.State != to || len(f.recs) != 1) {
				t.Errorf("after %s -> %s, state = %s with %d records", from, to, j.State, len(f.recs))
			}
			if !want && (j.State != from || len(f.recs) != 0) {
				t.Errorf("refused %s -> %s must not move, state = %s with %d records", from, to, j.State, len(f.recs))
			}
		}
	}
}

// TestTerminalStates pins down which states are final.
func TestTerminalStates(t *testing.T) {
	for st, want := range map[State]bool{
		Queued: false, Admitted: false, Running: false, Requeued: false,
		Recovering: false,
		Done:       true, Cancelled: true, Failed: true,
	} {
		if st.Terminal() != want {
			t.Errorf("%s.Terminal() = %v, want %v", st, st.Terminal(), want)
		}
	}
}

// TestLifecyclePaths walks the full legal paths end to end, including
// the requeue loop.
func TestLifecyclePaths(t *testing.T) {
	paths := [][]State{
		{Admitted, Running, Done},
		{Admitted, Running, Failed},
		{Cancelled},
		{Admitted, Running, Requeued, Queued, Admitted, Running, Done},
		{Admitted, Requeued, Queued, Admitted, Running, Cancelled},
		{Admitted, Running, Recovering, Running, Done},
		{Admitted, Recovering, Requeued, Queued, Admitted, Running, Done},
		{Admitted, Running, Recovering, Failed},
	}
	for _, path := range paths {
		f := newFleet()
		j := &Job{ID: "t", State: Queued}
		f.add(j)
		for i, to := range path {
			if !f.move(j, to, "", "", time.Now()) {
				t.Fatalf("path %v: step %d (%s -> %s) refused", path, i, j.State, to)
			}
		}
	}
}

// TestCancelRaces resolves cancel vs completion from Running in both
// orders the gateway's lock can serialise them: exactly one terminal
// transition must land, and the state must equal whichever came first.
func TestCancelRaces(t *testing.T) {
	for _, cancelFirst := range []bool{false, true} {
		f := testFleet()
		now := time.Now()
		f.join("d", 2, nil, now)
		submitJob(t, f, "j", 2, now)
		at := f.attempts["j"]
		if at == nil {
			t.Fatal("job not placed")
		}
		complete := func() {
			f.update(updateMsg{Job: "j", Attempt: at.seq, Rank: 0, OK: true}, now)
		}
		if cancelFirst {
			f.cancel("j", "cancelled by client", now)
			complete()
		} else {
			complete()
			f.cancel("j", "cancelled by client", now)
		}
		var terminal []string
		for _, rec := range f.recs {
			if tr, ok := rec.(jTransRec); ok && State(tr.To).Terminal() {
				terminal = append(terminal, tr.To)
			}
		}
		want := Done
		if cancelFirst {
			want = Cancelled
		}
		if len(terminal) != 1 || f.jobs["j"].State != want {
			t.Fatalf("cancel first %v: terminal edges %v, state %s; want exactly one, %s",
				cancelFirst, terminal, f.jobs["j"].State, want)
		}
		if len(f.attempts) != 0 || f.daemons["d"].busy != 0 {
			t.Fatalf("cancel first %v: %d attempts held, %d slots busy after the drain", cancelFirst, len(f.attempts), f.daemons["d"].busy)
		}
	}
}

// TestResetAttemptClearsAccounting checks a requeue starts the next
// attempt clean: placement, rank accounting, and the error are reset,
// while requeues and moved-bytes survive (bytes are cumulative).
func TestResetAttemptClearsAccounting(t *testing.T) {
	f := testFleet()
	now := time.Now()
	f.join("a", 2, nil, now)
	f.join("b", 2, nil, now)
	submitJob(t, f, "j", 4, now)
	j, at := f.jobs["j"], f.attempts["j"]
	if len(j.Daemons) != 2 || at == nil {
		t.Fatalf("job not placed over both daemons: %+v", j)
	}
	f.ctlFailed("j", at.seq, "attempt 1 chatter")
	f.update(updateMsg{Job: "j", Attempt: at.seq, Rank: 0, OK: false, Error: "boom", SentBytes: 100}, now)
	f.leave("b", "killed", now)

	if j.State != Queued || j.Requeues != 1 {
		t.Fatalf("after losing daemon b: state %s, requeues %d; want queued, 1", j.State, j.Requeues)
	}
	if j.Daemons != nil || j.Sizes != nil || j.Err != "" || j.Reason != "" || f.attempts["j"] != nil {
		t.Errorf("requeue left the attempt behind: %+v, attempt %+v", j, f.attempts["j"])
	}
	if j.bytes != 100 {
		t.Errorf("bytes = %d, want cumulative 100", j.bytes)
	}
	f.join("c", 2, nil, now)
	f.schedule(now)
	next := f.attempts["j"]
	if next == nil || next.seq != 2 || next.left != 2 || next.lost || next.err != "" || next.rankErr != "" {
		t.Errorf("next attempt not clean: %+v", next)
	}
}

// TestDoneRingKeepsNewestInOrder fills a daemon's finished-result ring
// far past capacity: the resume state must carry the newest
// finishedRingCap results, oldest first, and buffering one must not
// allocate once the ring exists.
func TestDoneRingKeepsNewestInOrder(t *testing.T) {
	d := &Daemon{}
	const calls = 1000
	for i := 0; i < calls; i++ {
		d.bufferDone(updateMsg{Job: "j", Rank: i})
	}
	resume, n, _, _ := d.resumeState()
	if n != finishedRingCap || len(resume) != finishedRingCap {
		t.Fatalf("resume holds %d entries (%d finished), want %d", len(resume), n, finishedRingCap)
	}
	for i, e := range resume {
		if want := calls - finishedRingCap + i; e.Rank != want || e.Running {
			t.Fatalf("entry %d is rank %d (running %v), want finished rank %d", i, e.Rank, e.Running, want)
		}
	}
	// A confirmed register prunes the entries it carried; the rest keep
	// their order.
	d.done.drop(250)
	d.bufferDone(updateMsg{Job: "j", Rank: calls})
	if got := d.done.appendTo(nil); len(got) != 7 || got[0].Rank != calls-6 || got[6].Rank != calls {
		t.Fatalf("after pruning 250: %+v", got)
	}
	u := updateMsg{Job: "j", Rank: 1}
	if a := testing.AllocsPerRun(100, func() { d.bufferDone(u) }); a != 0 {
		t.Fatalf("bufferDone allocates %v times per call, want 0", a)
	}
}

// TestFollowersMadeOnDemand: an unfollowed job's log carries no
// followers map, and the last unfollow drops it again.
func TestFollowersMadeOnDemand(t *testing.T) {
	g := &Gateway{f: testFleet(), logs: map[string]*jobLog{}}
	g.f.join("d", 2, nil, time.Now())
	submitJob(t, g.f, "j1", 2, time.Now())
	g.appendLog("j1", "first", false)
	if g.logs["j1"].followers != nil {
		t.Fatal("a job's log allocated its followers map before any follow")
	}
	a, b := make(chan struct{}, 1), make(chan struct{}, 1)
	for _, ch := range []chan struct{}{a, b} {
		if err := g.follow("j1", ch, true); err != nil {
			t.Fatal(err)
		}
	}
	g.appendLog("j1", "x", false)
	for _, ch := range []chan struct{}{a, b} {
		select {
		case <-ch:
		default:
			t.Fatal("a follower was not woken by a log append")
		}
	}
	g.follow("j1", a, false)
	if len(g.logs["j1"].followers) != 1 {
		t.Fatalf("%d followers after one unfollow, want 1", len(g.logs["j1"].followers))
	}
	g.follow("j1", b, false)
	if g.logs["j1"].followers != nil {
		t.Fatal("followers map kept after the last unfollow")
	}
	if err := g.follow("nope", a, true); err == nil {
		t.Fatal("following an unknown job succeeded")
	}
}
