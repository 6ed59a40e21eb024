package service

import (
	"sync"
	"testing"
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
			// transition() must agree with canTransition().
			j := newJob("t", "t", "pingpong", nil, 1)
			j.mu.Lock()
			j.state = from
			j.mu.Unlock()
			if got := j.transition(to); got != want {
				t.Errorf("transition %s -> %s = %v, want %v", from, to, got, want)
			}
			if want && j.State() != to {
				t.Errorf("after %s -> %s, state = %s", from, to, j.State())
			}
			if !want && j.State() != from {
				t.Errorf("refused %s -> %s must not move, state = %s", from, to, j.State())
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
		j := newJob("t", "t", "pingpong", nil, 1)
		for i, to := range path {
			if !j.transition(to) {
				t.Fatalf("path %v: step %d (%s -> %s) refused", path, i, j.State(), to)
			}
		}
	}
}

// TestCancelRaces resolves cancel vs completion concurrently from
// Running: exactly one terminal transition must land, and the state
// must equal whichever won.
func TestCancelRaces(t *testing.T) {
	for i := 0; i < 200; i++ {
		j := newJob("t", "t", "pingpong", nil, 1)
		j.transition(Admitted)
		j.transition(Running)
		var wg sync.WaitGroup
		results := make([]bool, 2)
		wg.Add(2)
		go func() { defer wg.Done(); results[0] = j.transition(Done) }()
		go func() { defer wg.Done(); results[1] = j.transition(Cancelled) }()
		wg.Wait()
		if results[0] == results[1] {
			t.Fatalf("cancel race: done=%v cancelled=%v, want exactly one winner", results[0], results[1])
		}
		st := j.State()
		if (results[0] && st != Done) || (results[1] && st != Cancelled) {
			t.Fatalf("cancel race: winner done=%v cancelled=%v but state=%s", results[0], results[1], st)
		}
	}
}

// TestResetAttemptClearsAccounting checks a requeue starts the next
// attempt clean: placement, rank accounting, and the error are reset,
// while requeues and moved-bytes survive (bytes are cumulative).
func TestResetAttemptClearsAccounting(t *testing.T) {
	j := newJob("t", "t", "pingpong", nil, 4)
	j.transition(Admitted)
	j.transition(Running)
	j.mu.Lock()
	j.daemons = []string{"a", "b"}
	j.nodeSizes = []int{2, 2}
	j.ranksDone = 2
	j.rankErr = "boom"
	j.daemonLost = true
	j.bytes = 100
	j.mu.Unlock()
	j.setError("attempt 1 chatter")

	j.transition(Requeued)
	j.resetAttempt()

	j.mu.Lock()
	defer j.mu.Unlock()
	if j.daemons != nil || j.nodeSizes != nil || j.ranksDone != 0 ||
		j.rankErr != "" || j.daemonLost || j.err != "" {
		t.Errorf("resetAttempt left state behind: %+v", j)
	}
	if j.bytes != 100 {
		t.Errorf("bytes = %d, want cumulative 100", j.bytes)
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

// TestFollowersMadeOnDemand: an unfollowed job carries no followers
// map, and the last unfollow drops it again.
func TestFollowersMadeOnDemand(t *testing.T) {
	j := newJob("j1", "n", "pingpong", nil, 2)
	if j.followers != nil {
		t.Fatal("a new job allocated its followers map")
	}
	a, b := j.follow(), j.follow()
	j.appendLog("x", false)
	for _, ch := range []chan struct{}{a, b} {
		select {
		case <-ch:
		default:
			t.Fatal("a follower was not woken by a log append")
		}
	}
	j.unfollow(a)
	if len(j.followers) != 1 {
		t.Fatalf("%d followers after one unfollow, want 1", len(j.followers))
	}
	j.unfollow(b)
	if j.followers != nil {
		t.Fatal("followers map kept after the last unfollow")
	}
}
