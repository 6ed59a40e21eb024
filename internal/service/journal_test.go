package service

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"os"
	"strings"
	"testing"
	"time"

	"converse/internal/wire"
)

// journalFixture opens a journal in a fresh temp dir and returns it
// with the replayed (empty) state.
func journalFixture(t *testing.T) (*journal, string) {
	t.Helper()
	dir := t.TempDir()
	jn, st, err := openJournal(dir, t.Logf)
	if err != nil {
		t.Fatalf("opening journal: %v", err)
	}
	if len(st.jobs) != 0 || st.epoch != 0 {
		t.Fatalf("fresh journal replayed state %+v, want empty", st)
	}
	t.Cleanup(jn.close)
	return jn, dir
}

// reopen closes the journal and replays the file as a restart would.
func reopen(t *testing.T, jn *journal, dir string) (*journal, *replayed) {
	t.Helper()
	jn.close()
	jn2, st, err := openJournal(dir, t.Logf)
	if err != nil {
		t.Fatalf("reopening journal: %v", err)
	}
	t.Cleanup(jn2.close)
	return jn2, st
}

// TestJournalReplayMatchesFSM is the replay-equals-live property test:
// drive a seeded random walk of jobs through the real Job FSM with the
// journal hooked in (exactly as the gateway hooks it), then replay the
// file and require the reconstructed state to equal the live state,
// job for job.
func TestJournalReplayMatchesFSM(t *testing.T) {
	jn, dir := journalFixture(t)
	jn.epochStart(1)
	rng := rand.New(rand.NewSource(42))

	type liveJob struct {
		j       *Job
		attempt int
	}
	const nJobs = 40
	live := make([]*liveJob, 0, nJobs)
	for i := 0; i < nJobs; i++ {
		id := newID("prop")
		j := newJob(id, "prop", "pingpong", nil, 1+rng.Intn(8))
		j.jn = jn
		jn.submit(j.id, j.name, j.workload, nil, j.gang, 0, 0)
		live = append(live, &liveJob{j: j})
	}

	// Random-walk each job over the legal edges until terminal or the
	// step budget runs out, journaling assignments where the scheduler
	// would (entering Admitted).
	for _, lj := range live {
		for step := 0; step < 12 && !lj.j.State().Terminal(); step++ {
			nexts := validNext[lj.j.State()]
			to := nexts[rng.Intn(len(nexts))]
			if to == Admitted {
				lj.attempt++
				jn.assign(lj.j.id, lj.attempt, []string{"da", "db"}, []int{1, 1})
				lj.j.mu.Lock()
				lj.j.daemons = []string{"da", "db"}
				lj.j.nodeSizes = []int{1, 1}
				lj.j.mu.Unlock()
			}
			if to == Queued {
				// The live requeue path resets the attempt and spends
				// budget between Requeued and Queued.
				lj.j.resetAttempt()
				lj.j.mu.Lock()
				lj.j.requeues++
				lj.j.mu.Unlock()
			}
			if to == Failed {
				lj.j.setError("prop failure")
				lj.j.setReason("deadline-killed")
			}
			if !lj.j.transition(to) {
				t.Fatalf("legal edge %s -> %s refused", lj.j.State(), to)
			}
		}
	}

	_, st := reopen(t, jn, dir)
	if st.truncated != 0 {
		t.Fatalf("clean journal reported %d truncated bytes", st.truncated)
	}
	if st.epoch != 1 {
		t.Fatalf("replayed epoch = %d, want 1", st.epoch)
	}
	if len(st.jobs) != nJobs {
		t.Fatalf("replayed %d jobs, want %d", len(st.jobs), nJobs)
	}
	for _, lj := range live {
		pj := st.byID[lj.j.id]
		if pj == nil {
			t.Fatalf("job %s missing from replay", lj.j.id)
		}
		lj.j.mu.Lock()
		state, errText, reason, requeues := string(lj.j.state), lj.j.err, lj.j.reason, lj.j.requeues
		daemons := append([]string(nil), lj.j.daemons...)
		lj.j.mu.Unlock()
		if pj.State != state {
			t.Errorf("%s: replayed state %s, live %s", lj.j.id, pj.State, state)
		}
		if pj.Err != errText {
			t.Errorf("%s: replayed err %q, live %q", lj.j.id, pj.Err, errText)
		}
		if pj.Reason != reason {
			t.Errorf("%s: replayed reason %q, live %q", lj.j.id, pj.Reason, reason)
		}
		if pj.Requeues != requeues {
			t.Errorf("%s: replayed requeues %d, live %d", lj.j.id, pj.Requeues, requeues)
		}
		if len(pj.Daemons) != len(daemons) {
			t.Errorf("%s: replayed daemons %v, live %v", lj.j.id, pj.Daemons, daemons)
		}
		if pj.Gang != lj.j.gang || pj.Workload != lj.j.workload {
			t.Errorf("%s: identity fields drifted: %+v", lj.j.id, pj)
		}
	}
}

// TestJournalTornTailTruncated appends good records, then a torn
// half-frame as a crash mid-write would leave, and checks reopen keeps
// every whole record, discards the tail in place, and appends cleanly
// afterwards.
func TestJournalTornTailTruncated(t *testing.T) {
	jn, dir := journalFixture(t)
	jn.epochStart(3)
	jn.submit("job-1", "a", "pingpong", nil, 2, 0, 0)
	jn.submit("job-2", "b", "jacobi", nil, 4, time.Second, 64)
	jn.close()

	path := journalPath(dir)
	whole, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("reading journal: %v", err)
	}
	// A torn tail: the first half of a legitimate frame.
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatalf("opening for tear: %v", err)
	}
	var frame strings.Builder
	wire.WriteFrame(&frame, jkSubmit, []byte(`{"id":"job-3","gang":1}`))
	torn := frame.String()[:frame.Len()/2]
	if _, err := f.WriteString(torn); err != nil {
		t.Fatalf("writing torn tail: %v", err)
	}
	f.Close()

	jn2, st, err := openJournal(dir, t.Logf)
	if err != nil {
		t.Fatalf("reopening torn journal: %v", err)
	}
	defer jn2.close()
	if st.truncated != int64(len(torn)) {
		t.Errorf("truncated = %d bytes, want %d", st.truncated, len(torn))
	}
	if len(st.jobs) != 2 || st.byID["job-1"] == nil || st.byID["job-2"] == nil {
		t.Fatalf("replay lost whole records: %d jobs", len(st.jobs))
	}
	if pj := st.byID["job-2"]; pj.DeadlineMS != 1000 || pj.MaxMemMB != 64 {
		t.Errorf("job-2 limits = %d ms / %d MB, want 1000/64", pj.DeadlineMS, pj.MaxMemMB)
	}
	if got, _ := os.ReadFile(path); len(got) != len(whole) {
		t.Errorf("file is %d bytes after truncation, want %d", len(got), len(whole))
	}
	// The truncated file must accept appends at the cut.
	jn2.submit("job-3", "c", "pingpong", nil, 1, 0, 0)
	_, st3 := reopen(t, jn2, dir)
	if len(st3.jobs) != 3 || st3.truncated != 0 {
		t.Fatalf("post-truncation append replayed %d jobs (truncated %d), want 3 clean", len(st3.jobs), st3.truncated)
	}
}

// TestJournalCorruptRecordCutsStream flips a payload byte mid-file and
// checks replay keeps everything before the bad record and discards it
// and everything after — the CRC catches silent disk corruption.
func TestJournalCorruptRecordCutsStream(t *testing.T) {
	jn, dir := journalFixture(t)
	jn.epochStart(1)
	jn.submit("keep-1", "a", "pingpong", nil, 1, 0, 0)
	mark, err := os.Stat(journalPath(dir))
	if err != nil {
		t.Fatalf("stat: %v", err)
	}
	jn.submit("corrupt-me", "b", "pingpong", nil, 1, 0, 0)
	jn.submit("after", "c", "pingpong", nil, 1, 0, 0)
	jn.close()

	data, err := os.ReadFile(journalPath(dir))
	if err != nil {
		t.Fatalf("read: %v", err)
	}
	// Flip one byte inside corrupt-me's payload (past its 9-byte header).
	data[mark.Size()+wire.HdrLen+4] ^= 0xff
	if err := os.WriteFile(journalPath(dir), data, 0o644); err != nil {
		t.Fatalf("rewrite: %v", err)
	}

	jn2, st, err := openJournal(dir, t.Logf)
	if err != nil {
		t.Fatalf("reopening corrupt journal: %v", err)
	}
	defer jn2.close()
	if len(st.jobs) != 1 || st.byID["keep-1"] == nil {
		t.Fatalf("replay kept %d jobs, want only keep-1", len(st.jobs))
	}
	if st.truncated != int64(len(data))-mark.Size() {
		t.Errorf("truncated = %d, want %d", st.truncated, int64(len(data))-mark.Size())
	}
}

// TestJournalCompactionPreservesState snapshots mid-history and checks
// a replay of the compacted file plus later appends equals the
// uncompacted outcome.
func TestJournalCompactionPreservesState(t *testing.T) {
	jn, dir := journalFixture(t)
	jn.epochStart(2)
	jn.submit("old", "a", "pingpong", nil, 2, 0, 0)
	jn.transition("old", Queued, Admitted, "", "", 0)
	jn.transition("old", Admitted, Running, "", "", 0)
	jn.transition("old", Running, Done, "", "", 0)

	jn.compact(2, []persistedJob{{
		ID: "old", Name: "a", Workload: "pingpong", Gang: 2, State: string(Done),
	}})
	jn.submit("new", "b", "jacobi", nil, 1, 0, 0)
	jn.shutdown()

	_, st := reopen(t, jn, dir)
	if !st.clean {
		t.Errorf("clean = false after shutdown record")
	}
	if st.epoch != 2 {
		t.Errorf("epoch = %d, want 2", st.epoch)
	}
	if len(st.jobs) != 2 {
		t.Fatalf("replayed %d jobs, want 2 (snapshot + append)", len(st.jobs))
	}
	if pj := st.byID["old"]; pj == nil || pj.State != string(Done) {
		t.Errorf("snapshot job old = %+v, want done", st.byID["old"])
	}
	if pj := st.byID["new"]; pj == nil || pj.State != string(Queued) {
		t.Errorf("appended job new = %+v, want queued", st.byID["new"])
	}
}

// TestSnapshotEncodingMatchesMarshal holds compaction's job-by-job
// snapshot encoder to the bytes json.Marshal gives the whole record,
// for fields that need escaping, raw args, and the empty and nil job
// lists, and replays a compacted file written with it.
func TestSnapshotEncodingMatchesMarshal(t *testing.T) {
	odd := persistedJob{
		ID: "j\"1\\", Name: "<a&b> \n\t\x01é", Workload: "ping\"pong",
		Args: json.RawMessage(` { "bytes" : 64, "s": "<x>" } `), Gang: 3, DeadlineMS: 1500,
		MaxMemMB: 64, State: string(Failed), Err: "rank 1: \"boom\"\n", Reason: "deadline",
		Requeues: 2, Attempt: 3, Daemons: []string{"w\u00001", "gw"}, Sizes: []int{2, 1},
		SubmittedMS: 1700000000123,
	}
	plain := persistedJob{ID: "j2", Name: "b", Workload: "jacobi", Gang: 1, State: string(Queued)}
	for _, jobs := range [][]persistedJob{nil, {}, {plain}, {odd, plain, odd}} {
		want, err := json.Marshal(jSnapshotRec{Epoch: 7, Jobs: jobs})
		if err != nil {
			t.Fatal(err)
		}
		got, err := encodeSnapshot(7, jobs)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%d jobs:\n got %s\nwant %s", len(jobs), got, want)
		}
	}

	jn, dir := journalFixture(t)
	jn.compact(7, []persistedJob{odd, plain})
	_, st := reopen(t, jn, dir)
	if st.epoch != 7 || len(st.jobs) != 2 {
		t.Fatalf("replayed epoch %d with %d jobs, want 7 and 2", st.epoch, len(st.jobs))
	}
	got := *st.byID[odd.ID]
	gb, _ := json.Marshal(got)
	wb, _ := json.Marshal(odd)
	if !bytes.Equal(gb, wb) {
		t.Errorf("replayed job\n got %s\nwant %s", gb, wb)
	}
}
