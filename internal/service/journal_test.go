package service

import (
	"bytes"
	"encoding/json"
	"os"
	"strings"
	"testing"
	"time"

	"converse/internal/wire"
)

// journalFixture opens a journal in a fresh temp dir and returns it
// with its dir, checking the replayed state is empty.
func journalFixture(t *testing.T) (*journal, string) {
	t.Helper()
	dir := t.TempDir()
	jn, f, err := openJournal(dir, t.Logf)
	if err != nil {
		t.Fatalf("opening journal: %v", err)
	}
	if len(f.order) != 0 || f.epoch != 0 {
		t.Fatalf("fresh journal replayed %d jobs at epoch %d, want none", len(f.order), f.epoch)
	}
	t.Cleanup(jn.close)
	return jn, dir
}

// reopen closes the journal and replays the file as a restart would.
func reopen(t *testing.T, jn *journal, dir string) (*journal, *fleet) {
	t.Helper()
	jn.close()
	jn2, f, err := openJournal(dir, t.Logf)
	if err != nil {
		t.Fatalf("reopening journal: %v", err)
	}
	t.Cleanup(jn2.close)
	return jn2, f
}

func submitRec(id, name, workload string, gang int) jSubmitRec {
	return jSubmitRec{ID: id, Name: name, Workload: workload, Gang: gang}
}

// TestJournalTornTailTruncated appends good records, then a torn
// half-frame as a crash mid-write would leave, and checks reopen keeps
// every whole record, discards the tail in place, and appends cleanly
// afterwards.
func TestJournalTornTailTruncated(t *testing.T) {
	jn, dir := journalFixture(t)
	jn.append(jEpochRec{Epoch: 3})
	jn.append(submitRec("job-1", "a", "pingpong", 2))
	jn.append(jSubmitRec{ID: "job-2", Name: "b", Workload: "jacobi", Gang: 4, DeadlineMS: 1000, MaxMemMB: 64})
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

	if _, n := replayRecords(append(whole, torn...), t.Logf); n != int64(len(torn)) {
		t.Errorf("truncated = %d bytes, want %d", n, len(torn))
	}
	jn2, st, err := openJournal(dir, t.Logf)
	if err != nil {
		t.Fatalf("reopening torn journal: %v", err)
	}
	defer jn2.close()
	if len(st.order) != 2 || st.jobs["job-1"] == nil || st.jobs["job-2"] == nil {
		t.Fatalf("replay lost whole records: %d jobs", len(st.order))
	}
	if j := st.jobs["job-2"]; j.DeadlineMS != 1000 || j.MaxMemMB != 64 {
		t.Errorf("job-2 limits = %d ms / %d MB, want 1000/64", j.DeadlineMS, j.MaxMemMB)
	}
	if got, _ := os.ReadFile(path); len(got) != len(whole) {
		t.Errorf("file is %d bytes after truncation, want %d", len(got), len(whole))
	}
	// The truncated file must accept appends at the cut.
	jn2.append(submitRec("job-3", "c", "pingpong", 1))
	jn2.close()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if st3, n := replayRecords(data, t.Logf); len(st3.order) != 3 || n != 0 {
		t.Fatalf("post-truncation append replayed %d jobs (truncated %d), want 3 clean", len(st3.order), n)
	}
}

// TestJournalCorruptRecordCutsStream flips a payload byte mid-file and
// checks replay keeps everything before the bad record and discards it
// and everything after — the CRC catches silent disk corruption.
func TestJournalCorruptRecordCutsStream(t *testing.T) {
	jn, dir := journalFixture(t)
	jn.append(jEpochRec{Epoch: 1})
	jn.append(submitRec("keep-1", "a", "pingpong", 1))
	mark, err := os.Stat(journalPath(dir))
	if err != nil {
		t.Fatalf("stat: %v", err)
	}
	jn.append(submitRec("corrupt-me", "b", "pingpong", 1))
	jn.append(submitRec("after", "c", "pingpong", 1))
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

	st, n := replayRecords(data, t.Logf)
	if len(st.order) != 1 || st.jobs["keep-1"] == nil {
		t.Fatalf("replay kept %d jobs, want only keep-1", len(st.order))
	}
	if n != int64(len(data))-mark.Size() {
		t.Errorf("truncated = %d, want %d", n, int64(len(data))-mark.Size())
	}
	jn2, _, err := openJournal(dir, t.Logf)
	if err != nil {
		t.Fatalf("reopening corrupt journal: %v", err)
	}
	defer jn2.close()
	if fi, err := os.Stat(journalPath(dir)); err != nil || fi.Size() != mark.Size() {
		t.Errorf("corrupt journal not cut back to its last whole record (%v)", err)
	}
}

// TestJournalCompactionPreservesState snapshots mid-history and checks
// a replay of the compacted file plus later appends equals the
// uncompacted outcome.
func TestJournalCompactionPreservesState(t *testing.T) {
	jn, dir := journalFixture(t)
	jn.append(jEpochRec{Epoch: 2})
	jn.append(submitRec("old", "a", "pingpong", 2))
	jn.append(jTransRec{ID: "old", From: string(Queued), To: string(Admitted)})
	jn.append(jTransRec{ID: "old", From: string(Admitted), To: string(Running)})
	jn.append(jTransRec{ID: "old", From: string(Running), To: string(Done)})

	jn.compact(2, []*Job{{ID: "old", Name: "a", Workload: "pingpong", Gang: 2, State: Done}}, time.Now())
	jn.append(submitRec("new", "b", "jacobi", 1))
	jn.append(jShutdownRec{})

	_, st := reopen(t, jn, dir)
	if !st.clean {
		t.Errorf("clean = false after shutdown record")
	}
	if st.epoch != 2 {
		t.Errorf("epoch = %d, want 2", st.epoch)
	}
	if len(st.order) != 2 {
		t.Fatalf("replayed %d jobs, want 2 (snapshot + append)", len(st.order))
	}
	if j := st.jobs["old"]; j == nil || j.State != Done {
		t.Errorf("snapshot job old = %+v, want done", st.jobs["old"])
	}
	if j := st.jobs["new"]; j == nil || j.State != Queued {
		t.Errorf("appended job new = %+v, want queued", st.jobs["new"])
	}
}

// TestSnapshotEncodingMatchesMarshal holds compaction's job-by-job
// snapshot encoder to the bytes json.Marshal gives the whole record,
// for fields that need escaping, raw args, and the empty and nil job
// lists, and replays a compacted file written with it.
func TestSnapshotEncodingMatchesMarshal(t *testing.T) {
	odd := &Job{
		ID: "j\"1\\", Name: "<a&b> \n\t\x01é", Workload: "ping\"pong",
		Args: json.RawMessage(` { "bytes" : 64, "s": "<x>" } `), Gang: 3, DeadlineMS: 1500,
		MaxMemMB: 64, State: Failed, Err: "rank 1: \"boom\"\n", Reason: "deadline",
		Requeues: 2, Attempt: 3, Daemons: []string{"w\u00001", "gw"}, Sizes: []int{2, 1},
		SubmittedMS: 1700000000123,
	}
	plain := &Job{ID: "j2", Name: "b", Workload: "jacobi", Gang: 1, State: Queued}
	for _, jobs := range [][]*Job{nil, {}, {plain}, {odd, plain, odd}} {
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
	jn.compact(7, []*Job{odd, plain}, time.Now())
	_, st := reopen(t, jn, dir)
	if st.epoch != 7 || len(st.order) != 2 {
		t.Fatalf("replayed epoch %d with %d jobs, want 7 and 2", st.epoch, len(st.order))
	}
	gb, _ := json.Marshal(st.jobs[odd.ID])
	wb, _ := json.Marshal(odd)
	if !bytes.Equal(gb, wb) {
		t.Errorf("replayed job\n got %s\nwant %s", gb, wb)
	}
}
