package service

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"
	"time"

	"converse/internal/wire"
)

// The gateway journal is an append-only log of job lifecycle records in
// the shared internal/wire framing (length + kind + crc32c + JSON
// payload), one file per state dir. Every record the journal will ever
// need to replay is a submit, an FSM transition, or an attempt
// placement — the write side hooks Job.transition, so the log is by
// construction a trace the live state machine accepted, and replay is
// the same canTransition table walked forward. Periodic compaction
// rewrites the file as one snapshot record so the log stays bounded by
// the job table, not the job history.
//
// Durability model: records go straight to the file descriptor (no
// userspace buffering), which survives any process death; fsync is
// reserved for compaction's rename, so a machine-wide power loss may
// cost recent records but never the file's integrity — the CRC framing
// lets replay truncate a torn tail and carry on from the last whole
// record.

// Journal record kinds. Disjoint from every network plane (mnet 1..16,
// ccs 64..68, service 96..115) so a journal file fed to a frame reader
// of the wrong plane fails loudly.
const (
	jkEpoch    = 120 // jEpochRec: a gateway incarnation began
	jkSubmit   = 121 // jSubmitRec: job accepted into the backlog
	jkTrans    = 122 // jTransRec: one FSM edge
	jkAssign   = 123 // jAssignRec: attempt placement (daemons + sizes)
	jkSnapshot = 124 // jSnapshotRec: compacted full state
	jkShutdown = 125 // jShutdownRec: clean drain; anything after is a lie
)

type jEpochRec struct {
	Epoch int64 `json:"epoch"`
	AtMS  int64 `json:"at_ms"`
}

type jSubmitRec struct {
	ID          string          `json:"id"`
	Name        string          `json:"name"`
	Workload    string          `json:"workload"`
	Args        json.RawMessage `json:"args,omitempty"`
	Gang        int             `json:"gang"`
	DeadlineMS  int64           `json:"deadline_ms,omitempty"`
	MaxMemMB    int             `json:"max_mem_mb,omitempty"`
	SubmittedMS int64           `json:"submitted_ms"`
}

type jTransRec struct {
	ID       string `json:"id"`
	From     string `json:"from"`
	To       string `json:"to"`
	Err      string `json:"err,omitempty"`
	Reason   string `json:"reason,omitempty"`
	Requeues int    `json:"requeues,omitempty"`
	AtMS     int64  `json:"at_ms"`
}

type jAssignRec struct {
	ID      string   `json:"id"`
	Attempt int      `json:"attempt"`
	Daemons []string `json:"daemons"`
	Sizes   []int    `json:"sizes"`
}

// persistedJob is one job's replayable state, used both inside
// snapshot records and as replay's output.
type persistedJob struct {
	ID          string          `json:"id"`
	Name        string          `json:"name"`
	Workload    string          `json:"workload"`
	Args        json.RawMessage `json:"args,omitempty"`
	Gang        int             `json:"gang"`
	DeadlineMS  int64           `json:"deadline_ms,omitempty"`
	MaxMemMB    int             `json:"max_mem_mb,omitempty"`
	State       string          `json:"state"`
	Err         string          `json:"err,omitempty"`
	Reason      string          `json:"reason,omitempty"`
	Requeues    int             `json:"requeues,omitempty"`
	Attempt     int             `json:"attempt,omitempty"`
	Daemons     []string        `json:"daemons,omitempty"`
	Sizes       []int           `json:"sizes,omitempty"`
	SubmittedMS int64           `json:"submitted_ms"`
}

type jSnapshotRec struct {
	Epoch int64          `json:"epoch"`
	Jobs  []persistedJob `json:"jobs"`
}

type jShutdownRec struct {
	AtMS int64 `json:"at_ms"`
}

// replayed is the journal's reconstruction of gateway state.
type replayed struct {
	epoch int64
	clean bool // last record was a clean-shutdown marker
	jobs  []*persistedJob
	byID  map[string]*persistedJob
	// truncated reports how many trailing bytes replay discarded as a
	// torn or corrupt tail (0 for a whole file).
	truncated int64
}

// compactEvery is the append count that triggers a snapshot rewrite.
const compactEvery = 4096

// journal is the append handle. All methods are safe for concurrent
// use; appends happen under job or gateway locks, so the journal takes
// no locks of its own beyond mu (lock order: g.mu -> j.mu -> jn.mu).
type journal struct {
	mu      sync.Mutex
	f       *os.File
	path    string
	appends int
	logf    func(string, ...any)
}

// journalPath returns the journal file inside a state dir.
func journalPath(dir string) string { return filepath.Join(dir, "journal") }

// openJournal replays any existing journal in dir (truncating a torn
// tail in place) and opens it for appending. The state dir is created
// if missing.
func openJournal(dir string, logf func(string, ...any)) (*journal, *replayed, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, nil, fmt.Errorf("service: creating state dir: %w", err)
	}
	if logf == nil {
		logf = func(string, ...any) {}
	}
	path := journalPath(dir)
	data, err := os.ReadFile(path)
	if err != nil && !errors.Is(err, os.ErrNotExist) {
		return nil, nil, fmt.Errorf("service: reading journal: %w", err)
	}
	st := replayRecords(data, logf)
	if st.truncated > 0 {
		logf("service: journal: discarding %d-byte torn tail (%d bytes good)",
			st.truncated, int64(len(data))-st.truncated)
		if err := os.Truncate(path, int64(len(data))-st.truncated); err != nil {
			return nil, nil, fmt.Errorf("service: truncating torn journal tail: %w", err)
		}
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, nil, fmt.Errorf("service: opening journal: %w", err)
	}
	return &journal{f: f, path: path, logf: logf}, st, nil
}

// replayRecords walks the record stream and rebuilds gateway state.
// Decode or checksum failure mid-stream truncates there: everything
// after a bad record is unordered noise. Transitions replay through the
// same canTransition table the live FSM uses; an illegal recorded edge
// (impossible unless the file was edited) is dropped with a log line
// rather than corrupting the rebuilt state.
func replayRecords(data []byte, logf func(string, ...any)) *replayed {
	st := &replayed{byID: map[string]*persistedJob{}}
	r := bytes.NewReader(data)
	good := int64(0) // bytes consumed through the last whole record
	for {
		k, payload, err := wire.ReadFrame(r)
		if err != nil {
			if !errors.Is(err, io.EOF) || int64(len(data))-good != 0 {
				st.truncated = int64(len(data)) - good
			}
			return st
		}
		if !st.apply(k, payload, logf) {
			st.truncated = int64(len(data)) - good
			return st
		}
		good = int64(len(data)) - int64(r.Len())
	}
}

// apply folds one record into the replay state; false means the record
// failed to decode and the stream must be cut here.
func (st *replayed) apply(k byte, payload []byte, logf func(string, ...any)) bool {
	st.clean = false
	switch k {
	case jkEpoch:
		var rec jEpochRec
		if json.Unmarshal(payload, &rec) != nil {
			return false
		}
		if rec.Epoch > st.epoch {
			st.epoch = rec.Epoch
		}
	case jkSubmit:
		var rec jSubmitRec
		if json.Unmarshal(payload, &rec) != nil {
			return false
		}
		if _, dup := st.byID[rec.ID]; dup {
			logf("service: journal: duplicate submit %s ignored", rec.ID)
			return true
		}
		pj := &persistedJob{
			ID: rec.ID, Name: rec.Name, Workload: rec.Workload, Args: rec.Args,
			Gang: rec.Gang, DeadlineMS: rec.DeadlineMS, MaxMemMB: rec.MaxMemMB,
			State: string(Queued), SubmittedMS: rec.SubmittedMS,
		}
		st.byID[rec.ID] = pj
		st.jobs = append(st.jobs, pj)
	case jkTrans:
		var rec jTransRec
		if json.Unmarshal(payload, &rec) != nil {
			return false
		}
		pj := st.byID[rec.ID]
		if pj == nil {
			logf("service: journal: transition for unknown job %s ignored", rec.ID)
			return true
		}
		if !canTransition(State(pj.State), State(rec.To)) {
			logf("service: journal: illegal edge %s -> %s for %s ignored", pj.State, rec.To, rec.ID)
			return true
		}
		pj.State = rec.To
		pj.Err = rec.Err
		pj.Reason = rec.Reason
		pj.Requeues = rec.Requeues
		if State(rec.To) == Queued {
			// Requeued -> Queued starts a fresh attempt: stale placement
			// must not leak into the next one.
			pj.Daemons, pj.Sizes = nil, nil
			pj.Err, pj.Reason = "", ""
		}
	case jkAssign:
		var rec jAssignRec
		if json.Unmarshal(payload, &rec) != nil {
			return false
		}
		if pj := st.byID[rec.ID]; pj != nil {
			pj.Attempt = rec.Attempt
			pj.Daemons = rec.Daemons
			pj.Sizes = rec.Sizes
		}
	case jkSnapshot:
		var rec jSnapshotRec
		if json.Unmarshal(payload, &rec) != nil {
			return false
		}
		st.epoch = rec.Epoch
		st.jobs = st.jobs[:0]
		st.byID = map[string]*persistedJob{}
		for i := range rec.Jobs {
			pj := rec.Jobs[i]
			st.byID[pj.ID] = &pj
			st.jobs = append(st.jobs, &pj)
		}
	case jkShutdown:
		var rec jShutdownRec
		if json.Unmarshal(payload, &rec) != nil {
			return false
		}
		st.clean = true
	default:
		logf("service: journal: unknown record kind %d, truncating here", k)
		return false
	}
	return true
}

// append frames and writes one record. Failures are logged, not
// returned: a journal write error must degrade durability, not take
// down the running control plane.
func (jn *journal) append(k byte, rec any) {
	if jn == nil {
		return
	}
	b, err := json.Marshal(rec)
	if err != nil {
		//lint:ignore lockdiscipline logf is set once in newJournal and immutable after
		jn.logf("service: journal: encoding record %d: %v", k, err)
		return
	}
	jn.mu.Lock()
	defer jn.mu.Unlock()
	if jn.f == nil {
		return
	}
	if err := wire.WriteFrame(jn.f, k, b); err != nil {
		jn.logf("service: journal: appending record %d: %v", k, err)
		return
	}
	jn.appends++
}

func (jn *journal) epochStart(e int64) {
	jn.append(jkEpoch, jEpochRec{Epoch: e, AtMS: time.Now().UnixMilli()})
}

func (jn *journal) submit(id, name, workload string, args json.RawMessage, gang int, deadline time.Duration, maxMemMB int) {
	jn.append(jkSubmit, jSubmitRec{
		ID: id, Name: name, Workload: workload, Args: args, Gang: gang,
		DeadlineMS: int64(deadline / time.Millisecond), MaxMemMB: maxMemMB,
		SubmittedMS: time.Now().UnixMilli(),
	})
}

func (jn *journal) transition(id string, from, to State, errText, reason string, requeues int) {
	jn.append(jkTrans, jTransRec{
		ID: id, From: string(from), To: string(to),
		Err: errText, Reason: reason, Requeues: requeues,
		AtMS: time.Now().UnixMilli(),
	})
}

func (jn *journal) assign(id string, attempt int, daemons []string, sizes []int) {
	jn.append(jkAssign, jAssignRec{ID: id, Attempt: attempt, Daemons: daemons, Sizes: sizes})
}

func (jn *journal) shutdown() {
	jn.append(jkShutdown, jShutdownRec{AtMS: time.Now().UnixMilli()})
}

// needsCompact reports whether enough records accumulated since the
// last rewrite to justify one. Checked from the scheduler loop — never
// from inside append, whose callers hold job locks that compaction's
// state snapshot would need.
func (jn *journal) needsCompact() bool {
	if jn == nil {
		return false
	}
	jn.mu.Lock()
	defer jn.mu.Unlock()
	return jn.appends >= compactEvery
}

// compact atomically replaces the journal with one epoch + snapshot
// record pair: write aside, fsync, rename over, reopen for append. The
// caller supplies the state snapshot (taken under the gateway lock).
func (jn *journal) compact(epoch int64, jobs []persistedJob) {
	if jn == nil {
		return
	}
	jn.mu.Lock()
	defer jn.mu.Unlock()
	tmp := jn.path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		jn.logf("service: journal: compaction open: %v", err)
		return
	}
	ok := func() bool {
		eb, err := json.Marshal(jEpochRec{Epoch: epoch, AtMS: time.Now().UnixMilli()})
		if err == nil {
			err = wire.WriteFrame(f, jkEpoch, eb)
		}
		if err == nil {
			var sb []byte
			if sb, err = encodeSnapshot(epoch, jobs); err == nil {
				err = wire.WriteFrame(f, jkSnapshot, sb)
			}
		}
		if err == nil {
			err = f.Sync()
		}
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			jn.logf("service: journal: compaction write: %v", err)
			os.Remove(tmp)
			return false
		}
		return true
	}()
	if !ok {
		return
	}
	if err := os.Rename(tmp, jn.path); err != nil {
		jn.logf("service: journal: compaction rename: %v", err)
		os.Remove(tmp)
		return
	}
	old := jn.f
	nf, err := os.OpenFile(jn.path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		jn.logf("service: journal: reopening after compaction: %v", err)
		return
	}
	jn.f = nf
	jn.appends = 0
	if old != nil {
		old.Close()
	}
	jn.logf("service: journal: compacted to %d jobs", len(jobs))
}

// encodeSnapshot renders the bytes json.Marshal(jSnapshotRec{epoch,
// jobs}) would, one job at a time into a local buffer. Marshalling the
// whole record at once leaves encoding/json's pooled encoder buffer at
// the snapshot's size, live across GCs until the pool is next cleaned;
// job-sized encodes keep that buffer small.
func encodeSnapshot(epoch int64, jobs []persistedJob) ([]byte, error) {
	b := fmt.Appendf(nil, `{"epoch":%d,"jobs":`, epoch)
	if jobs == nil {
		return append(b, "null}"...), nil
	}
	b = append(b, '[')
	for i := range jobs {
		jb, err := json.Marshal(&jobs[i])
		if err != nil {
			return nil, err
		}
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, jb...)
	}
	return append(b, "]}"...), nil
}

// close stops appends and releases the file. Safe to call twice.
func (jn *journal) close() {
	if jn == nil {
		return
	}
	jn.mu.Lock()
	defer jn.mu.Unlock()
	if jn.f != nil {
		jn.f.Close()
		jn.f = nil
	}
}
