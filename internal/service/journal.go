package service

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"

	"converse/internal/wire"
)

// The gateway journal is an append-only log of the records the gateway
// core applied (fleet.apply), in the shared internal/wire framing
// (length + kind + crc32c + JSON payload), one file per state dir. The
// core changes its job table only by applying records, and replay is
// the same apply folded over the file, so the log cannot describe a
// state the live core was never in. Periodic compaction rewrites the
// file as one snapshot record so the log stays bounded by the job
// table, not the job history.
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

// record is one journal record: its frame kind plus its JSON payload.
type record interface{ kind() byte }

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
	at          time.Time       // the live event's clock; zero when replayed
}

type jTransRec struct {
	ID       string    `json:"id"`
	From     string    `json:"from"`
	To       string    `json:"to"`
	Err      string    `json:"err,omitempty"`
	Reason   string    `json:"reason,omitempty"`
	Requeues int       `json:"requeues,omitempty"`
	AtMS     int64     `json:"at_ms"`
	at       time.Time // the live event's clock; zero when replayed
}

type jAssignRec struct {
	ID      string   `json:"id"`
	Attempt int      `json:"attempt"`
	Daemons []string `json:"daemons"`
	Sizes   []int    `json:"sizes"`
}

type jSnapshotRec struct {
	Epoch int64  `json:"epoch"`
	Jobs  []*Job `json:"jobs"`
}

type jShutdownRec struct {
	AtMS int64 `json:"at_ms"`
}

func (jEpochRec) kind() byte    { return jkEpoch }
func (jSubmitRec) kind() byte   { return jkSubmit }
func (jTransRec) kind() byte    { return jkTrans }
func (jAssignRec) kind() byte   { return jkAssign }
func (jSnapshotRec) kind() byte { return jkSnapshot }
func (jShutdownRec) kind() byte { return jkShutdown }

// decodeRecord parses one frame's payload as the record its kind names.
func decodeRecord(k byte, payload []byte) (record, error) {
	switch k {
	case jkEpoch:
		return decodeAs[jEpochRec](payload)
	case jkSubmit:
		return decodeAs[jSubmitRec](payload)
	case jkTrans:
		return decodeAs[jTransRec](payload)
	case jkAssign:
		return decodeAs[jAssignRec](payload)
	case jkSnapshot:
		return decodeAs[jSnapshotRec](payload)
	case jkShutdown:
		return decodeAs[jShutdownRec](payload)
	}
	return nil, fmt.Errorf("unknown record kind %d", k)
}

func decodeAs[R record](payload []byte) (record, error) {
	var r R
	err := json.Unmarshal(payload, &r)
	return r, err
}

// compactEvery is the append count that triggers a snapshot rewrite.
const compactEvery = 4096

// journal is the append handle. The gateway's mutex serialises every
// call, so appends land in the order the core applied them.
type journal struct {
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
func openJournal(dir string, logf func(string, ...any)) (*journal, *fleet, error) {
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
	f, torn := replayRecords(data, logf)
	if torn > 0 {
		logf("service: journal: discarding %d-byte torn tail (%d bytes good)", torn, int64(len(data))-torn)
		if err := os.Truncate(path, int64(len(data))-torn); err != nil {
			return nil, nil, fmt.Errorf("service: truncating torn journal tail: %w", err)
		}
	}
	fd, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, nil, fmt.Errorf("service: opening journal: %w", err)
	}
	return &journal{f: fd, path: path, logf: logf}, f, nil
}

// replayRecords folds the record stream through a fresh core's apply and
// reports how many trailing bytes it discarded as a torn or corrupt tail
// (0 for a whole file). Decode or checksum failure mid-stream cuts
// there: everything after a bad record is unordered noise.
func replayRecords(data []byte, logf func(string, ...any)) (f *fleet, torn int64) {
	f = newFleet()
	r := bytes.NewReader(data)
	for good := int64(0); ; good = int64(len(data) - r.Len()) {
		k, payload, err := wire.ReadFrame(r)
		var rec record
		if err == nil {
			if rec, err = decodeRecord(k, payload); err != nil {
				logf("service: journal: %v, truncating here", err)
			}
		}
		if err != nil {
			if !errors.Is(err, io.EOF) || good != int64(len(data)) {
				torn = int64(len(data)) - good
			}
			return f, torn
		}
		f.apply(rec)
		for _, c := range f.cmds {
			logf(c.text, c.args...) // apply emits log lines only
		}
		f.recs, f.cmds = f.recs[:0], f.cmds[:0]
	}
}

// append frames and writes one record. Failures are logged, not
// returned: a journal write error must degrade durability, not take
// down the running control plane.
func (jn *journal) append(rec record) {
	if jn == nil || jn.f == nil {
		return
	}
	b, err := json.Marshal(rec)
	if err == nil {
		err = wire.WriteFrame(jn.f, rec.kind(), b)
	}
	if err != nil {
		jn.logf("service: journal: appending record %d: %v", rec.kind(), err)
		return
	}
	jn.appends++
}

// due reports whether enough records accumulated since the last
// rewrite to justify a compaction.
func (jn *journal) due() bool { return jn != nil && jn.appends >= compactEvery }

// compact atomically replaces the journal with one epoch + snapshot
// record pair: write aside, fsync, rename over, reopen for append.
func (jn *journal) compact(epoch int64, jobs []*Job, now time.Time) {
	if jn == nil || jn.f == nil {
		return
	}
	tmp := jn.path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		jn.logf("service: journal: compaction open: %v", err)
		return
	}
	eb, err := json.Marshal(jEpochRec{Epoch: epoch, AtMS: now.UnixMilli()})
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
	if err == nil {
		err = os.Rename(tmp, jn.path)
	}
	if err != nil {
		jn.logf("service: journal: compaction: %v", err)
		os.Remove(tmp)
		return
	}
	nf, err := os.OpenFile(jn.path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		jn.logf("service: journal: reopening after compaction: %v", err)
		return
	}
	jn.f.Close()
	jn.f = nf
	jn.appends = 0
	jn.logf("service: journal: compacted to %d jobs", len(jobs))
}

// encodeSnapshot renders the bytes json.Marshal(jSnapshotRec{epoch,
// jobs}) would, one job at a time into a local buffer. Marshalling the
// whole record at once leaves encoding/json's pooled encoder buffer at
// the snapshot's size, live across GCs until the pool is next cleaned;
// job-sized encodes keep that buffer small.
func encodeSnapshot(epoch int64, jobs []*Job) ([]byte, error) {
	b := fmt.Appendf(nil, `{"epoch":%d,"jobs":`, epoch)
	if jobs == nil {
		return append(b, "null}"...), nil
	}
	b = append(b, '[')
	for i, j := range jobs {
		jb, err := json.Marshal(j)
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
	if jn != nil && jn.f != nil {
		jn.f.Close()
		jn.f = nil
	}
}
