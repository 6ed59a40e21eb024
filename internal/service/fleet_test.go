package service

import (
	"bytes"
	"cmp"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io"
	"math/rand"
	"slices"
	"strconv"
	"strings"
	"testing"
	"time"

	"converse/internal/wire"
)

// testFleet is a core with small budgets and no journal.
func testFleet() *fleet {
	f := newFleet()
	f.maxRequeues, f.backlogCap = 2, 16
	f.watchdog, f.recoveryWindow = time.Minute, 5*time.Second
	return f
}

// submitJob feeds one pingpong submit to the core, failing the test on
// a refusal.
func submitJob(t *testing.T, f *fleet, id string, gang int, now time.Time) {
	t.Helper()
	if err := f.submit(id, submitMsg{Name: id, Workload: "pingpong", Gang: gang}, now); err != nil {
		t.Fatalf("submit %s: %v", id, err)
	}
}

// writeRecords frames records exactly as the journal appends them.
func writeRecords(w io.Writer, recs []record) {
	for _, rec := range recs {
		b, err := json.Marshal(rec)
		if err != nil {
			panic(err)
		}
		wire.WriteFrame(w, rec.kind(), b)
	}
}

// tableJSON is the journaled projection of a core: its epoch and every
// job's snapshot entry, in submit order.
func tableJSON(f *fleet) string {
	b, err := json.Marshal(jSnapshotRec{Epoch: f.epoch, Jobs: f.order})
	if err != nil {
		panic(err)
	}
	return string(b)
}

// rankRef is one rank a modelled daemon runs.
type rankRef struct {
	job       string
	seq, rank int
}

// mDaemon models one daemon for the property test: the ranks it runs,
// results it has not delivered yet, and whether its session is up or
// it has died.
type mDaemon struct {
	name         string
	slots        int
	running      []rankRef
	done         []resumeEntry
	joined, dead bool
}

// coreSim drives a core through events the way the shell would, keeping
// the journal bytes it appended and the model daemons' view.
type coreSim struct {
	t        testing.TB
	rng      *rand.Rand
	f        *fleet
	now      time.Time
	log      bytes.Buffer
	daemons  []*mDaemon
	timers   map[rankRef]bool // armed watchdogs, by job and attempt
	terminal map[string]int   // terminal edges journaled per job
	nextID   int
}

// flush takes what the last event produced: records go to the journal,
// commands act on the model daemons.
func (s *coreSim) flush() []fenceEntry {
	var fences []fenceEntry
	for {
		recs, cmds := s.f.take()
		if len(recs) == 0 && len(cmds) == 0 {
			return fences
		}
		writeRecords(&s.log, recs)
		for _, rec := range recs {
			if tr, ok := rec.(jTransRec); ok && State(tr.To).Terminal() {
				s.terminal[tr.ID]++
			}
		}
		for _, c := range cmds {
			switch c.kind {
			case cLaunch:
				at, j := s.f.attempts[c.job], s.f.jobs[c.job]
				if at == nil || at.seq != c.seq || j.State.Terminal() || at.lost {
					s.f.unlaunched(c.job, c.seq, "", s.now)
					continue
				}
				for r, name := range at.daemons {
					if d := s.daemon(name); d != nil {
						d.running = append(d.running, rankRef{c.job, c.seq, r})
					}
				}
			case cAbort:
				for _, d := range s.daemons {
					if !d.joined || !slices.Contains(c.daemons, d.name) {
						continue
					}
					keep := d.running[:0]
					for _, rr := range d.running {
						if rr.job == c.job && rr.seq == c.seq {
							d.done = append(d.done, resumeEntry{Job: rr.job, Attempt: rr.seq, Rank: rr.rank,
								Error: "service: job aborted: " + c.text})
						} else {
							keep = append(keep, rr)
						}
					}
					d.running = keep
				}
			case cRelease:
				delete(s.timers, rankRef{job: c.job, seq: c.seq})
			case cArm:
				if c.job != "" {
					s.timers[rankRef{job: c.job, seq: c.seq}] = true
				}
			case cFence:
				fences = append(fences, fenceEntry{Job: c.job, Attempt: c.seq, Reason: c.text})
			case cLog:
				if strings.Contains(c.text, "illegal edge") {
					s.t.Errorf("live core logged "+c.text, c.args...)
				}
			}
		}
	}
}

func (s *coreSim) daemon(name string) *mDaemon {
	for _, d := range s.daemons {
		if d.name == name && d.joined {
			return d
		}
	}
	return nil
}

// event runs one random event.
func (s *coreSim) event() {
	f, now := s.f, s.now
	switch pick := s.rng.Intn(100); {
	case pick < 20:
		s.nextID++
		id := "j" + strconv.Itoa(s.nextID)
		f.submit(id, submitMsg{Name: id, Workload: "pingpong", Gang: 1 + s.rng.Intn(4)}, now)
	case pick < 30:
		d := s.pickDaemon(false)
		if d == nil && len(s.daemons) < 5 {
			d = &mDaemon{name: "d" + strconv.Itoa(len(s.daemons)), slots: 1 + s.rng.Intn(3)}
			s.daemons = append(s.daemons, d)
		}
		if d == nil {
			return
		}
		var resume []resumeEntry
		for _, rr := range d.running {
			resume = append(resume, resumeEntry{Job: rr.job, Attempt: rr.seq, Rank: rr.rank, Running: true})
		}
		resume = append(resume, d.done...)
		d.done, d.joined = nil, true
		f.join(d.name, d.slots, resume, now)
		for _, fe := range s.flush() {
			d.running = removeRanks(d.running, fe.Job, fe.Attempt)
		}
		f.schedule(now)
	case pick < 36:
		if d := s.pickDaemon(true); d != nil {
			// The daemon dies: its ranks and undelivered results die too.
			d.joined, d.dead, d.running, d.done = false, true, nil, nil
			f.leave(d.name, "killed", now)
		}
	case pick < 60:
		if d := s.pickDaemon(true); d != nil && len(d.running) > 0 {
			i := s.rng.Intn(len(d.running))
			rr := d.running[i]
			d.running = append(d.running[:i], d.running[i+1:]...)
			e := resumeEntry{Job: rr.job, Attempt: rr.seq, Rank: rr.rank, OK: true, SentBytes: 10}
			if s.rng.Intn(6) == 0 {
				e.OK, e.Error = false, "rank crashed"
			}
			d.done = append(d.done, e)
		}
	case pick < 78:
		if d := s.pickDaemon(true); d != nil && len(d.done) > 0 {
			e := d.done[0]
			d.done = d.done[1:]
			f.update(updateMsg{Job: e.Job, Attempt: e.Attempt, Rank: e.Rank, OK: e.OK, Error: e.Error,
				SentBytes: e.SentBytes, Epoch: f.epoch}, now)
		}
	case pick < 84:
		if len(f.order) > 0 {
			f.cancel(f.order[s.rng.Intn(len(f.order))].ID, "cancelled by client", now)
		}
	case pick < 88:
		var armed []rankRef
		for ref := range s.timers {
			armed = append(armed, ref)
		}
		if len(armed) > 0 {
			slices.SortFunc(armed, func(a, b rankRef) int { return cmp.Or(strings.Compare(a.job, b.job), a.seq-b.seq) })
			ref := armed[s.rng.Intn(len(armed))]
			f.watchdogFired(ref.job, ref.seq, "", now)
		}
	case pick < 91:
		if d := s.pickDaemon(true); d != nil {
			f.daemonDraining(d.name)
		}
	case pick < 95:
		f.endRecovery(now)
	default:
		s.restart()
	}
}

// restart crashes the gateway: a new core replays the journal and
// boots, and every daemon's session drops (the daemons keep running).
func (s *coreSim) restart() {
	f, torn := replayRecords(s.log.Bytes(), s.t.Logf)
	if torn != 0 {
		s.t.Fatalf("restart: replay cut %d bytes of a whole journal", torn)
	}
	f.maxRequeues, f.backlogCap, f.watchdog, f.recoveryWindow = s.f.maxRequeues, s.f.backlogCap, s.f.watchdog, s.f.recoveryWindow
	s.f = f
	s.timers = map[rankRef]bool{}
	for _, d := range s.daemons {
		d.joined = false
	}
	f.boot(s.now)
}

func (s *coreSim) pickDaemon(joined bool) *mDaemon {
	var c []*mDaemon
	for _, d := range s.daemons {
		if d.joined == joined && !d.dead {
			c = append(c, d)
		}
	}
	if len(c) == 0 {
		return nil
	}
	return c[s.rng.Intn(len(c))]
}

func removeRanks(rs []rankRef, job string, seq int) []rankRef {
	keep := rs[:0]
	for _, rr := range rs {
		if rr.job != job || rr.seq != seq {
			keep = append(keep, rr)
		}
	}
	return keep
}

// check holds the core to its invariants after an event.
func (s *coreSim) check(step int) {
	t, f := s.t, s.f
	replayed, torn := replayRecords(s.log.Bytes(), func(format string, args ...any) {
		t.Errorf("step %d: replay: "+format, append([]any{step}, args...)...)
	})
	if torn != 0 {
		t.Fatalf("step %d: replay cut %d bytes of a whole journal", step, torn)
	}
	if got, want := tableJSON(replayed), tableJSON(f); got != want {
		t.Fatalf("step %d: replayed table differs from the live one\n got %s\nwant %s", step, got, want)
	}
	busy := map[string]int{}
	for _, at := range f.attempts {
		for r, name := range at.daemons {
			busy[name] += at.sizes[r]
		}
	}
	for name, d := range f.daemons {
		if d.busy > d.slots || d.busy != busy[name] {
			t.Fatalf("step %d: daemon %s busy %d of %d slots, attempts hold %d", step, name, d.busy, d.slots, busy[name])
		}
	}
	queued := 0
	for _, j := range f.order {
		if j.Requeues > f.maxRequeues {
			t.Fatalf("step %d: %s requeued %d times, budget %d", step, j.ID, j.Requeues, f.maxRequeues)
		}
		if s.terminal[j.ID] > 1 {
			t.Fatalf("step %d: %s journaled %d terminal edges", step, j.ID, s.terminal[j.ID])
		}
		if j.State == Queued {
			queued++
		}
		if (f.attempts[j.ID] != nil) != (j.State == Admitted || j.State == Running || j.State == Recovering) && !j.State.Terminal() {
			t.Fatalf("step %d: %s is %s with attempt %v", step, j.ID, j.State, f.attempts[j.ID] != nil)
		}
	}
	if queued != len(f.queue) {
		t.Fatalf("step %d: %d queued jobs, %d in the queue", step, queued, len(f.queue))
	}
}

// TestJournalReplayMatchesFSM is the replay-equals-live property test:
// seeded random event sequences — submits, daemon joins, deaths and
// drains, rank results, cancels, watchdog expiries, gateway crashes
// with journal restarts and recovery windows — drive the core with no
// sockets. After every event the journal it appended must replay to
// its live job table; no job may journal a second terminal edge or
// outspend its requeue budget; no daemon may hold more busy slots than
// it has. Finally a Close leaves every job in exactly one terminal
// state.
func TestJournalReplayMatchesFSM(t *testing.T) {
	for seed := int64(1); seed <= 24; seed++ {
		s := &coreSim{t: t, rng: rand.New(rand.NewSource(seed)), f: testFleet(),
			now: time.Unix(1_700_000_000, 0), timers: map[rankRef]bool{}, terminal: map[string]int{}}
		s.f.boot(s.now) // a journaled gateway's first incarnation
		s.flush()
		for step := 0; step < 300; step++ {
			s.now = s.now.Add(time.Duration(s.rng.Intn(50)) * time.Millisecond)
			s.event()
			s.flush()
			s.check(step)
		}
		s.f.shutdown(s.now)
		s.flush()
		s.check(-1)
		for _, j := range s.f.order {
			if !j.State.Terminal() || s.terminal[j.ID] != 1 {
				t.Fatalf("seed %d: %s ended %s with %d terminal edges, want exactly one", seed, j.ID, j.State, s.terminal[j.ID])
			}
		}
		if len(s.f.attempts) != 0 {
			t.Fatalf("seed %d: %d attempts outlived the shutdown", seed, len(s.f.attempts))
		}
	}
}

// TestWatchdogExpiryFailsRecoveredAttempt: a job attempt outliving its
// watchdog fails — the gang is wedged, and re-running it would wedge
// again — whether the attempt is live or a stand-in re-adopted after a
// gateway restart. A recovered stand-in's expiry used to count its
// unreported ranks as lost with their daemon, which requeued the wedged
// gang up to the whole budget.
func TestWatchdogExpiryFailsRecoveredAttempt(t *testing.T) {
	for _, recovered := range []bool{false, true} {
		s := &coreSim{t: t, rng: rand.New(rand.NewSource(7)), f: testFleet(),
			now: time.Unix(1_700_000_000, 0), timers: map[rankRef]bool{}, terminal: map[string]int{}}
		var logs []string
		f := s.f
		f.boot(s.now)
		f.join("a", 1, nil, s.now)
		f.join("b", 1, nil, s.now)
		submitJob(t, f, "wedged", 2, s.now)
		s.flush()
		seq := f.attempts["wedged"].seq
		if recovered {
			s.restart()
			f = s.f
			for r, name := range []string{"a", "b"} {
				f.join(name, 1, []resumeEntry{{Job: "wedged", Attempt: seq, Rank: r, Running: true}}, s.now)
			}
			f.endRecovery(s.now)
			if j := f.jobs["wedged"]; j.State != Running || j.Reason != "recovered" {
				t.Fatalf("re-adopted job is %s (%q), want running, recovered", j.State, j.Reason)
			}
		}
		f.watchdogFired("wedged", seq, "", s.now)
		_, cmds := f.take()
		aborted := false
		for _, c := range cmds {
			aborted = aborted || (c.kind == cAbort && strings.Join(c.daemons, ",") == "a,b")
		}
		if !aborted {
			t.Fatalf("recovered %v: watchdog expiry sent no abort to both daemons: %+v", recovered, cmds)
		}
		// The aborted ranks report in; the slots come back.
		for r := 0; r < 2; r++ {
			f.update(updateMsg{Job: "wedged", Attempt: seq, Rank: r, Error: "service: job aborted: watchdog expired", Epoch: f.epoch}, s.now)
		}
		_, cmds = f.take()
		for _, c := range cmds {
			if c.kind == cLog {
				logs = append(logs, fmt.Sprintf(c.text, c.args...))
			}
		}
		j := f.jobs["wedged"]
		if j.State != Failed || j.Requeues != 0 || !strings.Contains(j.Err, "exceeded watchdog") {
			t.Errorf("recovered %v: watchdog expiry left the job %s after %d requeues (err %q), want failed, none",
				recovered, j.State, j.Requeues, j.Err)
		}
		for _, l := range logs {
			if strings.Contains(l, "after daemon loss") {
				t.Errorf("recovered %v: watchdog expiry counted as daemon loss: %s", recovered, l)
			}
		}
		if len(f.attempts) != 0 || f.daemons["a"].busy+f.daemons["b"].busy != 0 {
			t.Errorf("recovered %v: the failed attempt still holds slots", recovered)
		}
	}
}

// TestCoreIsSansIO keeps the core free of I/O and of the clock: every
// event carries its time, and effects leave as commands.
func TestCoreIsSansIO(t *testing.T) {
	file, err := parser.ParseFile(token.NewFileSet(), "fleet.go", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, imp := range file.Imports {
		switch path, _ := strconv.Unquote(imp.Path.Value); path {
		case "net", "os", "converse/internal/mnet":
			t.Errorf("fleet.go imports %s", path)
		}
	}
	banned := map[string]bool{"Now": true, "Since": true, "AfterFunc": true, "NewTimer": true, "Sleep": true}
	ast.Inspect(file, func(n ast.Node) bool {
		if sel, ok := n.(*ast.SelectorExpr); ok {
			if x, ok := sel.X.(*ast.Ident); ok && x.Name == "time" && banned[sel.Sel.Name] {
				t.Errorf("fleet.go calls time.%s", sel.Sel.Name)
			}
		}
		return true
	})
}

// FuzzJournalReplay feeds replay arbitrary bytes. Replay must not panic,
// must keep a prefix that ends on a record boundary, and the state it
// rebuilds must survive a round trip through a snapshot record.
func FuzzJournalReplay(fz *testing.F) {
	s := &coreSim{t: fz, rng: rand.New(rand.NewSource(3)), f: testFleet(),
		now: time.Unix(1_700_000_000, 0), timers: map[rankRef]bool{}, terminal: map[string]int{}}
	s.f.boot(s.now)
	for step := 0; step < 16; step++ {
		s.event()
		s.flush()
	}
	real := s.log.Bytes()
	fz.Add(real)
	fz.Add(real[:len(real)-7])                                   // torn tail
	fz.Add(append(append([]byte(nil), real...), "garbage!!"...)) // garbage tail
	var snap bytes.Buffer
	writeRecords(&snap, []record{jSnapshotRec{Epoch: 4, Jobs: s.f.order}, jShutdownRec{}})
	fz.Add(snap.Bytes())
	fz.Fuzz(func(t *testing.T, data []byte) {
		got, torn := replayRecords(data, func(string, ...any) {})
		kept := int64(len(data)) - torn
		if torn < 0 || kept < 0 {
			t.Fatalf("kept %d of %d bytes", kept, len(data))
		}
		for r := bytes.NewReader(data[:kept]); r.Len() > 0; {
			if _, _, err := wire.ReadFrame(r); err != nil {
				t.Fatalf("kept prefix of %d bytes does not end on a record boundary: %v", kept, err)
			}
		}
		sb, err := encodeSnapshot(got.epoch, got.order)
		if err != nil {
			t.Fatalf("encoding the replayed state: %v", err)
		}
		var again bytes.Buffer
		wire.WriteFrame(&again, jkSnapshot, sb)
		back, torn := replayRecords(again.Bytes(), func(format string, args ...any) {
			t.Errorf("snapshot replay: "+format, args...)
		})
		if torn != 0 {
			t.Fatalf("snapshot replay cut %d bytes", torn)
		}
		if a, b := tableJSON(got), tableJSON(back); a != b {
			t.Fatalf("snapshot round trip changed the state\n got %s\nwant %s", b, a)
		}
	})
}
