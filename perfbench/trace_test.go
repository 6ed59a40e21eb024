package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
	"time"
)

func TestSelfTimesSubtractChildCoverage(t *testing.T) {
	spans := []Span{
		{Start: 0, End: 100, Parent: -1}, // root
		{Start: 10, End: 30, Parent: 0},  // children 1 and 2 overlap: union [10, 50)
		{Start: 20, End: 50, Parent: 0},
		{Start: 90, End: 120, Parent: 0}, // outlives the root: clipped to [90, 100)
		{Start: 12, End: 18, Parent: 1},  // grandchild: counts against span 1 only
		{Start: 200, End: 260, Parent: -1},
	}
	want := []int64{100 - 40 - 10, 20 - 6, 30, 30, 6, 60}
	got := SelfTimes(spans)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("self time of span %d = %d, want %d", i, got[i], want[i])
		}
	}
}

func TestLaneSamplesAndStaysBounded(t *testing.T) {
	rec := NewRecorder(4)
	l := rec.Lane(3)
	for n := 0; n < 16; n++ {
		l.Op()
		id := l.Begin(spOp, -1)
		l.End(l.Begin(spSend, id))
		l.End(id)
	}
	// Ops 0, 4, 8 and 12 are sampled, two spans each; room for three.
	kept, dropped := rec.Counts()
	if kept != 3 || dropped != 5 {
		t.Errorf("kept %d dropped %d spans, want 3 and 5", kept, dropped)
	}
	if l.spans[1].Parent != 0 || l.spans[2].Op != 4 {
		t.Errorf("spans = %+v: want op 0's child under span 0, then op 4", l.spans)
	}

	var nilRec *Recorder
	nl := nilRec.Lane(8)
	nl.Op()
	if id := nl.Begin(spOp, -1); id != -1 {
		t.Errorf("nil lane Begin = %d, want -1", id)
	}
	nl.End(-1)
	nl.Add(spJoin, time.Now(), time.Now())
}

func TestStatsAndWriteSpans(t *testing.T) {
	rec := NewRecorder(1)
	l := rec.Lane(8)
	l.Op()
	op := l.Begin(spOp, -1)
	l.End(l.Begin(spSend, op))
	l.End(op)
	start := time.Now()
	l.Add(spJoin, start, start.Add(3*time.Millisecond))

	st := rec.Stats()
	if len(st[spOp].dur) != 1 || len(st[spSend].dur) != 1 {
		t.Fatalf("stats: %d op and %d send spans, want 1 each", len(st[spOp].dur), len(st[spSend].dur))
	}
	if st[spOp].self[0] > st[spOp].dur[0] || st[spOp].self[0] < 0 {
		t.Errorf("op self %v outside [0, %v]", st[spOp].self[0], st[spOp].dur[0])
	}
	if got := st.median(spJoin); got != float64(3*time.Millisecond) {
		t.Errorf("join median = %v ns, want 3ms", got)
	}

	path := filepath.Join(t.TempDir(), "spans.jsonl")
	if err := rec.WriteSpans(path); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var names []string
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		var s struct {
			Name   string `json:"name"`
			Op     int64  `json:"op"`
			Parent int    `json:"parent"`
		}
		if err := json.Unmarshal(sc.Bytes(), &s); err != nil {
			t.Fatalf("line %q: %v", sc.Text(), err)
		}
		names = append(names, s.Name)
	}
	want := []string{"op", "core.Proc.SyncSendAndFree", "mnet.Join"}
	if len(names) != len(want) {
		t.Fatalf("wrote spans %v, want %v", names, want)
	}
	for i := range want {
		if names[i] != want[i] {
			t.Errorf("span %d is %q, want %q", i, names[i], want[i])
		}
	}
}
