package faultnet

import (
	"reflect"
	"testing"
	"time"

	"converse/internal/machine"
)

func TestParseFullGrammar(t *testing.T) {
	p, err := Parse("seed=42, drop=1%, dup=0.005, corrupt=0.002, reorder=0.01, " +
		"delay=2ms, jitter=1ms, killlink=1-0@120, stall=0-1@200+300ms, " +
		"crash=2@500, partition=0.1|2.3@2s+1s")
	if err != nil {
		t.Fatal(err)
	}
	if p.Seed != 42 || p.Drop != 0.01 || p.Dup != 0.005 || p.Corrupt != 0.002 || p.Reorder != 0.01 {
		t.Errorf("probabilities parsed wrong: %+v", p)
	}
	if p.Delay != 2*time.Millisecond || p.Jitter != time.Millisecond {
		t.Errorf("delays parsed wrong: %+v", p)
	}
	if want := []LinkEvent{{From: 1, To: 0, AtFrame: 120}}; !reflect.DeepEqual(p.Kills, want) {
		t.Errorf("Kills = %+v, want %+v", p.Kills, want)
	}
	if want := []LinkEvent{{From: 0, To: 1, AtFrame: 200, Dur: 300 * time.Millisecond}}; !reflect.DeepEqual(p.Stalls, want) {
		t.Errorf("Stalls = %+v, want %+v", p.Stalls, want)
	}
	if want := []RankEvent{{Rank: 2, AtFrame: 500}}; !reflect.DeepEqual(p.Crashes, want) {
		t.Errorf("Crashes = %+v, want %+v", p.Crashes, want)
	}
	if p.Part == nil || !reflect.DeepEqual(p.Part.GroupA, []int{0, 1}) ||
		!reflect.DeepEqual(p.Part.GroupB, []int{2, 3}) ||
		p.Part.After != 2*time.Second || p.Part.For != time.Second {
		t.Errorf("Part = %+v", p.Part)
	}
	if p.Empty() {
		t.Error("full plan reported empty")
	}
}

func TestParseEmptyAndDefaults(t *testing.T) {
	for _, s := range []string{"", "   "} {
		p, err := Parse(s)
		if err != nil {
			t.Fatalf("Parse(%q): %v", s, err)
		}
		if !p.Empty() || p.Seed != 1 {
			t.Errorf("Parse(%q) = %+v, want empty plan with seed 1", s, p)
		}
	}
	if New(MustParse(""), 0) != nil {
		t.Error("New on an empty plan must return nil (no injection)")
	}
	if New(nil, 0) != nil {
		t.Error("New(nil) must return nil")
	}
	var nilInj *Injector
	if s := nilInj.Stats(); s != (Stats{}) {
		t.Errorf("nil injector Stats() = %+v, want zero", s)
	}
}

func TestParseRejectsGarbage(t *testing.T) {
	for _, s := range []string{
		"drop",              // not key=value
		"warp=0.1",          // unknown fault
		"drop=1.5",          // probability out of range
		"drop=150%",         // ditto, percent form
		"drop=x",            // not a number
		"delay=-2ms",        // negative duration
		"killlink=1@5",      // link missing TO
		"killlink=1-1@5",    // self-link
		"killlink=1-0@0",    // frame 0
		"stall=0-1@5",       // stall missing duration
		"crash=2",           // missing frame
		"partition=0|1@2s",  // window missing +FOR
		"partition=0.1@2+1", // missing group separator
	} {
		if _, err := Parse(s); err == nil {
			t.Errorf("Parse(%q) accepted", s)
		}
	}
}

func TestInjectorDeterminism(t *testing.T) {
	const plan = "seed=9,drop=0.2,dup=0.1,corrupt=0.1,reorder=0.1"
	draw := func(rank, peer, n int) []TxFault {
		li := New(MustParse(plan), rank).Link(peer)
		out := make([]TxFault, n)
		for i := range out {
			out[i] = li.Tx()
		}
		return out
	}
	a, b := draw(0, 1, 200), draw(0, 1, 200)
	if !reflect.DeepEqual(a, b) {
		t.Error("same plan, rank and link drew different fault sequences")
	}
	// A different link of the same rank, and the same link of a
	// different rank, must draw decorrelated sequences.
	if reflect.DeepEqual(a, draw(0, 2, 200)) {
		t.Error("links 0->1 and 0->2 drew identical fault sequences")
	}
	if reflect.DeepEqual(a, draw(1, 0, 200)) {
		t.Error("links 0->1 and 1->0 drew identical fault sequences")
	}
}

func TestScriptedLinkKillFiresOnce(t *testing.T) {
	in := New(MustParse("killlink=0-1@3"), 0)
	li := in.Link(1)
	for i := 1; i <= 5; i++ {
		f := li.Tx()
		if got, want := f.Kill, i == 3; got != want {
			t.Errorf("frame %d: Kill=%v, want %v", i, got, want)
		}
	}
	// The kill is 0->1 only: the reverse link and other ranks are clean.
	if New(MustParse("killlink=0-1@3"), 1) != nil {
		li2 := New(MustParse("killlink=0-1@3"), 1).Link(0)
		for i := 0; i < 5; i++ {
			if li2.Tx().Kill {
				t.Error("kill fired on the reverse link")
			}
		}
	}
	if s := in.Stats(); s.Kills != 1 || s.Frames != 5 {
		t.Errorf("Stats = %+v, want Kills=1 Frames=5", s)
	}
}

func TestScriptedCrashUsesTotalFrames(t *testing.T) {
	in := New(MustParse("crash=0@4"), 0)
	// Frames staged across two links both advance the crash clock.
	a, b := in.Link(1), in.Link(2)
	seq := []*LinkInjector{a, b, a, b}
	for i, li := range seq {
		f := li.Tx()
		if got, want := f.Crash, i == 3; got != want {
			t.Errorf("total frame %d: Crash=%v, want %v", i+1, got, want)
		}
	}
}

func TestStallAddsDelayOnce(t *testing.T) {
	li := New(MustParse("stall=0-1@2+250ms"), 0).Link(1)
	if f := li.Tx(); f.Delay != 0 {
		t.Errorf("frame 1 delayed by %v", f.Delay)
	}
	if f := li.Tx(); f.Delay != 250*time.Millisecond {
		t.Errorf("frame 2 delay = %v, want 250ms", f.Delay)
	}
	if f := li.Tx(); f.Delay != 0 {
		t.Errorf("frame 3 delayed by %v (stall must be one-shot)", f.Delay)
	}
}

// simPE is a minimal in-memory Substrate for exercising WrapSim.
type simPE struct {
	id   int
	sent [][]byte
	dst  []int
}

func (s *simPE) ID() int           { return s.id }
func (s *simPE) NumPEs() int       { return 4 }
func (s *simPE) Node() int         { return s.id }
func (s *simPE) NumNodes() int     { return 4 }
func (s *simPE) NodeSize(int) int  { return 1 }
func (s *simPE) NodeOf(pe int) int { return pe }
func (s *simPE) Clock() float64    { return 0 }
func (s *simPE) Charge(float64)    {}
func (s *simPE) AdvanceTo(float64) {}
func (s *simPE) SendOwned(dst int, data []byte) {
	s.dst = append(s.dst, dst)
	s.sent = append(s.sent, data)
}
func (s *simPE) TryRecv() (machine.Packet, bool)   { return machine.Packet{}, false }
func (s *simPE) Recv() (machine.Packet, bool)      { return machine.Packet{}, false }
func (s *simPE) Model() machine.CostModel          { return nil }
func (s *simPE) Printf(string, ...any)             {}
func (s *simPE) Errorf(string, ...any)             {}
func (s *simPE) Scanf(string, ...any) (int, error) { return 0, nil }
func (s *simPE) ReadLine() (string, error)         { return "", nil }

func TestWrapSimDropsAndPassesLoopback(t *testing.T) {
	inner := &simPE{id: 0}
	sub := WrapSim(inner, New(MustParse("seed=3,drop=1"), 0))
	// Loopback is never faulted; remote sends all drop under drop=1.
	sub.SendOwned(0, []byte("self"))
	for i := 0; i < 10; i++ {
		sub.SendOwned(1, []byte("gone"))
	}
	if len(inner.sent) != 1 || inner.dst[0] != 0 {
		t.Fatalf("inner saw %d sends to %v, want only the loopback", len(inner.sent), inner.dst)
	}
	// A nil injector must return the substrate unchanged.
	if WrapSim(inner, nil) != Substrate(inner) {
		t.Error("WrapSim(nil injector) wrapped anyway")
	}
}

func TestWrapSimKillBlackholesForever(t *testing.T) {
	inner := &simPE{id: 0}
	sub := WrapSim(inner, New(MustParse("killlink=0-1@2"), 0))
	for i := 0; i < 6; i++ {
		sub.SendOwned(1, []byte{byte(i)})
	}
	// Frame 1 passes, frame 2 trips the kill, the rest blackhole.
	if len(inner.sent) != 1 || inner.sent[0][0] != 0 {
		t.Fatalf("inner saw %d sends (%v), want just the first", len(inner.sent), inner.dst)
	}
}
