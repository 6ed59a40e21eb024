// Package faultnet is the deterministic fault-injection plan of the
// TCP machine layer: a seedable plan of network faults (drop, delay,
// duplicate, reorder, bit-corrupt, link stalls and kills, partitions,
// scripted crashes). internal/mnet injects them at frame granularity
// below its reliability layer, so FailurePolicy=retry repairs them and
// failfast dies from them. The simulated multicomputer has no wire and
// takes no plan.
//
// A plan is a comma-separated string of key=value terms:
//
//	seed=42                 RNG seed (default 1); same seed, same faults
//	drop=0.01               drop each data frame with probability 0.01 (or "1%")
//	dup=0.005               duplicate a frame
//	corrupt=0.002           flip one payload bit of a frame
//	reorder=0.01            hold a frame and emit it after its successor
//	delay=2ms               delay every frame
//	jitter=1ms              extra random delay in [0, jitter]
//	killlink=1-0@120        kill rank 1's link to rank 0 at its 120th frame
//	stall=0-1@200+300ms     stall rank 0's link to rank 1 for 300ms at frame 200
//	crash=2@500             crash rank 2 when it has staged 500 frames total
//	partition=0.1|2.3@2s+1s ranks {0,1} vs {2,3} partitioned for 1s, 2s in
//
// Probabilities apply per data frame, drawn from a per-link RNG seeded
// from (seed, sender rank, peer rank) — two runs with the same plan and
// the same per-link frame order inject the same faults, regardless of
// how links interleave.
package faultnet

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
	"time"
)

// LinkEvent is a scripted one-shot event on the directed link From→To,
// triggered when the link stages its AtFrame-th data frame.
type LinkEvent struct {
	From, To int
	AtFrame  uint64
	Dur      time.Duration // stall duration; zero for kills
}

// RankEvent is a scripted crash of one rank, triggered when that rank
// has staged AtFrame data frames in total (across all its links).
type RankEvent struct {
	Rank    int
	AtFrame uint64
}

// Partition is a timed split of the machine: frames between GroupA and
// GroupB are dropped during [After, After+For) on the injector's clock
// (started when the machine starts).
type Partition struct {
	GroupA, GroupB []int
	After, For     time.Duration
}

// Plan is one parsed fault plan. The zero value injects nothing.
type Plan struct {
	Seed    int64
	Drop    float64
	Dup     float64
	Corrupt float64
	Reorder float64
	Delay   time.Duration
	Jitter  time.Duration
	Kills   []LinkEvent
	Stalls  []LinkEvent
	Crashes []RankEvent
	Part    *Partition

	raw string
}

// String returns the plan in its source form.
func (p *Plan) String() string { return p.raw }

// Empty reports whether the plan injects no faults at all.
func (p *Plan) Empty() bool {
	return p.Drop == 0 && p.Dup == 0 && p.Corrupt == 0 && p.Reorder == 0 &&
		p.Delay == 0 && len(p.Kills) == 0 && len(p.Stalls) == 0 &&
		len(p.Crashes) == 0 && p.Part == nil
}

// Parse parses a fault-plan string (see the package comment for the
// grammar). An empty string parses to an empty plan.
func Parse(s string) (*Plan, error) {
	p := &Plan{Seed: 1, raw: s}
	if strings.TrimSpace(s) == "" {
		return p, nil
	}
	for _, term := range strings.Split(s, ",") {
		term = strings.TrimSpace(term)
		if term == "" {
			continue
		}
		key, val, ok := strings.Cut(term, "=")
		if !ok {
			return nil, fmt.Errorf("faultnet: term %q is not key=value", term)
		}
		var err error
		switch key {
		case "seed":
			p.Seed, err = strconv.ParseInt(val, 10, 64)
		case "drop":
			p.Drop, err = parseProb(val)
		case "dup":
			p.Dup, err = parseProb(val)
		case "corrupt":
			p.Corrupt, err = parseProb(val)
		case "reorder":
			p.Reorder, err = parseProb(val)
		case "delay":
			p.Delay, err = time.ParseDuration(val)
		case "jitter":
			p.Jitter, err = time.ParseDuration(val)
		case "killlink":
			var ev LinkEvent
			if ev, err = parseLinkEvent(val, false); err == nil {
				p.Kills = append(p.Kills, ev)
			}
		case "stall":
			var ev LinkEvent
			if ev, err = parseLinkEvent(val, true); err == nil {
				p.Stalls = append(p.Stalls, ev)
			}
		case "crash":
			var ev RankEvent
			if ev, err = parseRankEvent(val); err == nil {
				p.Crashes = append(p.Crashes, ev)
			}
		case "partition":
			p.Part, err = parsePartition(val)
		default:
			return nil, fmt.Errorf("faultnet: unknown fault %q", key)
		}
		if err != nil {
			return nil, fmt.Errorf("faultnet: bad %s value %q: %v", key, val, err)
		}
	}
	for _, pr := range []struct {
		name string
		v    float64
	}{{"drop", p.Drop}, {"dup", p.Dup}, {"corrupt", p.Corrupt}, {"reorder", p.Reorder}} {
		if pr.v < 0 || pr.v > 1 {
			return nil, fmt.Errorf("faultnet: %s probability %v outside [0,1]", pr.name, pr.v)
		}
	}
	if p.Delay < 0 || p.Jitter < 0 {
		return nil, fmt.Errorf("faultnet: negative delay/jitter")
	}
	return p, nil
}

// MustParse is Parse for plans known good at compile time (tests,
// examples); it panics on error.
func MustParse(s string) *Plan {
	p, err := Parse(s)
	if err != nil {
		panic(err)
	}
	return p
}

func parseProb(s string) (float64, error) {
	pct := strings.HasSuffix(s, "%")
	v, err := strconv.ParseFloat(strings.TrimSuffix(s, "%"), 64)
	if err != nil {
		return 0, err
	}
	if pct {
		v /= 100
	}
	return v, nil
}

// parseLinkEvent parses "FROM-TO@FRAME" (kills) or "FROM-TO@FRAME+DUR"
// (stalls).
func parseLinkEvent(s string, wantDur bool) (LinkEvent, error) {
	var ev LinkEvent
	link, rest, ok := strings.Cut(s, "@")
	if !ok {
		return ev, fmt.Errorf("missing @FRAME")
	}
	from, to, ok := strings.Cut(link, "-")
	if !ok {
		return ev, fmt.Errorf("link is not FROM-TO")
	}
	var err error
	if ev.From, err = strconv.Atoi(from); err != nil {
		return ev, err
	}
	if ev.To, err = strconv.Atoi(to); err != nil {
		return ev, err
	}
	frame := rest
	if wantDur {
		var durs string
		if frame, durs, ok = strings.Cut(rest, "+"); !ok {
			return ev, fmt.Errorf("stall needs +DURATION")
		}
		if ev.Dur, err = time.ParseDuration(durs); err != nil {
			return ev, err
		}
	}
	n, err := strconv.ParseUint(frame, 10, 64)
	if err != nil {
		return ev, err
	}
	if n == 0 || ev.From < 0 || ev.To < 0 || ev.From == ev.To {
		return ev, fmt.Errorf("needs distinct non-negative ranks and frame >= 1")
	}
	ev.AtFrame = n
	return ev, nil
}

// parseRankEvent parses "RANK@FRAME".
func parseRankEvent(s string) (RankEvent, error) {
	var ev RankEvent
	rank, frame, ok := strings.Cut(s, "@")
	if !ok {
		return ev, fmt.Errorf("missing @FRAME")
	}
	var err error
	if ev.Rank, err = strconv.Atoi(rank); err != nil {
		return ev, err
	}
	if ev.AtFrame, err = strconv.ParseUint(frame, 10, 64); err != nil {
		return ev, err
	}
	if ev.Rank < 0 || ev.AtFrame == 0 {
		return ev, fmt.Errorf("needs rank >= 0 and frame >= 1")
	}
	return ev, nil
}

// parsePartition parses "A.B.C|D.E@AFTER+FOR".
func parsePartition(s string) (*Partition, error) {
	groups, when, ok := strings.Cut(s, "@")
	if !ok {
		return nil, fmt.Errorf("missing @AFTER+FOR")
	}
	ga, gb, ok := strings.Cut(groups, "|")
	if !ok {
		return nil, fmt.Errorf("groups are not A|B")
	}
	after, fors, ok := strings.Cut(when, "+")
	if !ok {
		return nil, fmt.Errorf("window is not AFTER+FOR")
	}
	part := &Partition{}
	var err error
	if part.GroupA, err = parseRanks(ga); err != nil {
		return nil, err
	}
	if part.GroupB, err = parseRanks(gb); err != nil {
		return nil, err
	}
	if part.After, err = time.ParseDuration(after); err != nil {
		return nil, err
	}
	if part.For, err = time.ParseDuration(fors); err != nil {
		return nil, err
	}
	if part.For <= 0 {
		return nil, fmt.Errorf("partition duration must be positive")
	}
	return part, nil
}

func parseRanks(s string) ([]int, error) {
	var out []int
	for _, f := range strings.Split(s, ".") {
		r, err := strconv.Atoi(f)
		if err != nil {
			return nil, err
		}
		out = append(out, r)
	}
	sort.Ints(out)
	return out, nil
}
