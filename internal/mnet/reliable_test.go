package mnet

import (
	"encoding/binary"
	"strings"
	"sync"
	"testing"
	"time"
)

// joinAllRel joins np in-process nodes under the retry policy with the
// given recovery window and per-node fault plan (empty for none).
func joinAllRel(t *testing.T, addr string, np int, hb, window time.Duration, faults string) []*Node {
	t.Helper()
	nodes := make([]*Node, np)
	errs := make([]error, np)
	var wg sync.WaitGroup
	for i := 0; i < np; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			nodes[i], errs[i] = Join(Config{
				Launcher: addr, Token: TestToken,
				Rank: i, NP: np, PEs: np, Round: 1,
				Heartbeat: hb, Handshake: 10 * time.Second,
				FailurePolicy: FailRetry, RecoveryWindow: window,
				Faults: faults,
			})
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("rank %d join: %v", i, err)
		}
	}
	return nodes
}

// exchangeNumbered sends msgs numbered messages in each direction
// between nodes[0] and nodes[1] and asserts exactly-once, in-order
// delivery on both ends — the per-link FIFO contract the reliability
// layer must preserve through drops, dups, corruption and reordering.
func exchangeNumbered(t *testing.T, nodes []*Node, msgs int, midway func(sent int)) {
	t.Helper()
	var wg sync.WaitGroup
	for me := 0; me < 2; me++ {
		wg.Add(1)
		go func(me int) {
			defer wg.Done()
			n := nodes[me].lpes[0]
			for i := 0; i < msgs; i++ {
				buf := make([]byte, 8)
				binary.LittleEndian.PutUint64(buf, uint64(i))
				n.SendOwned(1-me, buf)
				if midway != nil && me == 0 {
					midway(i + 1)
				}
			}
			for want := 0; want < msgs; want++ {
				pkt, ok := n.Recv()
				if !ok {
					t.Errorf("rank %d: node stopped at message %d/%d", me, want, msgs)
					return
				}
				got := binary.LittleEndian.Uint64(pkt.Data)
				if got != uint64(want) {
					t.Errorf("rank %d: message %d arrived as %d (lost, duplicated, or reordered)", me, want, got)
					return
				}
			}
		}(me)
	}
	wg.Wait()
}

func TestRetrySurvivesMidRunLinkKill(t *testing.T) {
	// A transient network cut: the established mesh connection dies
	// mid-stream, both processes stay alive. Under FailRetry the dialer
	// redials, the session resumes from the cumulative acks, and every
	// message still arrives exactly once, in order.
	const np = 2
	hb := 50 * time.Millisecond
	addr, failCh := StartTestJob(t, np, hb)
	nodes := joinAllRel(t, addr, np, hb, 2*time.Second, "")
	startAll(t, nodes)

	const msgs = 400
	var killed sync.Once
	exchangeNumbered(t, nodes, msgs, func(sent int) {
		if sent == msgs/2 {
			killed.Do(func() {
				n := nodes[0]
				n.peersMu.Lock()
				pl := n.peers[1]
				n.peersMu.Unlock()
				pl.closeConn()
			})
		}
	})

	select {
	case err := <-failCh:
		t.Fatalf("job failed under retry policy: %v", err)
	case err := <-nodes[0].Failure():
		t.Fatalf("rank 0 failed under retry policy: %v", err)
	default:
	}
	downs := nodes[0].relLinkDown.Load() + nodes[1].relLinkDown.Load()
	recov := nodes[0].relRecovered.Load() + nodes[1].relRecovered.Load()
	if downs == 0 || recov == 0 {
		t.Errorf("link_downs=%d recoveries=%d, want both nonzero after a mid-run kill", downs, recov)
	}
	finishAll(t, nodes)
}

func TestRetryExactlyOnceUnderFaultPlan(t *testing.T) {
	// The property the satellite demands: under a plan that drops,
	// duplicates, corrupts and reorders data frames, the seq/ack replay
	// machinery never delivers a message twice nor out of per-link FIFO
	// order — asserted directly by the numbered exchange.
	const np = 2
	hb := 50 * time.Millisecond
	addr, failCh := StartTestJob(t, np, hb)
	nodes := joinAllRel(t, addr, np, hb, 5*time.Second,
		"seed=11,drop=4%,dup=4%,corrupt=2%,reorder=4%")
	startAll(t, nodes)

	exchangeNumbered(t, nodes, 500, nil)

	select {
	case err := <-failCh:
		t.Fatalf("job failed under retry policy: %v", err)
	default:
	}
	// The plan must actually have bitten, and the layer repaired it.
	var retrans, dupDrops, crcErrs uint64
	for _, n := range nodes {
		retrans += n.relRetrans.Load()
		dupDrops += n.relDupDrop.Load()
		crcErrs += n.relCrcErr.Load()
	}
	if retrans == 0 {
		t.Error("no retransmissions under a 4% drop plan")
	}
	if dupDrops == 0 {
		t.Error("no duplicate drops under a 4% dup plan")
	}
	if crcErrs == 0 {
		t.Error("no checksum errors under a 2% corrupt plan")
	}
	finishAll(t, nodes)
}

func TestRetryDeclaresPeerDownAfterWindow(t *testing.T) {
	// A peer that dies for good (no redial) must not hang the survivor
	// forever: when the recovery window exhausts, the peer-down hook
	// fires instead of a job failure.
	const np = 2
	hb := 20 * time.Millisecond
	window := 200 * time.Millisecond
	addr, _ := StartTestJob(t, np, hb)
	nodes := joinAllRel(t, addr, np, hb, window, "")
	startAll(t, nodes)

	type downEvent struct {
		pe     int
		reason string
	}
	downCh := make(chan downEvent, 1)
	nodes[0].SetPeerDownHandler(func(pe int, reason string) {
		select {
		case downCh <- downEvent{pe, reason}:
		default:
		}
	})

	// Rank 1 "dies": its supervisors stand down (closing) and its
	// sockets close, so it never redials or accepts a resume.
	dead := nodes[1]
	dead.closing.Store(true)
	dead.peersMu.Lock()
	for _, pl := range dead.peers {
		if pl != nil {
			pl.closeConn()
		}
	}
	dead.peersMu.Unlock()

	limit := window + 5*time.Second
	select {
	case ev := <-downCh:
		if ev.pe != 1 {
			t.Errorf("peer-down for pe %d, want 1", ev.pe)
		}
		if !strings.Contains(ev.reason, "not recovered within") {
			t.Errorf("peer-down reason %q, want recovery-window mention", ev.reason)
		}
	case err := <-nodes[0].Failure():
		t.Fatalf("rank 0 failed instead of notifying peer-down: %v", err)
	case <-time.After(limit):
		t.Fatalf("no peer-down notification within %v", limit)
	}
}

func TestFailfastRejectsDamagedFrame(t *testing.T) {
	// Under the default policy a checksum error is fatal, not repaired:
	// corruption injected on the only data frame must kill the job.
	const np = 2
	hb := 50 * time.Millisecond
	addr, _ := StartTestJob(t, np, hb)
	nodes := make([]*Node, np)
	errs := make([]error, np)
	var wg sync.WaitGroup
	for i := 0; i < np; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			faults := ""
			if i == 0 {
				faults = "seed=5,corrupt=1" // every outbound data frame damaged
			}
			nodes[i], errs[i] = Join(Config{
				Launcher: addr, Token: TestToken,
				Rank: i, NP: np, PEs: np, Round: 1,
				Heartbeat: hb, Handshake: 10 * time.Second,
				Faults: faults,
			})
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("rank %d join: %v", i, err)
		}
	}
	startAll(t, nodes)

	nodes[0].lpes[0].SendOwned(1, []byte("doomed"))
	limit := time.Duration(heartbeatMissFactor)*hb + 2*time.Second
	select {
	case err := <-nodes[1].Failure():
		if !strings.Contains(err.Error(), "link to peer 0") {
			t.Errorf("failure = %v, want peer-0 link loss", err)
		}
	case <-time.After(limit):
		t.Fatalf("corrupted frame not fatal under failfast within %v", limit)
	}
}

func TestJoinValidationReliability(t *testing.T) {
	base := Config{Rank: 0, NP: 2, PEs: 2, Launcher: "127.0.0.1:1", Token: "t"}

	cfg := base
	cfg.Heartbeat = 5 * time.Millisecond
	if _, err := Join(cfg); err == nil || !strings.Contains(err.Error(), "below the") {
		t.Errorf("sub-minimum heartbeat: err=%v, want minimum rejection", err)
	}

	cfg = base
	cfg.Heartbeat = 2 * time.Second
	cfg.Handshake = time.Second
	if _, err := Join(cfg); err == nil || !strings.Contains(err.Error(), "must exceed the heartbeat") {
		t.Errorf("handshake <= heartbeat: err=%v, want ordering rejection", err)
	}

	cfg = base
	cfg.FailurePolicy = "limp-along"
	if _, err := Join(cfg); err == nil || !strings.Contains(err.Error(), "unknown failure policy") {
		t.Errorf("bad policy: err=%v, want policy rejection", err)
	}

	cfg = base
	cfg.Faults = "drop=nonsense"
	if _, err := Join(cfg); err == nil || !strings.Contains(err.Error(), "fault plan") {
		t.Errorf("bad fault plan: err=%v, want plan rejection", err)
	}
}
