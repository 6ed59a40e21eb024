package mnet

import (
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"converse/internal/machine"
	"converse/internal/metrics"
)

// joinAll joins np in-process nodes to one round of a test job, each in
// its own goroutine like real workers.
func joinAll(t *testing.T, addr string, np, pes, rnd int, hb time.Duration) []*Node {
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
				Rank: i, NP: np, PEs: pes, Round: rnd,
				Heartbeat: hb, Handshake: 10 * time.Second,
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

// startAll completes the mesh go-barrier on every node.
func startAll(t *testing.T, nodes []*Node) {
	t.Helper()
	errs := make([]error, len(nodes))
	var wg sync.WaitGroup
	for i, n := range nodes {
		wg.Add(1)
		go func(i int, n *Node) {
			defer wg.Done()
			errs[i] = n.Start()
		}(i, n)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("rank %d start: %v", i, err)
		}
	}
}

// finishAll runs the termination barrier on every node.
func finishAll(t *testing.T, nodes []*Node) {
	t.Helper()
	errs := make([]error, len(nodes))
	var wg sync.WaitGroup
	for i, n := range nodes {
		wg.Add(1)
		go func(i int, n *Node) {
			defer wg.Done()
			errs[i] = n.Finish()
		}(i, n)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("rank %d finish: %v", i, err)
		}
	}
}

func TestNodesExchangeData(t *testing.T) {
	const np = 3
	addr, _ := StartTestJob(t, np, time.Second)
	nodes := joinAll(t, addr, np, np, 1, time.Second)
	startAll(t, nodes)

	reg := metrics.New(np)
	for i, n := range nodes {
		n.SetMetrics(reg.PE(i))
	}

	// Every PE sends one message to every peer (and itself: loopback).
	var wg sync.WaitGroup
	for i, n := range nodes {
		wg.Add(1)
		go func(i int, pe *NodePE) {
			defer wg.Done()
			for j := 0; j < np; j++ {
				pe.SendOwned(j, []byte(fmt.Sprintf("from %d to %d", i, j)))
			}
			seen := map[int]bool{}
			for len(seen) < np {
				pkt, ok := pe.Recv()
				if !ok {
					t.Errorf("rank %d: node stopped before all messages arrived", i)
					return
				}
				want := fmt.Sprintf("from %d to %d", pkt.Src, i)
				if string(pkt.Data) != want {
					t.Errorf("rank %d: got %q from %d, want %q", i, pkt.Data, pkt.Src, want)
				}
				if seen[pkt.Src] {
					t.Errorf("rank %d: duplicate message from %d", i, pkt.Src)
				}
				seen[pkt.Src] = true
			}
		}(i, n.lpes[0])
	}
	wg.Wait()
	finishAll(t, nodes)

	// Remote traffic must show up in the wire counters; loopback must not.
	snap := reg.Snapshot()
	for i := range nodes {
		s := snap.PEs[i]
		for j := 0; j < np; j++ {
			if j == i {
				if s.NetTxFrames[j] != 0 {
					t.Errorf("rank %d: %d loopback frames counted as wire traffic", i, s.NetTxFrames[j])
				}
				continue
			}
			if s.NetTxFrames[j] == 0 || s.NetTxBytes[j] == 0 {
				t.Errorf("rank %d: no wire frames recorded to peer %d", i, j)
			}
		}
	}
}

func TestTryRecvBatchDrainsInbox(t *testing.T) {
	const np = 2
	addr, _ := StartTestJob(t, np, time.Second)
	nodes := joinAll(t, addr, np, np, 1, time.Second)
	startAll(t, nodes)

	const msgs = 50
	for i := 0; i < msgs; i++ {
		nodes[0].lpes[0].SendOwned(1, []byte{byte(i)})
	}
	got := 0
	deadline := time.Now().Add(5 * time.Second)
	var buf [8]machine.Packet
	for got < msgs && time.Now().Before(deadline) {
		k := nodes[1].lpes[0].TryRecvBatch(buf[:])
		for _, pkt := range buf[:k] {
			if pkt.Data[0] != byte(got) {
				t.Fatalf("message %d arrived out of order (got payload %d)", got, pkt.Data[0])
			}
			got++
		}
		if k == 0 {
			time.Sleep(time.Millisecond)
		}
	}
	if got != msgs {
		t.Fatalf("drained %d messages, want %d", got, msgs)
	}
	finishAll(t, nodes)
}

func TestSurplusRanksHoldTheJob(t *testing.T) {
	// converserun -np 3 running a 2-PE machine: rank 2 is surplus. It
	// joins the rendezvous and the barriers but is not active.
	const np, pes = 3, 2
	addr, _ := StartTestJob(t, np, time.Second)
	nodes := joinAll(t, addr, np, pes, 1, time.Second)
	startAll(t, nodes)

	if !nodes[0].Active() || !nodes[1].Active() {
		t.Fatal("ranks below PEs must be active")
	}
	if nodes[2].Active() {
		t.Fatal("rank 2 of a 2-PE machine must be surplus")
	}
	nodes[0].lpes[0].SendOwned(1, []byte("hi"))
	if pkt, ok := nodes[1].lpes[0].Recv(); !ok || string(pkt.Data) != "hi" {
		t.Fatalf("active pair exchange failed: %v %q", ok, pkt.Data)
	}
	// The release barrier needs only the PEs' dones, but frees all np.
	finishAll(t, nodes)
}

func TestSequentialRounds(t *testing.T) {
	// A program building two machines in sequence (examples/quickstart):
	// round 1 uses all ranks, round 2 only a subset, matched by number.
	const np = 3
	addr, _ := StartTestJob(t, np, time.Second)
	for rnd := 1; rnd <= 2; rnd++ {
		pes := np
		if rnd == 2 {
			pes = 2
		}
		nodes := joinAll(t, addr, np, pes, rnd, time.Second)
		startAll(t, nodes)
		nodes[0].lpes[0].SendOwned(pes-1, []byte("round"))
		if pkt, ok := nodes[pes-1].lpes[0].Recv(); !ok || string(pkt.Data) != "round" {
			t.Fatalf("round %d exchange failed: %v %q", rnd, ok, pkt.Data)
		}
		finishAll(t, nodes)
	}
}

func TestPeerDeathFailsJobFast(t *testing.T) {
	const np = 3
	hb := 100 * time.Millisecond
	addr, failCh := StartTestJob(t, np, hb)
	nodes := joinAll(t, addr, np, np, 1, hb)
	startAll(t, nodes)

	// Simulate rank 2's process dying mid-run: its goroutines stand down
	// (a dead process reports nothing) and its sockets close without any
	// protocol goodbye. The control connection goes first, and the
	// launcher must blame rank 2 before any survivor can report a loss:
	// each control connection has its own reader, so a survivor's report
	// racing the launcher's EOF could otherwise be seen first.
	dead := nodes[2]
	dead.closing.Store(true)
	dead.torn.Store(true)
	dead.ctrl.Close()
	limit := time.Duration(heartbeatMissFactor)*hb + 2*time.Second
	select {
	case err := <-failCh:
		if !strings.Contains(err.Error(), "worker rank 2") {
			t.Errorf("job's first failure = %v, want it attributed to rank 2", err)
		}
	case <-time.After(limit):
		t.Fatalf("launcher did not notice rank 2's death within %v", limit)
	}
	dead.peersMu.Lock()
	for _, pl := range dead.peers {
		if pl != nil {
			pl.closeConn()
		}
	}
	dead.peersMu.Unlock()

	// Survivors must observe the failure within the heartbeat allowance
	// (EOF makes it near-immediate). Which link a survivor loses first
	// is a race — a survivor that fails closes its own links too.
	for _, n := range nodes[:2] {
		select {
		case err := <-n.Failure():
			if !strings.Contains(err.Error(), "link to peer") {
				t.Errorf("rank %d failure = %v, want a link loss", n.ID(), err)
			}
			if _, ok := n.lpes[0].Recv(); ok {
				t.Errorf("rank %d: Recv still delivering after failure", n.ID())
			}
		case <-time.After(limit):
			t.Fatalf("rank %d did not observe peer death within %v", n.ID(), limit)
		}
	}
}

func TestDescribeBlocked(t *testing.T) {
	const np = 2
	addr, _ := StartTestJob(t, np, time.Second)
	nodes := joinAll(t, addr, np, np, 1, time.Second)
	startAll(t, nodes)

	n, pe := nodes[0], nodes[0].lpes[0]
	recvReturned := make(chan struct{})
	go func() {
		pe.Recv()
		close(recvReturned)
	}()
	deadline := time.Now().Add(2 * time.Second)
	for !strings.Contains(n.DescribeBlocked(), "blocked-in-recv") {
		if time.Now().After(deadline) {
			t.Fatalf("blocked node never reported blocked-in-recv: %q", n.DescribeBlocked())
		}
		time.Sleep(time.Millisecond)
	}
	pe.NoteThreadsSuspended(2)
	pe.NoteBarrierWaiters(1)
	d := n.DescribeBlocked()
	for _, want := range []string{"rank0(pe0)", "threads-suspended=2", "barrier-waiters=1", "inbox=0"} {
		if !strings.Contains(d, want) {
			t.Errorf("DescribeBlocked() = %q, missing %q", d, want)
		}
	}
	nodes[1].lpes[0].SendOwned(0, []byte("unblock"))
	<-recvReturned
	finishAll(t, nodes)
}

func TestJoinValidation(t *testing.T) {
	if _, err := Join(Config{Rank: 2, NP: 2, PEs: 2}); err == nil {
		t.Error("rank out of range accepted")
	}
	if _, err := Join(Config{Rank: 0, NP: 2, PEs: 3}); err == nil {
		t.Error("machine larger than the job accepted")
	}
}

func TestConsoleInputUnavailable(t *testing.T) {
	pe := &NodePE{}
	if _, err := pe.Scanf("%d", nil); err == nil {
		t.Error("Scanf should fail on the network machine")
	}
	if _, err := pe.ReadLine(); err == nil {
		t.Error("ReadLine should fail on the network machine")
	}
}

// TestInterNodeSendDoesNotCopy pins the routed send path: a message for
// another node is queued on the link with its PE route beside it, so the
// send allocates nothing — no copy of the message to prepend a header.
// The link's writer is never started, so every send stays queued.
func TestInterNodeSendDoesNotCopy(t *testing.T) {
	n := &Node{
		cfg:    Config{Rank: 0, NP: 2, PEs: 4, PPN: 2},
		topo:   machine.UniformTopology(4, 2),
		peers:  make([]*peerLink, 2),
		stopCh: make(chan struct{}),
	}
	n.lpes = []*NodePE{{n: n, pe: 0, inbox: machine.NewInbox()}, {n: n, pe: 1, inbox: machine.NewInbox()}}
	pl := newPeerLink(n, 1, nil)
	n.peers[1] = pl

	msg := make([]byte, 256)
	if allocs := testing.AllocsPerRun(100, func() { n.lpes[1].SendOwned(3, msg) }); allocs != 0 {
		t.Errorf("inter-node send: %v allocs, want 0", allocs)
	}
	m := <-pl.out
	if m.src != 1 || m.dst != 3 || &m.data[0] != &msg[0] {
		t.Errorf("queued route %d->%d (same buffer: %v), want 1->3 on the sender's buffer", m.src, m.dst, &m.data[0] == &msg[0])
	}
}

// TestBadRouteFailsJob writes a data frame with an impossible PE route
// onto a live link (below the sender's writer, as a buggy or hostile
// peer would): the receiver must fail the job loudly instead of
// delivering the message or indexing per-PE state with the bogus route.
// TestDecodeDataRejectsBadRoutes covers the other bad routes.
func TestBadRouteFailsJob(t *testing.T) {
	const np = 2
	hb := 100 * time.Millisecond
	addr, failCh := StartTestJob(t, np, hb)
	nodes := joinAll(t, addr, np, np, 1, hb)
	startAll(t, nodes)
	defer func() {
		for _, n := range nodes {
			n.Close()
		}
	}()

	pl := nodes[0].peers[1]
	pl.connMu.Lock()
	conn := pl.conn
	pl.connMu.Unlock()
	// One Write call: it cannot interleave with the writer's own flushes
	// on the same connection.
	if _, err := conn.Write(encodeDataFrame(1, dataMsg{src: 7, dst: 1, data: []byte("bogus")})); err != nil {
		t.Fatal(err)
	}

	const want = "routed from PE 7, which is not on sending node 0"
	limit := 5 * time.Second
	select {
	case err := <-nodes[1].Failure():
		if !strings.Contains(err.Error(), "bad data frame from rank 0") || !strings.Contains(err.Error(), want) {
			t.Errorf("failure = %v, want bad-route report %q", err, want)
		}
	case <-time.After(limit):
		t.Fatalf("bad route not fatal within %v", limit)
	}
	// The launcher hears of it too, though which report lands first —
	// rank 1's, or rank 0's loss of the link rank 1 shut — is a race
	// between their control connections.
	select {
	case <-failCh:
	case <-time.After(limit):
		t.Fatalf("launcher saw no job failure within %v", limit)
	}
	var buf [1]machine.Packet
	if k := nodes[1].lpes[0].TryRecvBatch(buf[:]); k != 0 {
		t.Errorf("misrouted message delivered: %q", buf[0].Data)
	}
}
