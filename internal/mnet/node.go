package mnet

import (
	"bufio"
	"fmt"
	"net"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"converse/internal/faultnet"
	"converse/internal/machine"
	"converse/internal/metrics"
)

// Config describes one worker node's place in a converserun job. Most
// programs never build it by hand: JoinFromEnv reads the launcher's
// environment. Tests construct it directly to run nodes in-process.
type Config struct {
	// Launcher is the control-server address (host:port).
	Launcher string
	// Token is the job-unique token; mismatched connections are rejected.
	Token string
	// Rank is this worker's rank in [0, NP).
	Rank int
	// NP is the worker-process count of the job.
	NP int
	// PEs is the processor count of the machine being built this round.
	// The machine's node count (PEs grouped by PPN or NodeSizes) must not
	// exceed NP; ranks beyond it become inactive surplus nodes.
	PEs int
	// PPN is the PE-per-node capacity: this process hosts up to PPN PEs
	// of the machine (node r hosts PEs [r*PPN, min((r+1)*PPN, PEs))).
	// Zero or 1 is the classic 1:1 rank↔PE mapping. Normally set from
	// the launcher environment (converserun -ppn).
	PPN int
	// NodeSizes, when non-nil, is an explicit node map — NodeSizes[g]
	// PEs on node g, contiguous, summing to PEs — overriding PPN. Every
	// worker of the job must pass the same map. Tests use it to run
	// asymmetric topologies; converserun jobs use PPN.
	NodeSizes []int
	// Round overrides the rendezvous round number. Zero (the norm) takes
	// the next number from the process-wide counter — correct because a
	// real worker process holds one node at a time. Tests that run
	// several nodes of one machine inside a single process must assign
	// the shared round themselves.
	Round int
	// Heartbeat is the link liveness interval (default 1s, minimum
	// 10ms). A link silent for heartbeatMissFactor intervals fails the
	// job (FailFast) or enters recovery (FailRetry).
	Heartbeat time.Duration
	// Handshake bounds rendezvous and mesh connection setup (default
	// 30s). It must exceed Heartbeat or the liveness contract is
	// un-keepable during setup.
	Handshake time.Duration
	// FailurePolicy selects the node's reaction to mesh-link faults:
	// FailFast (default) or FailRetry (see the package comment).
	FailurePolicy string
	// RecoveryWindow bounds link recovery under FailRetry (default
	// defaultRecoveryFactor heartbeats). A link still down when it
	// closes triggers the peer-down notification.
	RecoveryWindow time.Duration
	// Faults, when non-empty, is a fault-injection plan (internal/
	// faultnet grammar) applied to this node's outbound data frames.
	Faults string
	// Advertise, when non-empty, is the host other ranks should dial to
	// reach this node's mesh listener. The listener then binds all
	// interfaces and the node table carries Advertise:port instead of a
	// loopback address — the first step toward cross-host fleets. Empty
	// keeps the loopback-only default.
	Advertise string
	// TolerateCtrlLoss keeps the node alive when the launcher control
	// connection dies after rendezvous. Converse jobs under converserun
	// die with their launcher (the process tree is doomed anyway), but a
	// conversed daemon's in-process jobs must survive a gateway restart:
	// with this set, a mid-run control loss is recorded instead of
	// failing the job, console output falls back to the local streams,
	// and Finish — whose done/release barrier needs the launcher —
	// degrades to a short linger (so peers' final frames flush) followed
	// by teardown. Control loss during rendezvous still fails Join/Start:
	// a mesh that never formed has nothing to keep running.
	TolerateCtrlLoss bool
}

// roundCounter numbers this process's rendezvous rounds. Each
// Join is one round; the launcher matches rounds across workers by
// number, which is how a program building machines in sequence
// (examples/quickstart) stays in lockstep without any shared state.
var roundCounter atomic.Int64

// Node is one Converse node of a multi-process machine: this process's
// endpoint of the TCP machine layer, hosting one or more PEs of the
// machine (Config.PPN/NodeSizes; one by default) and none on a surplus
// rank. It owns the job lifecycle — rendezvous, mesh, failure, teardown
// — and satisfies internal/core's NetSubstrate; each hosted PE is a
// NodePE (LocalPE), the Substrate the core drives.
type Node struct {
	cfg   Config
	round int
	epoch time.Time

	// topo is the machine's node map (never nil); lpes holds this
	// process's PEs, empty on surplus ranks.
	topo *machine.Topology
	lpes []*NodePE

	// depot is the node's shared buffer tier, behind each local PE's
	// message pool: link writers return sent messages' buffers to it
	// and link readers read inbound messages into buffers drawn from it.
	depot machine.Depot

	ctrl   net.Conn
	ctrlMu sync.Mutex // serializes control-frame writes

	ls net.Listener // mesh listener

	// Rendezvous state, fed by the control reader goroutine.
	tableCh   chan tableMsg
	goCh      chan goMsg
	releaseCh chan releaseMsg

	// Mesh state.
	peersMu    sync.Mutex
	tableAddrs []string    // mesh addresses indexed by rank (from fTable)
	peers      []*peerLink // indexed by rank; nil at own rank
	meshCount  int
	meshReady  chan struct{}

	stopCh   chan struct{}
	stopOnce sync.Once
	closing  atomic.Bool // winding down: peer link loss is expected
	torn     atomic.Bool // teardown done: control-connection loss too
	failCh   chan error
	failOnce sync.Once

	// Control-loss tracking under Config.TolerateCtrlLoss: closed (once)
	// when the launcher connection dies mid-run instead of failing the
	// job. Finish consults it to pick the detached teardown path.
	ctrlLost     chan struct{}
	ctrlLostOnce sync.Once

	met atomic.Pointer[metrics.PE]

	// Fault injection (nil without a plan) and the scripted-crash hook
	// tests install in place of os.Exit.
	inj     *faultnet.Injector
	crashFn func()

	// Peer-down notification (FailRetry): invoked from a link goroutine
	// when a peer's recovery window closes. Without a handler, peer
	// death falls back to failing the job.
	peerDownMu sync.Mutex
	peerDownFn func(pe int, reason string)

	// Reliability counters (also mirrored into metrics when attached);
	// Finish prints them in the greppable summary line.
	relRetrans   atomic.Uint64
	relDupDrop   atomic.Uint64
	relCrcErr    atomic.Uint64
	relLinkDown  atomic.Uint64
	relRecovered atomic.Uint64
	relWireErr   atomic.Uint64
}

// Join performs the node's half of the rendezvous for one round: bind
// the mesh listener, connect to the launcher, announce ourselves, and
// wait for the node table. The mesh itself is wired in Start.
func Join(cfg Config) (*Node, error) {
	if cfg.Rank < 0 || cfg.Rank >= cfg.NP {
		return nil, fmt.Errorf("mnet: rank %d outside job of %d workers", cfg.Rank, cfg.NP)
	}
	if cfg.PEs < 1 {
		return nil, fmt.Errorf("mnet: machine of %d PEs", cfg.PEs)
	}
	var topo *machine.Topology
	switch {
	case cfg.NodeSizes != nil:
		topo = machine.NewTopology(cfg.NodeSizes)
		if topo.NumPEs() != cfg.PEs {
			return nil, fmt.Errorf("mnet: node map %v covers %d PEs, machine has %d", cfg.NodeSizes, topo.NumPEs(), cfg.PEs)
		}
	case cfg.PPN > 1:
		topo = machine.UniformTopology(cfg.PEs, cfg.PPN)
	default:
		topo = machine.FlatTopology(cfg.PEs)
	}
	if topo.NumNodes() > cfg.NP {
		return nil, fmt.Errorf("mnet: machine of %d PEs across %d nodes does not fit a job of %d workers (raise converserun -np/-nodes or -ppn)",
			cfg.PEs, topo.NumNodes(), cfg.NP)
	}
	if cfg.Heartbeat != 0 && cfg.Heartbeat < minHeartbeat {
		return nil, fmt.Errorf("mnet: heartbeat %v below the %v minimum (liveness detection would be pure noise)",
			cfg.Heartbeat, minHeartbeat)
	}
	if cfg.Heartbeat <= 0 {
		cfg.Heartbeat = defaultHeartbeat
	}
	if cfg.Handshake <= 0 {
		cfg.Handshake = defaultHandshake
	}
	if cfg.Handshake <= cfg.Heartbeat {
		return nil, fmt.Errorf("mnet: handshake timeout %v must exceed the heartbeat %v (setup would be declared dead before it can finish)",
			cfg.Handshake, cfg.Heartbeat)
	}
	switch cfg.FailurePolicy {
	case "":
		cfg.FailurePolicy = FailFast
	case FailFast, FailRetry:
	default:
		return nil, fmt.Errorf("mnet: unknown failure policy %q (want %q or %q)",
			cfg.FailurePolicy, FailFast, FailRetry)
	}
	if cfg.RecoveryWindow <= 0 {
		cfg.RecoveryWindow = defaultRecoveryFactor * cfg.Heartbeat
	}
	plan, err := faultnet.Parse(cfg.Faults)
	if err != nil {
		return nil, fmt.Errorf("mnet: bad fault plan: %w", err)
	}
	rnd := cfg.Round
	if rnd == 0 {
		rnd = int(roundCounter.Add(1))
	}
	n := &Node{
		cfg:       cfg,
		round:     rnd,
		epoch:     time.Now(),
		topo:      topo,
		tableCh:   make(chan tableMsg, 1),
		goCh:      make(chan goMsg, 1),
		releaseCh: make(chan releaseMsg, 1),
		peers:     make([]*peerLink, cfg.NP),
		meshReady: make(chan struct{}),
		stopCh:    make(chan struct{}),
		failCh:    make(chan error, 1),
		ctrlLost:  make(chan struct{}),
		inj:       faultnet.New(plan, cfg.Rank),
	}
	if cfg.Rank < topo.NumNodes() {
		first := topo.NodeFirst(cfg.Rank)
		for pe := first; pe < first+topo.NodeSize(cfg.Rank); pe++ {
			n.lpes = append(n.lpes, &NodePE{n: n, pe: pe, inbox: machine.NewInbox()})
		}
	}
	deadline := time.Now().Add(cfg.Handshake)

	// Loopback-only by default; with Advertise the listener accepts from
	// any interface and the node table carries the advertised host, so
	// peers on other machines can dial it.
	bind := "127.0.0.1:0"
	if cfg.Advertise != "" {
		bind = ":0"
	}
	ls, err := net.Listen("tcp", bind)
	if err != nil {
		return nil, fmt.Errorf("mnet: binding mesh listener: %w", err)
	}
	n.ls = ls
	meshAddr := ls.Addr().String()
	if cfg.Advertise != "" {
		_, port, perr := net.SplitHostPort(meshAddr)
		if perr != nil {
			ls.Close()
			return nil, fmt.Errorf("mnet: mesh listener address %q: %w", meshAddr, perr)
		}
		meshAddr = net.JoinHostPort(cfg.Advertise, port)
	}

	ctrl, err := dialPeer(n, cfg.Launcher, deadline)
	if err != nil {
		ls.Close()
		return nil, fmt.Errorf("mnet: connecting to launcher %s: %w", cfg.Launcher, err)
	}
	n.ctrl = ctrl
	go n.ctrlReadLoop()
	go n.pingLoop()
	go n.acceptLoop()

	hello := helloMsg{
		Magic: protoMagic, Version: protoVersion, Token: cfg.Token,
		Round: n.round, Rank: cfg.Rank, PEs: cfg.PEs, Nodes: topo.NumNodes(),
		Addr: meshAddr,
	}
	if err := n.writeCtrl(fHello, hello); err != nil {
		n.teardown()
		return nil, fmt.Errorf("mnet: sending hello: %w", err)
	}
	select {
	case tbl := <-n.tableCh:
		if tbl.Round != n.round || len(tbl.Addrs) != cfg.NP {
			n.teardown()
			return nil, fmt.Errorf("mnet: node table for round %d with %d addrs, want round %d with %d",
				tbl.Round, len(tbl.Addrs), n.round, cfg.NP)
		}
		n.setTable(tbl)
	case err := <-n.failCh:
		n.teardown()
		return nil, err
	case <-n.ctrlLost:
		// TolerateCtrlLoss only shields a formed mesh; a launcher that
		// dies mid-rendezvous leaves nothing worth keeping alive.
		n.teardown()
		return nil, fmt.Errorf("mnet: rank %d: launcher connection lost during rendezvous", cfg.Rank)
	case <-time.After(time.Until(deadline)):
		n.teardown()
		return nil, fmt.Errorf("mnet: rank %d: no node table within %v (are all %d workers up?)",
			cfg.Rank, cfg.Handshake, cfg.NP)
	}
	return n, nil
}

// setTable records the round's node table; dialing happens in Start.
func (n *Node) setTable(tbl tableMsg) {
	n.peersMu.Lock()
	n.tableAddrs = tbl.Addrs
	n.peersMu.Unlock()
}

// --- identity --------------------------------------------------------

// ID returns this node's first local processor number: with the classic
// one-PE-per-process mapping, rank and PE coincide; under -ppn it is
// the first PE of this node's contiguous range. Surplus ranks, which
// hold no PE, report their rank.
func (n *Node) ID() int {
	if len(n.lpes) > 0 {
		return n.lpes[0].pe
	}
	return n.cfg.Rank
}

// LocalPEs reports how many of the machine's PEs this process hosts
// (zero on surplus ranks). internal/core builds one runtime instance per
// local PE.
func (n *Node) LocalPEs() int { return len(n.lpes) }

// LocalPE returns the i-th local PE's substrate. The return type is any
// for the same structural-typing reason faultnet mirrors core's
// Substrate: this package cannot name internal/core's interface without
// an import cycle, and core asserts the concrete value itself.
func (n *Node) LocalPE(i int) any { return n.lpes[i] }

// Active reports whether this process hosts any of the machine's PEs
// (ranks beyond the node count are surplus: they hold the job together
// but run no driver).
func (n *Node) Active() bool { return len(n.lpes) > 0 }

// now returns wall-clock microseconds since this node joined: the clock
// of every local PE. The network machine runs on real time; cost models
// and virtual-time charging do not apply.
func (n *Node) now() float64 { return float64(time.Since(n.epoch)) / 1e3 }

// SetMetrics attaches a per-PE metrics registry; per-peer wire counters
// (frames, bytes, reconnects, stalls) record into it.
func (n *Node) SetMetrics(m *metrics.PE) { n.met.Store(m) }

func (n *Node) heartbeat() time.Duration { return n.cfg.Heartbeat }

// rel reports whether the reliability sub-layer is on.
func (n *Node) rel() bool { return n.cfg.FailurePolicy == FailRetry }

// recoveryWindow bounds one link-recovery attempt under FailRetry.
func (n *Node) recoveryWindow() time.Duration { return n.cfg.RecoveryWindow }

// rto is the retransmit timeout: how long an unacked frame may sit in
// the ring before the sender replays it unprompted. Half a heartbeat
// keeps tail-drop stalls well inside the liveness allowance; the floor
// avoids spurious replays under aggressive test heartbeats.
func (n *Node) rto() time.Duration {
	r := n.cfg.Heartbeat / 2
	if r < 20*time.Millisecond {
		r = 20 * time.Millisecond
	}
	return r
}

// SetPeerDownHandler registers the hook invoked (from a link
// supervisor goroutine) when a peer is declared down under FailRetry.
// Without a handler, peer death fails the job like FailFast would.
func (n *Node) SetPeerDownHandler(f func(pe int, reason string)) {
	n.peerDownMu.Lock()
	n.peerDownFn = f
	n.peerDownMu.Unlock()
}

// peerDown escalates an unrecovered link: notify the registered handler
// — once per PE the dead rank hosted, since losing a node process loses
// all of its PEs — or fail the job when nobody is listening.
func (n *Node) peerDown(peer int, reason string) {
	n.peerDownMu.Lock()
	f := n.peerDownFn
	n.peerDownMu.Unlock()
	if f != nil {
		if peer < n.topo.NumNodes() {
			first := n.topo.NodeFirst(peer)
			for pe := first; pe < first+n.topo.NodeSize(peer); pe++ {
				f(pe, reason)
			}
		}
		return
	}
	n.Fail(fmt.Errorf("mnet: rank %d: peer %d down: %s", n.cfg.Rank, peer, reason))
}

// scriptedCrash executes a fault plan's crash= event: tests install a
// hook via export_test; real workers exit hard, exactly like a kill.
func (n *Node) scriptedCrash() {
	if f := n.crashFn; f != nil {
		f()
		return
	}
	fmt.Fprintf(os.Stderr, "mnet: rank %d: crashing on fault-plan script\n", n.cfg.Rank)
	os.Exit(3)
}

func (n *Node) noteTx(peer, bytes int) {
	if m := n.met.Load(); m != nil {
		m.NetTx(peer, bytes)
	}
}

func (n *Node) noteRx(peer, bytes int) {
	if m := n.met.Load(); m != nil {
		m.NetRx(peer, bytes)
	}
}

func (n *Node) noteStall() {
	if m := n.met.Load(); m != nil {
		m.NetStall()
	}
}

func (n *Node) noteReconnect() {
	if m := n.met.Load(); m != nil {
		m.NetReconnect()
	}
}

func (n *Node) noteRetransmit(peer int) {
	n.relRetrans.Add(1)
	if m := n.met.Load(); m != nil {
		m.NetRetransmit()
	}
}

func (n *Node) noteDupDrop(peer int) {
	n.relDupDrop.Add(1)
	if m := n.met.Load(); m != nil {
		m.NetDupDrop()
	}
}

func (n *Node) noteCrcError(peer int) {
	n.relCrcErr.Add(1)
	if m := n.met.Load(); m != nil {
		m.NetCrcError()
	}
}

func (n *Node) noteLinkDown(peer int) {
	n.relLinkDown.Add(1)
	if m := n.met.Load(); m != nil {
		m.NetLinkDown()
	}
}

func (n *Node) noteRecovered(peer int) {
	n.relRecovered.Add(1)
	if m := n.met.Load(); m != nil {
		m.NetRecovered()
	}
}

func (n *Node) noteWireErr(peer int) {
	if n.closing.Load() {
		return // teardown closes connections; those errors are expected
	}
	n.relWireErr.Add(1)
	if m := n.met.Load(); m != nil {
		m.NetWireErr(peer)
	}
}

// --- mesh setup ------------------------------------------------------

// Start wires the full mesh and completes the go-barrier: rank i dials
// every lower rank and accepts from every higher one, reports mesh-ok to
// the launcher, and blocks until the launcher's go — so when Start
// returns, every link of every node is up and the first user send cannot
// race an accept.
func (n *Node) Start() error {
	deadline := time.Now().Add(n.cfg.Handshake)
	n.peersMu.Lock()
	addrs := n.tableAddrs
	n.peersMu.Unlock()
	for j := 0; j < n.cfg.Rank; j++ {
		conn, err := dialPeer(n, addrs[j], deadline)
		if err != nil {
			n.Fail(err)
			return err
		}
		if err := writeJSONFrame(conn, fPeerHello, peerHelloMsg{
			Token: n.cfg.Token, Round: n.round, From: n.cfg.Rank,
		}); err != nil {
			conn.Close()
			err = fmt.Errorf("mnet: rank %d: peer hello to rank %d: %w", n.cfg.Rank, j, err)
			n.Fail(err)
			return err
		}
		if err := n.register(j, conn); err != nil {
			n.Fail(err)
			return err
		}
	}
	if n.cfg.NP == 1 {
		close(n.meshReady)
	}
	select {
	case <-n.meshReady:
	case err := <-n.failCh:
		return err
	case <-n.ctrlLost:
		err := fmt.Errorf("mnet: rank %d: launcher connection lost during mesh setup", n.cfg.Rank)
		n.Fail(err)
		return err
	case <-time.After(time.Until(deadline)):
		err := fmt.Errorf("mnet: rank %d: mesh incomplete after %v (%d/%d links)",
			n.cfg.Rank, n.cfg.Handshake, n.linkCount(), n.cfg.NP-1)
		n.Fail(err)
		return err
	}
	if err := n.writeCtrl(fMeshOK, meshOKMsg{Round: n.round, Rank: n.cfg.Rank}); err != nil {
		n.Fail(err)
		return err
	}
	select {
	case <-n.goCh:
		if n.inj != nil {
			n.inj.StartClock()
		}
		return nil
	case err := <-n.failCh:
		return err
	case <-n.ctrlLost:
		err := fmt.Errorf("mnet: rank %d: launcher connection lost before go", n.cfg.Rank)
		n.Fail(err)
		return err
	case <-time.After(time.Until(deadline)):
		err := fmt.Errorf("mnet: rank %d: no go from launcher within %v", n.cfg.Rank, n.cfg.Handshake)
		n.Fail(err)
		return err
	}
}

// register installs the link to rank j and starts its goroutines; the
// mesh is ready when all NP-1 links are up.
func (n *Node) register(j int, conn net.Conn) error {
	n.peersMu.Lock()
	if j < 0 || j >= n.cfg.NP || j == n.cfg.Rank {
		n.peersMu.Unlock()
		conn.Close()
		return fmt.Errorf("mnet: rank %d: mesh connection claims invalid rank %d", n.cfg.Rank, j)
	}
	if n.peers[j] != nil {
		n.peersMu.Unlock()
		conn.Close()
		return fmt.Errorf("mnet: rank %d: duplicate mesh connection from rank %d", n.cfg.Rank, j)
	}
	pl := newPeerLink(n, j, conn)
	if j < len(n.tableAddrs) {
		pl.addr = n.tableAddrs[j] // recovery redial target
	}
	n.peers[j] = pl
	n.meshCount++
	ready := n.meshCount == n.cfg.NP-1
	n.peersMu.Unlock()
	pl.start()
	if ready {
		close(n.meshReady)
	}
	return nil
}

func (n *Node) linkCount() int {
	n.peersMu.Lock()
	defer n.peersMu.Unlock()
	return n.meshCount
}

// acceptLoop admits mesh connections from higher-ranked peers.
func (n *Node) acceptLoop() {
	for {
		conn, err := n.ls.Accept()
		if err != nil {
			return // listener closed during teardown
		}
		go n.handleAccept(conn)
	}
}

func (n *Node) handleAccept(conn net.Conn) {
	conn.SetReadDeadline(time.Now().Add(n.cfg.Handshake))
	k, payload, err := readFrame(conn)
	if err != nil || k != fPeerHello {
		conn.Close()
		return
	}
	var ph peerHelloMsg
	if decodeJSON(k, payload, &ph) != nil ||
		ph.Token != n.cfg.Token || ph.Round != n.round {
		conn.Close()
		return
	}
	if ph.Resume {
		// Session-resuming reconnect of an established link: answer with
		// our cumulative ack and hand the connection to the recovering
		// link's supervisor. Only meaningful under FailRetry, and only on
		// links where the peer is the dialing side.
		n.peersMu.Lock()
		var pl *peerLink
		if ph.From >= 0 && ph.From < len(n.peers) {
			pl = n.peers[ph.From]
		}
		n.peersMu.Unlock()
		if pl == nil || !n.rel() || pl.dialer {
			conn.Close()
			return
		}
		if writeJSONFrame(conn, fPeerHelloAck, peerHelloAckMsg{Ack: pl.rxDelivered.Load()}) != nil {
			conn.Close()
			return
		}
		conn.SetReadDeadline(time.Time{})
		pl.offerConn(conn, ph.Ack)
		return
	}
	if ph.From <= n.cfg.Rank {
		conn.Close()
		return
	}
	conn.SetReadDeadline(time.Time{})
	if err := n.register(ph.From, conn); err != nil {
		n.Fail(err)
	}
}

// --- control connection ---------------------------------------------

// ReportMonitor tells the launcher where this worker's introspection
// endpoint listens, over the control connection.
func (n *Node) ReportMonitor(addr string) error {
	return n.writeCtrl(fMonitorAddr, monitorAddrMsg{Rank: n.cfg.Rank, Addr: addr})
}

// console relays an atomic write to the launcher's standard output or
// error (CmiPrintf/CmiError forwarding, as charmrun does).
func (n *Node) console(isErr bool, text string) {
	err := n.writeCtrl(fConsole, consoleMsg{Rank: n.cfg.Rank, Err: isErr, Text: text})
	if err != nil {
		// Control connection gone (teardown or launcher death): fall back
		// to the local streams so the output is not lost.
		if isErr {
			fmt.Fprint(os.Stderr, text)
		} else {
			fmt.Fprint(os.Stdout, text)
		}
	}
}

func (n *Node) writeCtrl(k kind, msg any) error {
	n.ctrlMu.Lock()
	defer n.ctrlMu.Unlock()
	return writeJSONFrame(n.ctrl, k, msg)
}

// ctrlReadLoop dispatches launcher frames to the rendezvous channels.
// Losing the control connection while the job runs means the launcher
// died; the only sane response is to fail with it — unless the node
// was configured to tolerate it (conversed daemons keep jobs running
// across a gateway restart), in which case the loss is recorded for
// Finish and the job carries on over the mesh alone.
func (n *Node) ctrlReadLoop() {
	r := bufio.NewReader(n.ctrl)
	for {
		k, payload, err := readFrame(r)
		if err != nil {
			if !n.torn.Load() {
				if n.cfg.TolerateCtrlLoss {
					n.markCtrlLost()
				} else {
					n.Fail(fmt.Errorf("mnet: rank %d: launcher connection lost: %v", n.cfg.Rank, err))
				}
			}
			return
		}
		switch k {
		case fTable:
			var tbl tableMsg
			if err := decodeJSON(k, payload, &tbl); err != nil {
				n.Fail(err)
				return
			}
			n.tableCh <- tbl
		case fGo:
			var g goMsg
			if err := decodeJSON(k, payload, &g); err != nil {
				n.Fail(err)
				return
			}
			n.goCh <- g
		case fRelease:
			var rel releaseMsg
			if err := decodeJSON(k, payload, &rel); err != nil {
				n.Fail(err)
				return
			}
			n.releaseCh <- rel
		default:
			n.Fail(fmt.Errorf("mnet: rank %d: unexpected %v frame from launcher", n.cfg.Rank, k))
			return
		}
	}
}

// pingLoop keeps the control connection demonstrably alive so the
// launcher can distinguish a slow worker from a dead one.
func (n *Node) pingLoop() {
	ticker := time.NewTicker(n.cfg.Heartbeat)
	defer ticker.Stop()
	for {
		select {
		case <-ticker.C:
			if n.writeCtrl(fPing, struct{}{}) != nil {
				return
			}
		case <-n.stopCh:
			return
		}
	}
}

// --- lifecycle (NetSubstrate) ---------------------------------------

// Finish runs the termination barrier: announce that the local driver
// returned, wait for the launcher's release (sent once every active
// node is done), then tear down. No node closes links a peer might
// still need.
func (n *Node) Finish() error {
	// From here on, peer link loss is expected rather than fatal: peers
	// that receive the release first close their connections while ours
	// is still in flight. Real peer death during the done-wait is still
	// caught — by the launcher, which watches the processes themselves.
	n.closing.Store(true)
	if err := n.writeCtrl(fDone, doneMsg{Round: n.round, Rank: n.cfg.Rank}); err != nil {
		if n.cfg.TolerateCtrlLoss {
			n.markCtrlLost()
			return n.detachedFinish()
		}
		err = fmt.Errorf("mnet: rank %d: reporting done: %w", n.cfg.Rank, err)
		n.Fail(err)
		return err
	}
	select {
	case <-n.releaseCh:
		// Reliability summary: one greppable line per rank (chaos-smoke
		// asserts on it), printed through the console relay while the
		// control connection is still up. It must come after the release
		// barrier, not before the done report: a rank whose driver
		// returns as soon as its sends are queued (fan-in senders) would
		// otherwise print counters the write loop hasn't earned yet —
		// the release only arrives once every rank is done, so by now
		// all deliveries and retransmits have settled.
		if n.rel() {
			n.console(false, fmt.Sprintf("[reliability] rank %d: retransmits=%d dup_drops=%d crc_errors=%d link_downs=%d recoveries=%d wire_errors=%d injected=%+v\n",
				n.cfg.Rank, n.relRetrans.Load(), n.relDupDrop.Load(), n.relCrcErr.Load(),
				n.relLinkDown.Load(), n.relRecovered.Load(), n.relWireErr.Load(), n.inj.Stats()))
		}
		n.teardown()
		return nil
	case err := <-n.failCh:
		n.teardown()
		return err
	case <-n.ctrlLost:
		return n.detachedFinish()
	}
}

// detachedFinish terminates a node whose launcher is gone but whose
// mesh is intact (TolerateCtrlLoss). The done/release barrier cannot
// run without the launcher, so approximate it: linger long enough for
// peers' final frames to flush and their own detached finishes to
// overlap, then tear down. The linger is bounded — a restarted gateway
// learns the outcome from the daemon's re-register, not from this
// barrier — and a clean return keeps the workload's result authoritative.
func (n *Node) detachedFinish() error {
	linger := 2 * n.cfg.Heartbeat
	select {
	case <-time.After(linger):
	case err := <-n.failCh:
		n.teardown()
		return err
	}
	n.teardown()
	return nil
}

// markCtrlLost records (once) that the launcher connection died under
// TolerateCtrlLoss; waiters in Join/Start/Finish observe the closed
// channel.
func (n *Node) markCtrlLost() {
	n.ctrlLostOnce.Do(func() { close(n.ctrlLost) })
}

// Fail reports a fatal local error to the whole job. The first call
// wins: it surfaces on Failure, tells the launcher (which kills every
// worker), and stops the local node. Converse is not fault-tolerant —
// the job's only response to failure is a fast, loud exit.
func (n *Node) Fail(err error) {
	if err == nil {
		return
	}
	n.failOnce.Do(func() {
		n.failCh <- err
		n.writeCtrl(fFail, failMsg{Rank: n.cfg.Rank, Text: err.Error()})
		n.Stop()
	})
}

// Failure delivers at most one asynchronous job failure.
func (n *Node) Failure() <-chan error { return n.failCh }

// Stop unblocks the schedulers of every local PE (Recv returns
// ok=false) and halts link writers. It does not tear down connections;
// Finish and Fail do.
func (n *Node) Stop() {
	n.stopOnce.Do(func() {
		for _, lpe := range n.lpes {
			lpe.inbox.Stop()
		}
		close(n.stopCh)
	})
}

// Close releases the node's network resources — peer links, listener,
// control connection — without the termination barrier. Fail leaves
// them open (a converserun worker exits moments later anyway), so a
// long-lived host that runs many jobs in-process (a conversed daemon)
// must Close each node once its machine returns, or failed jobs leak
// their accept loops. Idempotent, and harmless after a clean Finish.
func (n *Node) Close() { n.teardown() }

// teardown closes every connection and the listener. closing suppresses
// the link-loss failure reports that the closes would otherwise trigger.
func (n *Node) teardown() {
	n.closing.Store(true)
	n.torn.Store(true)
	n.Stop()
	n.peersMu.Lock()
	for _, pl := range n.peers {
		if pl != nil {
			pl.closeConn()
		}
	}
	n.peersMu.Unlock()
	if n.ls != nil {
		n.ls.Close()
	}
	if n.ctrl != nil {
		n.ctrl.Close()
	}
}

// --- diagnostics -----------------------------------------------------

// DescribeBlocked reports why this node's PEs are blocked, in the
// machine layer's shared diagnostic format — the same report
// machine.Machine produces for simulated PEs, reused verbatim in mnet
// failure output.
func (n *Node) DescribeBlocked() string {
	if len(n.lpes) == 0 {
		return fmt.Sprintf("rank%d(surplus)", n.cfg.Rank)
	}
	s := ""
	for _, lpe := range n.lpes {
		if s != "" {
			s += ", "
		}
		s += lpe.DescribeBlocked()
	}
	return s
}
