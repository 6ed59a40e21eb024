package mnet

import (
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"converse/internal/wire"
)

// MeshListener accepts mesh connections for the nodes registered with
// it and hands each one to the node its peer hello names by (token,
// round). A converserun node binds one of its own in Join; a conversed
// daemon binds one at start and lends it to every job node it hosts
// (Host.Mesh), so a hosted node binds nothing.
type MeshListener struct {
	ls        net.Listener
	addr      string // the address peers dial (advertised host, listener port)
	handshake time.Duration
	accepted  atomic.Int64

	mu      sync.Mutex
	nodes   map[meshKey]*Node
	pending map[net.Conn]struct{} // accepted, peer hello not yet read
	closed  bool
	wg      sync.WaitGroup

	// hold, when set (tests), runs on each accepted connection before
	// its peer hello is read.
	hold atomic.Pointer[func(net.Conn)]
}

// meshKey names one node of one job's rendezvous round.
type meshKey struct {
	token string
	round int
}

// ListenMesh binds a mesh listener and starts accepting. Loopback-only
// by default; with advertise set the listener accepts on every
// interface and Addr carries the advertised host, so peers on other
// machines can dial it. handshake bounds each connection's peer hello.
func ListenMesh(advertise string, handshake time.Duration) (*MeshListener, error) {
	bind := "127.0.0.1:0"
	if advertise != "" {
		bind = ":0"
	}
	ls, err := net.Listen("tcp", bind)
	if err != nil {
		return nil, fmt.Errorf("mnet: binding mesh listener: %w", err)
	}
	addr := ls.Addr().String()
	if advertise != "" {
		_, port, err := net.SplitHostPort(addr)
		if err != nil {
			ls.Close()
			return nil, fmt.Errorf("mnet: mesh listener address %q: %w", addr, err)
		}
		addr = net.JoinHostPort(advertise, port)
	}
	m := &MeshListener{ls: ls, addr: addr, handshake: handshake,
		nodes: map[meshKey]*Node{}, pending: map[net.Conn]struct{}{}}
	m.wg.Add(1)
	go m.acceptLoop()
	return m, nil
}

// Addr is the address peers dial, announced in each node's hello.
func (m *MeshListener) Addr() string { return m.addr }

// Accepted counts the connections the listener has accepted.
func (m *MeshListener) Accepted() int64 { return m.accepted.Load() }

// Close stops accepting, closes connections still in their handshake
// and waits for the listener's goroutines. Links already handed to a
// node are the node's to close.
func (m *MeshListener) Close() error {
	m.mu.Lock()
	m.closed = true
	for c := range m.pending {
		c.Close()
	}
	m.mu.Unlock()
	err := m.ls.Close()
	m.wg.Wait()
	return err
}

// add registers n to receive the connections of its (token, round).
func (m *MeshListener) add(n *Node) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	k := meshKey{n.cfg.Token, n.round}
	if m.nodes[k] != nil {
		return fmt.Errorf("mnet: a node of round %d of this job is already on the mesh listener", n.round)
	}
	m.nodes[k] = n
	return nil
}

// remove unregisters n.
func (m *MeshListener) remove(n *Node) {
	m.mu.Lock()
	defer m.mu.Unlock()
	k := meshKey{n.cfg.Token, n.round}
	if m.nodes[k] == n {
		delete(m.nodes, k)
	}
}

func (m *MeshListener) acceptLoop() {
	defer m.wg.Done()
	for {
		conn, err := m.ls.Accept()
		if err != nil {
			return // listener closed
		}
		m.accepted.Add(1)
		m.mu.Lock()
		if m.closed {
			m.mu.Unlock()
			conn.Close()
			continue
		}
		m.pending[conn] = struct{}{}
		m.wg.Add(1)
		m.mu.Unlock()
		go m.handshakeConn(conn)
	}
}

// handshakeConn reads one connection's peer hello — exactly one frame,
// straight off the connection with no read-ahead, so frames the dialer
// sent behind it stay in the socket for the link reader — and hands the
// connection to the node that owns the hello's (token, round). A
// connection for no registered node is closed.
func (m *MeshListener) handshakeConn(conn net.Conn) {
	defer m.wg.Done()
	if h := m.hold.Load(); h != nil {
		(*h)(conn)
	}
	conn.SetReadDeadline(time.Now().Add(m.handshake))
	k, payload, err := readFrame(conn)
	var ph peerHelloMsg
	if err == nil && k == fPeerHello {
		err = wire.DecodeJSON(byte(k), payload, &ph)
	} else if err == nil {
		err = fmt.Errorf("unexpected %v frame", k)
	}
	m.mu.Lock()
	delete(m.pending, conn)
	n := m.nodes[meshKey{ph.Token, ph.Round}]
	m.mu.Unlock()
	if err != nil || n == nil {
		conn.Close()
		return
	}
	conn.SetReadDeadline(time.Time{})
	n.adopt(conn, ph)
}

// adopt takes one handshaken mesh connection: a first connection from
// a higher rank becomes that rank's link; a session-resuming reconnect
// (FailRetry) is answered with our cumulative ack and handed to the
// recovering link's supervisor.
func (n *Node) adopt(conn net.Conn, ph peerHelloMsg) {
	if ph.Resume {
		// Only meaningful under FailRetry, and only on links where the
		// peer is the dialing side.
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
		if wire.WriteJSON(conn, byte(fPeerHelloAck), peerHelloAckMsg{Ack: pl.rxDelivered.Load()}) != nil {
			conn.Close()
			return
		}
		pl.offerConn(conn, ph.Ack)
		return
	}
	if ph.From <= n.cfg.Rank {
		conn.Close()
		return
	}
	if err := n.register(ph.From, conn); err != nil {
		n.Fail(err)
	}
}
