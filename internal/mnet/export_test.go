package mnet

import (
	"fmt"
	"net"
	"os"
	"sync"
	"testing"
	"time"
)

// TestToken is the job token in-process test jobs use.
const TestToken = "mnet-test-token"

// StartTestJob runs a launcher control server without spawning worker
// processes, so tests (including external ones driving internal/core)
// can host several nodes of one job inside the test process. It returns
// the control address and a channel delivering the job's first failure.
// The optional ppn raises the job's PE-per-node capacity above the
// default of one.
func StartTestJob(t testing.TB, np int, hb time.Duration, ppn ...int) (addr string, failCh <-chan error) {
	t.Helper()
	addr, failCh, stop := OpenTestJob(t, np, hb, ppn...)
	t.Cleanup(stop)
	return addr, failCh
}

// OpenTestJob is StartTestJob with the control server's teardown
// handed to the caller, for benchmarks that bring a job up and down
// once per operation.
func OpenTestJob(t testing.TB, np int, hb time.Duration, ppn ...int) (addr string, failCh <-chan error, stop func()) {
	t.Helper()
	ls, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("binding test control port: %v", err)
	}
	k := 0
	if len(ppn) > 0 {
		k = ppn[0]
	}
	fc := make(chan error, 1)
	var once sync.Once
	cs := NewControlServer(np, k, TestToken, hb, ControlCallbacks{
		Console: func(rank int, isErr bool, text string) {
			if isErr {
				fmt.Fprint(os.Stderr, text)
			} else {
				fmt.Fprint(os.Stdout, text)
			}
		},
		Fail: func(err error) { once.Do(func() { fc <- err }) },
	})
	go cs.Serve(ls)
	return ls.Addr().String(), fc, func() {
		cs.Shutdown()
		ls.Close()
	}
}

// CutLinkForTest severs the established mesh connection to the given
// peer node — a transient network cut below the reliability layer.
// Under FailRetry the link redials and resumes the session; tests use
// this to prove in-flight traffic converges through a recovery.
func (n *Node) CutLinkForTest(peer int) {
	n.peersMu.Lock()
	pl := n.peers[peer]
	n.peersMu.Unlock()
	if pl != nil {
		pl.closeConn()
	}
}

// LinkRecoveriesForTest reports how many session-resuming reconnects
// this node's links have completed.
func (n *Node) LinkRecoveriesForTest() int64 { return int64(n.relRecovered.Load()) }

// HoldAcceptsForTest makes the node's mesh listener run hold on every
// connection it accepts, before reading the connection's peer hello.
func (n *Node) HoldAcceptsForTest(hold func(net.Conn)) { n.mesh.hold.Store(&hold) }
