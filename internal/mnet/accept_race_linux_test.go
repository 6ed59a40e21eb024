//go:build linux

package mnet

import (
	"encoding/json"
	"fmt"
	"net"
	"syscall"
	"testing"
	"time"

	"converse/internal/wire"
)

// TestFirstSendRacesTheAccept pins what lets Start return without a
// launcher barrier: a dialer's first messages may reach the peer before
// the peer has even read the link's peer hello, and none is lost or
// reordered. The receiving node's listener is held on the accepted
// connection until the dialer's hello and all K messages sit in the
// socket (peeked, not read); only then does the acceptor read the hello
// and register the link. A hello read with read-ahead — any buffered
// reader on the raw connection — would swallow the queued messages, and
// the receiver would never see them.
func TestFirstSendRacesTheAccept(t *testing.T) {
	for _, tc := range []struct{ np, from, to int }{
		{2, 1, 0},
		// Rank 1 both dials (rank 0) and accepts (rank 2); rank 2's sends
		// reach it before it has accepted rank 2's link.
		{3, 2, 1},
	} {
		t.Run(fmt.Sprintf("np%d-rank%d-to-rank%d", tc.np, tc.from, tc.to), func(t *testing.T) {
			const k = 64
			addr, _ := StartTestJob(t, tc.np, time.Second)
			nodes := joinAll(t, addr, tc.np, tc.np, 1, time.Second)
			defer func() {
				for _, n := range nodes {
					n.Close()
				}
			}()
			msg := func(i int) []byte { return []byte(fmt.Sprintf("message %03d", i)) }
			hello, err := json.Marshal(peerHelloMsg{Token: TestToken, Round: 1, From: tc.from})
			if err != nil {
				t.Fatal(err)
			}
			queued := wire.HdrLen + len(hello) + k*(wire.HdrLen+dataHdrLen+len(msg(0)))

			sent := make(chan struct{})
			peeked := make(chan error, 1)
			// Only rank tc.from dials the receiver, so the hold sees one
			// connection.
			nodes[tc.to].HoldAcceptsForTest(func(conn net.Conn) {
				<-sent
				peeked <- peekQueued(conn, queued)
			})
			started := make(chan error, tc.np)
			for _, n := range nodes {
				go func(n *Node) { started <- n.Start() }(n)
			}
			// Every node but the receiver is up; the receiver's Start is
			// held with its link from the sender.
			for range tc.np - 1 {
				if err := <-started; err != nil {
					t.Fatal(err)
				}
			}
			src := nodes[tc.from].lpes[0]
			for i := 0; i < k; i++ {
				src.SendOwned(tc.to, msg(i))
			}
			close(sent)
			if err := <-peeked; err != nil {
				t.Fatalf("peeking the held connection: %v", err)
			}
			if err := <-started; err != nil {
				t.Fatal(err)
			}
			got := make(chan []byte)
			go func() {
				for {
					pkt, ok := nodes[tc.to].lpes[0].Recv()
					if !ok {
						close(got)
						return
					}
					got <- pkt.Data
				}
			}()
			limit := time.After(10 * time.Second)
			for i := 0; i < k; i++ {
				select {
				case b, ok := <-got:
					if !ok {
						t.Fatalf("receiver stopped after %d of %d messages", i, k)
					}
					if string(b) != string(msg(i)) {
						t.Fatalf("message %d arrived as %q, want %q", i, b, msg(i))
					}
				case <-limit:
					t.Fatalf("only %d of the %d messages sent before the accept arrived", i, k)
				}
			}
			finishAll(t, nodes)
		})
	}
}

// peekQueued waits, without consuming anything, until conn's socket
// holds at least n bytes.
func peekQueued(conn net.Conn, n int) error {
	rc, err := conn.(*net.TCPConn).SyscallConn()
	if err != nil {
		return err
	}
	buf := make([]byte, n)
	var perr error
	err = rc.Read(func(fd uintptr) bool {
		var got int
		got, _, perr = syscall.Recvfrom(int(fd), buf, syscall.MSG_PEEK)
		if perr == syscall.EAGAIN {
			perr = nil
			return false
		}
		if perr == nil && got == 0 {
			perr = fmt.Errorf("peer closed with %d of %d bytes queued", got, n)
		}
		return perr != nil || got >= n
	})
	if err != nil {
		return err
	}
	return perr
}
