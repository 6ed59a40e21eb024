package mnet

import (
	"fmt"
	"net"
	"strings"
	"testing"
	"time"

	"converse/internal/wire"
)

// TestControlRejectsOldProtocolVersion pins the protocol bump: a worker
// built against protocol v3 — whose data frames lack the PE route — must
// be turned away at rendezvous with both versions named, so a
// mixed-binary job dies at join instead of misparsing data frames.
func TestControlRejectsOldProtocolVersion(t *testing.T) {
	addr, failCh := StartTestJob(t, 2, time.Second)
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	err = wire.WriteJSON(conn, byte(fHello), helloMsg{
		Magic: protoMagic, Version: 3, Token: TestToken,
		Round: 1, Rank: 0, PEs: 2, Nodes: 2, Addr: "127.0.0.1:1",
	})
	if err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-failCh:
		for _, want := range []string{"version 3", fmt.Sprintf("version %d", protoVersion)} {
			if !strings.Contains(err.Error(), want) {
				t.Errorf("rejection %q does not name %q", err, want)
			}
		}
	case <-time.After(5 * time.Second):
		t.Fatal("a v3 hello was not rejected")
	}
	// The launcher hangs up instead of answering with a node table.
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	if k, _, err := readFrame(conn); err == nil {
		t.Errorf("launcher answered a v3 hello with a %v frame", k)
	}
}
