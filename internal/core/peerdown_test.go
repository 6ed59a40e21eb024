package core

import (
	"fmt"
	"testing"
	"time"

	"converse/internal/mnet"
)

// TestFailurePolicyStringsMatchMachineLayer pins the contract that lets
// core declare FailFast/FailRetry without importing mnet outside
// netmachine.go: the strings must be identical.
func TestFailurePolicyStringsMatchMachineLayer(t *testing.T) {
	if FailFast != mnet.FailFast || FailRetry != mnet.FailRetry {
		t.Fatalf("core policies (%q, %q) diverged from mnet (%q, %q)",
			FailFast, FailRetry, mnet.FailFast, mnet.FailRetry)
	}
}

func TestPeerDownNotificationDispatch(t *testing.T) {
	cm := NewMachine(Config{PEs: 2, Watchdog: 10 * time.Second})
	var got []string
	p0 := cm.Proc(0)
	p0.NotifyPeerDown(func(pe int, reason string) {
		got = append(got, fmt.Sprintf("%d:%s", pe, reason))
	})
	p0.NotifyPeerDown(func(pe int, reason string) {
		got = append(got, fmt.Sprintf("second:%d", pe))
	})
	err := cm.Run(func(p *Proc) {
		if p.MyPe() != 0 {
			return
		}
		if !p.PeerAlive(1) {
			t.Error("peer 1 dead before any declaration")
		}
		// The machine layer posts declarations through the message path;
		// emulate two for the same peer — the second must dedupe.
		p.SyncSend(0, makePeerDownMsg(p.peerDownHandler, 1, "recovery window exhausted"))
		p.SyncSend(0, makePeerDownMsg(p.peerDownHandler, 1, "repeat"))
		p.Scheduler(4)
		if p.PeerAlive(1) {
			t.Error("peer 1 still alive after declaration")
		}
		if !p.PeerAlive(0) {
			t.Error("peer 0 wrongly dead")
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"1:recovery window exhausted", "second:1"}
	if len(got) != len(want) || got[0] != want[0] || got[1] != want[1] {
		t.Fatalf("callbacks saw %v, want %v", got, want)
	}
}

func TestPeerDownMsgRoundTrip(t *testing.T) {
	msg := makePeerDownMsg(3, 7, "link lost")
	if HandlerOf(msg) != 3 {
		t.Errorf("handler = %d, want 3", HandlerOf(msg))
	}
	pe, reason, ok := PeerDownMsg(msg)
	if !ok || pe != 7 || reason != "link lost" {
		t.Errorf("decoded (%d, %q, %v), want (7, \"link lost\", true)", pe, reason, ok)
	}
	if _, _, ok := PeerDownMsg(NewMsg(0, 2)); ok {
		t.Error("undersized payload decoded")
	}
}

// TestBuiltinHandlerIndicesAligned guards the machine-wide handler
// alignment invariant: the first user-registered handler must get the
// same index on every processor and on a fresh proc that index must be
// 6 (tree bcast, pack, peer-down, doorbell, reduce and barrier release
// come first).
func TestBuiltinHandlerIndicesAligned(t *testing.T) {
	cm := NewMachine(Config{PEs: 3})
	idx := cm.RegisterHandler(func(*Proc, []byte) {})
	if idx != 6 {
		t.Fatalf("first user handler index = %d, want 6 (after the six built-ins)", idx)
	}
}
