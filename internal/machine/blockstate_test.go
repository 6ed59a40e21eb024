package machine

import (
	"strings"
	"testing"
	"time"
)

func TestFormatBlockState(t *testing.T) {
	cases := []struct {
		st   BlockState
		want string
	}{
		{BlockState{}, "pe0 running inbox=0"},
		{BlockState{RecvWait: true, InboxLen: 3}, "pe0 blocked-in-recv inbox=3"},
		{BlockState{ThreadsSuspended: 2}, "pe0 running inbox=0 threads-suspended=2"},
		{BlockState{RecvWait: true, BarrierWaiters: 1}, "pe0 blocked-in-recv inbox=0 barrier-waiters=1"},
		{
			BlockState{RecvWait: true, InboxLen: 7, ThreadsSuspended: 4, BarrierWaiters: 2},
			"pe0 blocked-in-recv inbox=7 threads-suspended=4 barrier-waiters=2",
		},
	}
	for _, c := range cases {
		if got := FormatBlockState("pe0", c.st); got != c.want {
			t.Errorf("FormatBlockState(%+v) = %q, want %q", c.st, got, c.want)
		}
	}
}

// TestDescribeBlockedLiveMachine drives one PE into a blocking receive
// with thread and barrier waiters noted and checks the per-PE and the
// machine-wide report name the right PE with the right reason — the
// diagnostic the watchdog attaches to deadlocks and mnet reuses for
// failure reports.
func TestDescribeBlockedLiveMachine(t *testing.T) {
	m := New(Config{PEs: 2})
	var pe0, all string
	err := m.Run(func(pe *PE) {
		switch pe.ID() {
		case 0:
			pe.NoteThreadsSuspended(2)
			pe.NoteBarrierWaiters(1)
			pe.Recv() // blocks until pe1 stops the machine
		case 1:
			// Wait for pe0 to be asleep inside Recv, through the
			// machine: empty polls yield to pe0. Then snapshot.
			for !m.PE(0).BlockState().RecvWait {
				pe.TryRecv()
			}
			pe0, all = m.PE(0).DescribeBlocked(), m.DescribeBlocked()
			m.Stop()
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	const want = "pe0 blocked-in-recv inbox=0 threads-suspended=2 barrier-waiters=1"
	if pe0 != want {
		t.Errorf("PE(0).DescribeBlocked = %q, want %q", pe0, want)
	}
	if !strings.Contains(all, want) {
		t.Errorf("DescribeBlocked = %q, want pe0 blocked in recv with noted waiters", all)
	}
	if !strings.Contains(all, "pe1 running") {
		t.Errorf("DescribeBlocked = %q, want pe1 running", all)
	}
}

// TestWatchdogReportIncludesBlockState deadlocks a machine on purpose
// and checks the watchdog error carries the per-PE diagnosis.
func TestWatchdogReportIncludesBlockState(t *testing.T) {
	m := New(Config{PEs: 1, Watchdog: 50 * time.Millisecond})
	err := m.Run(func(pe *PE) {
		pe.Recv() // nothing will ever arrive
	})
	if err == nil {
		t.Fatal("deadlocked machine returned nil error")
	}
	if !strings.Contains(err.Error(), "watchdog expired") ||
		!strings.Contains(err.Error(), "pe0 blocked-in-recv") {
		t.Errorf("watchdog error %q missing block-state diagnosis", err)
	}
}
