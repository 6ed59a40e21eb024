package msgmgr

import (
	"fmt"
	"testing"
	"time"

	"converse/internal/core"
)

func runMailboxes(t *testing.T, pes int, body func(p *core.Proc)) {
	t.Helper()
	cm := core.NewMachine(core.Config{PEs: pes, Watchdog: 10 * time.Second})
	if err := cm.Run(body); err != nil {
		t.Fatal(err)
	}
}

// TestMailboxTagRanges: user sends are confined to [0, TagLimit), and
// collective tags lie above it.
func TestMailboxTagRanges(t *testing.T) {
	for _, tag := range []int{-1, TagLimit, 1 << 32} {
		cm := core.NewMachine(core.Config{PEs: 1, Watchdog: 10 * time.Second})
		err := cm.Run(func(p *core.Proc) { NewMailbox(p, "test", nil).Send(0, tag, nil) })
		if err == nil {
			t.Errorf("Send with tag %d did not error", tag)
		}
	}
	runMailboxes(t, 1, func(p *core.Proc) {
		b := NewMailbox(p, "test", nil)
		if c1, c2 := b.CollTag(), b.CollTag(); c1 < TagLimit || c2 <= c1 {
			t.Errorf("CollTag = %d, %d", c1, c2)
		}
	})
}

// TestMailboxMatchingAndOnPark: a blocking receive by (src, tag) takes
// the oldest match, parks what it passes over (reporting each tag to
// onPark), and later receives find the parked messages in order.
func TestMailboxMatchingAndOnPark(t *testing.T) {
	runMailboxes(t, 2, func(p *core.Proc) {
		var parked []int
		b := NewMailbox(p, "test", func(tag int) { parked = append(parked, tag) })
		if p.MyPe() == 1 {
			for i, tag := range []int{5, 6, 5, 7} {
				b.Send(0, tag, []byte{byte(i)})
			}
			return
		}
		if d, src, tag := b.Recv(Wildcard, 7); src != 1 || tag != 7 || d[0] != 3 {
			t.Errorf("Recv(*, 7) = %v from %d tag %d", d, src, tag)
		}
		if fmt.Sprint(parked) != "[5 6 5]" {
			t.Errorf("onPark saw %v, want [5 6 5]", parked)
		}
		if size, src, tag := b.WaitProbe(1, 5); size != 1 || src != 1 || tag != 5 {
			t.Errorf("WaitProbe = %d, %d, %d", size, src, tag)
		}
		for _, want := range []byte{0, 1, 2} {
			if d, _, _, ok := b.TryRecv(Wildcard, Wildcard); !ok || d[0] != want {
				t.Errorf("TryRecv = %v, %v; want [%d]", d, ok, want)
			}
		}
	})
}

// TestMailboxPollLeavesOthersToTheirHandlers: a non-blocking drain parks
// this mailbox's arrivals and enqueues other handlers' messages, which
// the scheduler then dispatches.
func TestMailboxPollLeavesOthersToTheirHandlers(t *testing.T) {
	cm := core.NewMachine(core.Config{PEs: 1, Watchdog: 10 * time.Second})
	other := 0
	h := cm.RegisterHandler(func(p *core.Proc, msg []byte) { other++ })
	err := cm.Run(func(p *core.Proc) {
		b := NewMailbox(p, "test", nil)
		p.SyncSendAndFree(0, core.NewMsg(h, 0))
		b.Send(0, 4, []byte("x"))
		if _, _, _, ok := b.Probe(Wildcard, 9); ok {
			t.Error("Probe(*, 9) matched")
		}
		if d, src, tag, ok := b.Poll(0, 4); !ok || string(d) != "x" || src != 0 || tag != 4 {
			t.Errorf("Poll = %q, %d, %d, %v", d, src, tag, ok)
		}
		if other != 0 {
			t.Error("drain dispatched another handler's message")
		}
		p.ScheduleUntilIdle()
	})
	if err != nil {
		t.Fatal(err)
	}
	if other != 1 {
		t.Fatalf("other handler ran %d times, want 1", other)
	}
}
