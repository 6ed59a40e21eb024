package charm

import (
	"encoding/binary"
	"testing"

	"converse/internal/core"
	"converse/internal/ldb"
)

// Creation messages ride the two-level broadcast tree through relay
// processors, while invocations go point-to-point — so an invocation
// can reach a processor before the creation it depends on. These tests
// force that arrival order directly against the handlers and assert
// the runtime parks the early invocation and replays it when the
// creation lands.

func TestArrayInvocationOvertakesCreation(t *testing.T) {
	cm := newMachine(1)
	err := cm.Run(func(p *core.Proc) {
		rt := Attach(p, ldb.NewSpray())
		var got []int
		at := rt.RegisterArray(
			func(rt *RT, aid ArrayID, idx int, msg []byte) any { return &elem{idx: idx} },
			func(rt *RT, e any, idx int, data []byte) {
				got = append(got, int(binary.LittleEndian.Uint32(data)))
			})
		const aid = ArrayID(0x42)

		// Two invocations of element 0 arrive before the creation.
		for _, v := range []uint32{7, 8} {
			msg := core.NewMsg(rt.hArrInv, 20)
			pl := core.Payload(msg)
			binary.LittleEndian.PutUint32(pl[0:], uint32(aid))
			binary.LittleEndian.PutUint32(pl[4:], 0) // idx
			binary.LittleEndian.PutUint32(pl[8:], 0) // ep
			binary.LittleEndian.PutUint32(pl[16:], v)
			core.SetFlags(msg, 1)
			rt.onArrInv(p, msg)
		}
		if len(got) != 0 {
			t.Errorf("invocation ran before the array existed: %v", got)
		}

		// The creation lands: both park entries must replay in order.
		rt.buildElems(aid, at, 1, nil)
		if len(got) != 2 || got[0] != 7 || got[1] != 8 {
			t.Errorf("replayed invocations = %v, want [7 8]", got)
		}
		if rt.sent != 0 && rt.processed != rt.sent {
			t.Errorf("quiescence counters diverged: sent=%d processed=%d", rt.sent, rt.processed)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestGroupInvocationOvertakesCreation(t *testing.T) {
	cm := newMachine(1)
	err := cm.Run(func(p *core.Proc) {
		rt := Attach(p, ldb.NewSpray())
		var got []int
		gt := rt.RegisterGroup(
			func(rt *RT, gid GroupID, msg []byte) any { return new(int) },
			func(rt *RT, branch any, msg []byte) {
				got = append(got, int(binary.LittleEndian.Uint32(msg)))
			})
		const gid = GroupID(0x99)

		// A group is an array with one element per processor: the
		// invocation of this processor's branch is element MyPe's.
		msg := core.NewMsg(rt.hArrInv, 20)
		pl := core.Payload(msg)
		binary.LittleEndian.PutUint32(pl[0:], uint32(gid))
		binary.LittleEndian.PutUint32(pl[4:], uint32(p.MyPe())) // idx
		binary.LittleEndian.PutUint32(pl[8:], 0)                // ep
		binary.LittleEndian.PutUint32(pl[16:], 5)
		core.SetFlags(msg, 1)
		rt.onArrInv(p, msg)
		if len(got) != 0 {
			t.Errorf("invocation ran before the group existed: %v", got)
		}

		rt.buildElems(ArrayID(gid), gt, p.NumPes(), nil)
		if len(got) != 1 || got[0] != 5 {
			t.Errorf("replayed invocations = %v, want [5]", got)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}
