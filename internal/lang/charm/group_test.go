package charm

import (
	"encoding/binary"
	"sync/atomic"
	"testing"

	"converse/internal/core"
	"converse/internal/ldb"
)

// branchCounter is a group chare branch accumulating values per PE.
type branchCounter struct {
	sum int64
}

func TestGroupCreateOnAllPEs(t *testing.T) {
	const pes = 4
	cm := newMachine(pes)
	var branches int64
	err := cm.Run(func(p *core.Proc) {
		rt := Attach(p, ldb.NewSpray())
		gt := rt.RegisterGroup(func(rt *RT, gid GroupID, msg []byte) any {
			atomic.AddInt64(&branches, 1)
			return &branchCounter{}
		})
		var gid GroupID
		if p.MyPe() == 0 {
			gid = rt.CreateGroup(gt, nil)
			rt.StartQD(func(rt *RT) { rt.ExitAll() })
		}
		p.Scheduler(-1)
		if p.MyPe() == 0 && rt.Branch(gid) == nil {
			t.Error("creator has no local branch")
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if branches != pes {
		t.Fatalf("branches = %d, want %d", branches, pes)
	}
}

func TestSendGroupReachesEveryBranch(t *testing.T) {
	const pes = 4
	cm := newMachine(pes)
	var total int64
	err := cm.Run(func(p *core.Proc) {
		rt := Attach(p, ldb.NewSpray())
		gt := rt.RegisterGroup(
			func(rt *RT, gid GroupID, msg []byte) any { return &branchCounter{} },
			// entry 0: add a value on this branch
			func(rt *RT, branch any, msg []byte) {
				v := int64(binary.LittleEndian.Uint32(msg))
				branch.(*branchCounter).sum += v
				atomic.AddInt64(&total, v)
			},
		)
		if p.MyPe() == 0 {
			gid := rt.CreateGroup(gt, nil)
			val := make([]byte, 4)
			binary.LittleEndian.PutUint32(val, 5)
			rt.SendGroup(gid, 0, val)
			rt.StartQD(func(rt *RT) { rt.ExitAll() })
		}
		p.Scheduler(-1)
	})
	if err != nil {
		t.Fatal(err)
	}
	if total != 5*pes {
		t.Fatalf("total = %d, want %d", total, 5*pes)
	}
}

func TestSendBranchTargetsOnePE(t *testing.T) {
	const pes = 3
	cm := newMachine(pes)
	hit := make([]int64, pes)
	err := cm.Run(func(p *core.Proc) {
		rt := Attach(p, ldb.NewSpray())
		gt := rt.RegisterGroup(
			func(rt *RT, gid GroupID, msg []byte) any { return nil },
			func(rt *RT, branch any, msg []byte) {
				atomic.AddInt64(&hit[rt.Proc().MyPe()], 1)
			},
		)
		if p.MyPe() == 0 {
			gid := rt.CreateGroup(gt, nil)
			rt.SendBranch(gid, 2, 0, nil)
			rt.SendBranch(gid, 0, 0, nil) // local branch
			rt.StartQD(func(rt *RT) { rt.ExitAll() })
		}
		p.Scheduler(-1)
	})
	if err != nil {
		t.Fatal(err)
	}
	if hit[0] != 1 || hit[1] != 0 || hit[2] != 1 {
		t.Fatalf("hits = %v", hit)
	}
}

// TestGroupAsService: the classic branch-office pattern — a distributed
// counter service where each branch holds local state and an
// "aggregate" entry funnels branch values to the asker.
func TestGroupAsService(t *testing.T) {
	const pes = 4
	cm := newMachine(pes)
	var report int64
	err := cm.Run(func(p *core.Proc) {
		rt := Attach(p, ldb.NewSpray())
		var gt int
		gt = rt.RegisterGroup(
			func(rt *RT, gid GroupID, msg []byte) any {
				return &branchCounter{sum: int64(rt.Proc().MyPe() * 10)}
			},
			// entry 0: report local sum to the branch on PE msg[0]
			func(rt *RT, branch any, msg []byte) {
				gid := GroupID(binary.LittleEndian.Uint32(msg[1:]))
				val := make([]byte, 8)
				binary.LittleEndian.PutUint64(val, uint64(branch.(*branchCounter).sum))
				rt.SendBranch(gid, int(msg[0]), 1, val)
			},
			// entry 1: absorb a report
			func(rt *RT, branch any, msg []byte) {
				atomic.AddInt64(&report, int64(binary.LittleEndian.Uint64(msg)))
			},
		)
		if p.MyPe() == 0 {
			gid := rt.CreateGroup(gt, nil)
			ask := make([]byte, 5)
			ask[0] = 0 // report to PE0's branch
			binary.LittleEndian.PutUint32(ask[1:], uint32(gid))
			rt.SendGroup(gid, 0, ask)
			rt.StartQD(func(rt *RT) { rt.ExitAll() })
		}
		p.Scheduler(-1)
	})
	if err != nil {
		t.Fatal(err)
	}
	if report != 0+10+20+30 {
		t.Fatalf("report = %d, want 60", report)
	}
}

// An invocation of a group this processor has not seen created parks
// until the creation lands (the creation broadcast rides the spanning
// tree and can be overtaken); it must not run, and must not panic.
func TestUnknownGroupInvocationParks(t *testing.T) {
	cm := newMachine(1)
	err := cm.Run(func(p *core.Proc) {
		rt := Attach(p, ldb.NewSpray())
		ran := false
		rt.RegisterGroup(func(rt *RT, gid GroupID, msg []byte) any { return nil },
			func(rt *RT, branch any, msg []byte) { ran = true })
		rt.SendBranch(GroupID(999), 0, 0, nil)
		p.ScheduleUntilIdle()
		if ran {
			t.Error("invocation of a never-created group ran")
		}
		if len(rt.arrayPending[ArrayID(999)]) != 1 {
			t.Errorf("parked invocations = %d, want 1", len(rt.arrayPending[ArrayID(999)]))
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestCreateGroupUnregisteredPanics(t *testing.T) {
	cm := newMachine(1)
	err := cm.Run(func(p *core.Proc) {
		rt := Attach(p, ldb.NewSpray())
		rt.CreateGroup(3, nil)
	})
	if err == nil {
		t.Fatal("unregistered group type did not error")
	}
}

func TestTwoGroupsCoexist(t *testing.T) {
	const pes = 2
	cm := newMachine(pes)
	var a, b int64
	err := cm.Run(func(p *core.Proc) {
		rt := Attach(p, ldb.NewSpray())
		ga := rt.RegisterGroup(func(rt *RT, gid GroupID, msg []byte) any { return nil },
			func(rt *RT, branch any, msg []byte) { atomic.AddInt64(&a, 1) })
		gb := rt.RegisterGroup(func(rt *RT, gid GroupID, msg []byte) any { return nil },
			func(rt *RT, branch any, msg []byte) { atomic.AddInt64(&b, 1) })
		if p.MyPe() == 0 {
			idA := rt.CreateGroup(ga, nil)
			idB := rt.CreateGroup(gb, nil)
			rt.SendGroup(idA, 0, nil)
			rt.SendGroup(idB, 0, nil)
			rt.SendGroup(idB, 0, nil)
			rt.StartQD(func(rt *RT) { rt.ExitAll() })
		}
		p.Scheduler(-1)
	})
	if err != nil {
		t.Fatal(err)
	}
	if a != pes || b != 2*pes {
		t.Fatalf("a=%d b=%d", a, b)
	}
}
