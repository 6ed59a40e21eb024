package main

// coll-sim: eight PEs of a simulated machine on a 4-node × 2-PE map.
// One operation is a round of both collective engines: the core's
// node-aware tree (Broadcast from PE 0, a sum Reduce into PE 0,
// Barrier), then lang/mpi's Allreduce and Barrier, which run on the
// topology-blind EMI process-group tree. PE 0 drives the rounds; the
// other PEs follow its broadcasts, the last of which says stop. Every
// PE verifies the broadcast payload and the Allreduce result, and PE 0
// the Reduce result, against their closed forms.

import (
	"encoding/binary"
	"time"

	"converse/internal/core"
	"converse/internal/lang/mpi"
	"converse/internal/metrics"
)

const (
	collPEs   = 8
	collBytes = 64 // broadcast message, header included
	// collCountRounds is the length of the traced runs' message-count
	// calibration, one machine per engine.
	collCountRounds = 64
)

var collNodes = []int{2, 2, 2, 2}

// collTriangle is Σ(pe+1) over the machine: the closed form of a round
// whose PEs contribute (pe+1)·k is k·collTriangle.
const collTriangle = collPEs * (collPEs + 1) / 2

// collFactor derives round r's contribution multiplier from the seed.
func collFactor(seed int64, r, salt uint64) uint64 {
	x := uint64(seed)*0x9e3779b97f4a7c15 ^ (r*2+salt+1)*0xbf58476d1ce4e5b9
	x ^= x >> 31
	return 1 + x%1000
}

// collState is shared by every PE's handlers; each per-PE entry has a
// single writer.
type collState struct {
	got    [collPEs]uint64   // broadcasts received: round+1 of the latest
	stop   [collPEs]bool     // the latest broadcast said stop
	bad    [collPEs]bool     // the latest broadcast failed its check
	redN   uint64            // PE 0: core reductions completed
	redSum uint64            // PE 0: the latest reduced value
	fails  [collPEs][]uint64 // rounds whose checks failed, per PE
}

// collProgram is the handler set of one machine.
type collProgram struct {
	cfg          *passCfg
	vars         *variants
	st           *collState
	hBcast, hRed int
	sumComb      int
	corrupt      int64 // cfg.corrupt, or -1 for the calibration machines
}

func newCollProgram(cm *core.Machine, cfg *passCfg, vars *variants) *collProgram {
	c := &collProgram{cfg: cfg, vars: vars, st: &collState{}, corrupt: cfg.corrupt}
	st := c.st
	c.sumComb = cm.RegisterCombiner(func(a, b []byte) []byte {
		binary.LittleEndian.PutUint64(a, binary.LittleEndian.Uint64(a)+binary.LittleEndian.Uint64(b))
		return a
	})
	c.hBcast = cm.RegisterHandler(func(p *core.Proc, msg []byte) {
		me := p.MyPe()
		pl := core.Payload(msg)
		r := binary.LittleEndian.Uint64(pl)
		st.stop[me] = pl[8] == 1
		st.bad[me] = !st.stop[me] && !vars.equal(vars.pick(r), pl[9:])
		st.got[me] = r + 1
	})
	c.hRed = cm.RegisterHandler(func(p *core.Proc, msg []byte) {
		st.redSum = binary.LittleEndian.Uint64(core.Payload(msg))
		st.redN++
	})
	return c
}

// collPE is one PE's side of the program.
type collPE struct {
	c       *collProgram
	p       *core.Proc
	m       *mpi.MPI
	lane    *Lane
	wantB   uint64 // broadcasts to wait for
	wantR   uint64 // PE 0: reductions to wait for
	arrived func() bool
	reduced func() bool
}

func (c *collProgram) pe(p *core.Proc, lane *Lane) *collPE {
	x := &collPE{c: c, p: p, m: mpi.Attach(p), lane: lane}
	me := p.MyPe()
	x.arrived = func() bool { return c.st.got[me] >= x.wantB }
	x.reduced = func() bool { return c.st.redN >= x.wantR }
	return x
}

// bcast sends round r's core broadcast from PE 0; stop ends the run.
func (x *collPE) bcast(r uint64, stop bool, op int32) {
	msg := x.p.Alloc(collBytes - core.HeaderSize)
	core.SetHandler(msg, x.c.hBcast)
	pl := core.Payload(msg)
	binary.LittleEndian.PutUint64(pl, r)
	pl[8] = 0
	if stop {
		pl[8] = 1
	}
	x.c.vars.fill(pl[9:], x.c.vars.pick(r))
	if int64(r) == x.c.corrupt {
		pl[9] ^= 0xff
	}
	s := x.lane.Begin(spCoreBcast, op)
	x.p.Broadcast(msg, core.Transfer)
	x.lane.End(s)
}

// await serves until round r's broadcast has arrived and reports
// whether it said stop.
func (x *collPE) await(r uint64) bool {
	x.wantB = r + 1
	x.p.ServeUntil(x.arrived)
	return x.c.st.stop[x.p.MyPe()]
}

// rest runs round r after its broadcast — the core Reduce and Barrier
// when doCore, the MPI Allreduce and Barrier when doMPI — and reports
// whether every check this PE made in the round passed.
func (x *collPE) rest(r uint64, op int32, doCore, doMPI bool) bool {
	p, st, me := x.p, x.c.st, x.p.MyPe()
	seed := x.c.cfg.seed
	var wrong uint64 // a damaged contribution, for the check tests
	if int64(r) == x.c.corrupt && me == collPEs-1 {
		wrong = 1
	}
	ok := true
	if doCore {
		ok = !st.bad[me]
		k := collFactor(seed, r, 0)
		msg := p.Alloc(8)
		core.SetHandler(msg, x.c.hRed)
		binary.LittleEndian.PutUint64(core.Payload(msg), uint64(me+1)*k+wrong)
		s := x.lane.Begin(spCoreReduce, op)
		p.Reduce(x.c.sumComb, msg, core.Transfer)
		if me == 0 {
			x.wantR++
			p.ServeUntil(x.reduced)
			ok = ok && st.redSum == k*collTriangle
		}
		x.lane.End(s)
		s = x.lane.Begin(spCoreBarrier, op)
		p.Barrier()
		x.lane.End(s)
	}
	if doMPI {
		k := collFactor(seed, r, 1)
		s := x.lane.Begin(spMPIAllreduce, op)
		v := x.m.Allreduce(int64(uint64(me+1)*k+wrong), mpi.OpSum)
		x.lane.End(s)
		ok = ok && uint64(v) == k*collTriangle
		s = x.lane.Begin(spMPIBarrier, op)
		x.m.Barrier()
		x.lane.End(s)
	}
	if !ok {
		st.fails[me] = append(st.fails[me], r)
	}
	return ok
}

func runCollSim(cfg *passCfg) (*passResult, error) {
	res := &passResult{}
	// The payload is the round number, a stop flag, and the variant.
	vars := newVariants(cfg.seed, collBytes-core.HeaderSize-9)
	lane := cfg.rec.Lane(laneRoom)
	for rep := 0; rep < cfg.reps(); rep++ {
		if err := collOnce(cfg, res, vars, lane, cfg.measured(rep)); err != nil {
			return nil, err
		}
	}
	if cfg.rec != nil {
		for _, eng := range []struct {
			name        string
			core, mpiOn bool
		}{{"coll.msgs_per_op_core", true, false}, {"coll.msgs_per_op_mpi", false, true}} {
			n, err := collCount(cfg, vars, eng.core, eng.mpiOn)
			if err != nil {
				return nil, err
			}
			res.layer[eng.name] = n
		}
	}
	return res, nil
}

func collMachine(cfg *passCfg, reg *metrics.Registry) *core.Machine {
	return core.NewMachine(core.Config{
		PEs: collPEs, NodeSizes: collNodes, Transport: core.TransportSim,
		Watchdog: cfg.watchdog(), Metrics: reg,
	})
}

// collOnce brings up one machine and, when measured, runs one timed
// segment on it.
func collOnce(cfg *passCfg, res *passResult, vars *variants, lane *Lane, measured bool) error {
	t0 := time.Now()
	var reg *metrics.Registry
	if measured && cfg.rec != nil {
		reg = metrics.New(collPEs)
	}
	failedBefore := res.failed
	cm := collMachine(cfg, reg)
	c := newCollProgram(cm, cfg, vars)
	err := cm.Run(func(p *core.Proc) {
		if p.MyPe() != 0 {
			x := c.pe(p, nil)
			for r := uint64(0); !x.await(r); r++ {
				x.rest(r, -1, true, true)
			}
			return
		}
		res.setupS = append(res.setupS, time.Since(t0).Seconds())
		x := c.pe(p, lane)
		var next uint64
		if measured {
			next = measure(cfg, res, func(r uint64) bool {
				lane.Op()
				op := lane.Begin(spOp, -1)
				x.bcast(r, false, op)
				x.await(r)
				ok := x.rest(r, op, true, true)
				lane.End(op)
				return ok
			})
			if reg != nil {
				st := cfg.rec.Stats()
				res.layer = coreLayers(st, res, reg.Snapshot())
				res.layer["coll.core_bcast_us"] = st.median(spCoreBcast) / 1e3
				res.layer["coll.core_reduce_us"] = st.median(spCoreReduce) / 1e3
				res.layer["coll.core_barrier_us"] = st.median(spCoreBarrier) / 1e3
				res.layer["coll.mpi_allreduce_us"] = st.median(spMPIAllreduce) / 1e3
				res.layer["coll.mpi_barrier_us"] = st.median(spMPIBarrier) / 1e3
			}
		}
		x.bcast(next, true, -1)
	})
	if err != nil {
		return err
	}
	if measured {
		// A round fails once however many PEs saw it fail.
		failed := map[uint64]bool{}
		for _, rs := range c.st.fails {
			for _, r := range rs {
				failed[r] = true
			}
		}
		res.failed = failedBefore + uint64(len(failed))
	}
	return nil
}

// collCount runs collCountRounds rounds of one engine alone on a fresh
// machine with the metrics registry attached and returns the messages
// sent per round, counted over every PE.
func collCount(cfg *passCfg, vars *variants, doCore, doMPI bool) (float64, error) {
	reg := metrics.New(collPEs)
	cm := collMachine(cfg, reg)
	c := newCollProgram(cm, cfg, vars)
	c.corrupt = -1
	err := cm.Run(func(p *core.Proc) {
		x := c.pe(p, nil)
		for r := uint64(0); r < collCountRounds; r++ {
			if doCore {
				if p.MyPe() == 0 {
					x.bcast(r, false, -1)
				}
				x.await(r)
			}
			x.rest(r, -1, doCore, doMPI)
		}
	})
	if err != nil {
		return 0, err
	}
	var msgs uint64
	for _, pe := range reg.Snapshot().PEs {
		msgs += sum(pe.SentMsgs)
	}
	return float64(msgs) / collCountRounds, nil
}
