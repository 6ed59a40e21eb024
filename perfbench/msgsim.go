package main

// msg-sim: a 2-PE simulated machine doing a 64 B SyncSendAndFree
// ping-pong, the paper's generalized-message dispatch path with no
// kernel underneath. PE 0 drives; PE 1 echoes each ping with the
// CRC-32C of what it received, and PE 0 checks the echoed bytes and the
// checksum against what it sent.

import (
	"encoding/binary"
	"hash/crc32"
	"time"

	"converse/internal/core"
	"converse/internal/metrics"
)

const pingBytes = 64 // whole message, header included

func runMsgSim(cfg *passCfg) (*passResult, error) {
	res := &passResult{}
	// The payload is the variant's data followed by a 4-byte checksum.
	vars := newVariants(cfg.seed, pingBytes-core.HeaderSize-4)
	lane := cfg.rec.Lane(laneRoom)
	for rep := 0; rep < cfg.reps(); rep++ {
		if err := msgSimOnce(cfg, res, vars, lane, cfg.measured(rep)); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// msgSimOnce brings up one machine and, when measured, runs one timed
// segment on it.
func msgSimOnce(cfg *passCfg, res *passResult, vars *variants, lane *Lane, measured bool) error {
	t0 := time.Now()
	mc := core.Config{PEs: 2, Transport: core.TransportSim, Watchdog: cfg.watchdog()}
	var reg *metrics.Registry
	if measured && cfg.rec != nil {
		reg = metrics.New(2)
		mc.Metrics = reg
	}
	cm := core.NewMachine(mc)
	var (
		hPing, hPong, hStop int
		pongs, want         uint64 // PE 0
		expect              int    // PE 0: variant of the outstanding ping
		corrupt, echoOK     bool   // PE 0
		stopped             bool   // PE 1
	)
	hPing = cm.RegisterHandler(func(p *core.Proc, msg []byte) {
		pl := core.Payload(msg)
		n := len(pl) - 4
		reply := p.Alloc(len(pl))
		core.SetHandler(reply, hPong)
		rp := core.Payload(reply)
		copy(rp, pl[:n])
		binary.LittleEndian.PutUint32(rp[n:], crc32.Checksum(pl[:n], castagnoli))
		p.SyncSendAndFree(0, reply)
	})
	hPong = cm.RegisterHandler(func(p *core.Proc, msg []byte) {
		pl := core.Payload(msg)
		if corrupt {
			pl[0] ^= 0xff
		}
		n := len(pl) - 4
		echoOK = binary.LittleEndian.Uint32(pl[n:]) == vars.sum[expect] && vars.equal(expect, pl[:n])
		pongs++
	})
	hStop = cm.RegisterHandler(func(p *core.Proc, msg []byte) { stopped = true })

	return cm.Run(func(p *core.Proc) {
		if p.MyPe() == 1 {
			p.ServeUntil(func() bool { return stopped })
			return
		}
		res.setupS = append(res.setupS, time.Since(t0).Seconds())
		if measured {
			replied := func() bool { return pongs == want }
			measure(cfg, res, func(i uint64) bool {
				lane.Op()
				op := lane.Begin(spOp, -1)
				expect = vars.pick(i)
				corrupt = int64(i) == cfg.corrupt
				s := lane.Begin(spAlloc, op)
				msg := p.Alloc(pingBytes - core.HeaderSize)
				lane.End(s)
				core.SetHandler(msg, hPing)
				vars.fill(core.Payload(msg), expect)
				s = lane.Begin(spSend, op)
				p.SyncSendAndFree(1, msg)
				lane.End(s)
				want++
				s = lane.Begin(spServeWait, op)
				p.ServeUntil(replied)
				lane.End(s)
				lane.End(op)
				return echoOK
			})
			if reg != nil {
				res.layer = coreLayers(cfg.rec.Stats(), res, reg.Snapshot())
			}
		}
		p.SyncSendAndFree(1, core.MakeMsg(hStop, nil))
	})
}
