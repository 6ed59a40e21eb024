package main

// stream-tcp: two in-process mnet nodes of two PEs each, brought up
// with the exported control server and Join the way a launcher does.
// PE 1 (node 0) streams windows of 64 messages of 256 B to PE 2
// (node 1), which checks per-pair FIFO order and every payload and acks
// each window with its tally. Every message crosses the TCP link on the
// PE-routed frame path that jobs with more than one PE per node take.

import (
	"encoding/binary"
	"fmt"
	"net"
	"sync"
	"time"

	"converse/internal/core"
	"converse/internal/metrics"
	"converse/internal/mnet"
)

const (
	streamWindow = 64
	streamBytes  = 256 // whole message, header included
	streamToken  = "perfbench-stream"
	streamSrc    = 1
	streamDst    = 2
	streamPEs    = 4
)

// streamState is shared by both nodes' handlers; every field has a
// single writer PE.
type streamState struct {
	sent    uint64 // PE 1: data messages sent
	acks    uint64 // PE 1: windows acknowledged
	ackRecv uint64 // PE 1: the receiver's message count in the last ack
	ackBad  uint64 // PE 1: bad messages the last ack reported
	next    uint64 // PE 2: next expected sequence number
	recv    uint64 // PE 2: data messages received
	bad     uint64 // PE 2: bad messages in the current window
	stop    [streamPEs]bool
}

func runStreamTCP(cfg *passCfg) (*passResult, error) {
	res := &passResult{}
	// The payload is an 8-byte sequence number followed by the variant.
	vars := newVariants(cfg.seed, streamBytes-core.HeaderSize-8)
	lane := cfg.rec.Lane(laneRoom)
	for rep := 0; rep < cfg.reps(); rep++ {
		if err := streamOnce(cfg, res, vars, lane, cfg.measured(rep)); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// streamOnce brings up one two-node job and, when measured, runs one
// timed segment on it.
func streamOnce(cfg *passCfg, res *passResult, vars *variants, lane *Lane, measured bool) error {
	t0 := time.Now()
	ls, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return fmt.Errorf("control listener: %w", err)
	}
	var (
		failMu sync.Mutex
		jobErr error
	)
	cs := mnet.NewControlServer(2, 2, streamToken, time.Second, mnet.ControlCallbacks{
		Fail: func(err error) {
			failMu.Lock()
			if jobErr == nil {
				jobErr = err
			}
			failMu.Unlock()
		},
	})
	served := make(chan struct{})
	go func() {
		defer close(served)
		cs.Serve(ls)
	}()

	var reg *metrics.Registry
	if measured && cfg.rec != nil {
		reg = metrics.New(streamPEs)
	}
	st := &streamState{}
	errs := make([]error, 2)
	var wg sync.WaitGroup
	for rank := 0; rank < 2; rank++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			j0 := time.Now()
			n, err := mnet.Join(mnet.Config{
				Launcher: ls.Addr().String(), Token: streamToken,
				Rank: rank, NP: 2, PEs: streamPEs, PPN: 2, Round: 1,
				Handshake: 10 * time.Second,
			})
			cfg.rec.Lane(1).Add(spJoin, j0, time.Now())
			if err != nil {
				errs[rank] = err
				return
			}
			defer n.Close()
			cm := core.NewMachineOn(n, core.Config{PEs: streamPEs, Watchdog: cfg.watchdog(), Metrics: reg})
			if reg != nil {
				n.SetMetrics(reg.PE(n.ID()))
			}
			errs[rank] = cm.Run(streamProgram(cm, cfg, res, st, vars, lane, t0, measured, reg))
		}(rank)
	}
	wg.Wait()
	cs.Shutdown()
	ls.Close()
	<-served
	cs.Drain(5 * time.Second)
	for rank, err := range errs {
		if err != nil {
			return fmt.Errorf("node %d: %w", rank, err)
		}
	}
	failMu.Lock()
	defer failMu.Unlock()
	if jobErr != nil {
		return jobErr
	}
	if st.recv != st.sent {
		// Every message sent must have arrived, exactly once.
		res.failed++
	}
	return nil
}

// streamProgram registers the stream handlers on one node's machine
// and returns its PE driver: PE 1 streams, the others serve until
// stopped.
func streamProgram(cm *core.Machine, cfg *passCfg, res *passResult, st *streamState, vars *variants,
	lane *Lane, t0 time.Time, measured bool, reg *metrics.Registry) func(*core.Proc) {
	var hData, hAck, hStop int
	hData = cm.RegisterHandler(func(p *core.Proc, msg []byte) {
		pl := core.Payload(msg)
		seq := binary.LittleEndian.Uint64(pl)
		if seq != st.next || !vars.equal(vars.pick(seq), pl[8:]) {
			st.bad++
		}
		st.next = seq + 1
		st.recv++
		if st.recv%streamWindow == 0 {
			ack := p.Alloc(16)
			core.SetHandler(ack, hAck)
			ap := core.Payload(ack)
			binary.LittleEndian.PutUint64(ap, st.recv)
			binary.LittleEndian.PutUint64(ap[8:], st.bad)
			st.bad = 0
			p.SyncSendAndFree(streamSrc, ack)
		}
	})
	hAck = cm.RegisterHandler(func(p *core.Proc, msg []byte) {
		ap := core.Payload(msg)
		st.ackRecv = binary.LittleEndian.Uint64(ap)
		st.ackBad = binary.LittleEndian.Uint64(ap[8:])
		st.acks++
	})
	hStop = cm.RegisterHandler(func(p *core.Proc, msg []byte) { st.stop[p.MyPe()] = true })

	return func(p *core.Proc) {
		me := p.MyPe()
		if me != streamSrc {
			p.ServeUntil(func() bool { return st.stop[me] })
			return
		}
		ready := time.Now()
		res.setupS = append(res.setupS, ready.Sub(t0).Seconds())
		if measured {
			var want uint64
			acked := func() bool { return st.acks == want }
			measure(cfg, res, func(w uint64) bool {
				lane.Op()
				op := lane.Begin(spOp, -1)
				for k := 0; k < streamWindow; k++ {
					s := lane.Begin(spAlloc, op)
					msg := p.Alloc(streamBytes - core.HeaderSize)
					lane.End(s)
					core.SetHandler(msg, hData)
					pl := core.Payload(msg)
					binary.LittleEndian.PutUint64(pl, st.sent)
					vars.fill(pl[8:], vars.pick(st.sent))
					if int64(w) == cfg.corrupt && k == 0 {
						pl[8] ^= 0xff
					}
					s = lane.Begin(spSend, op)
					p.SyncSendAndFree(streamDst, msg)
					lane.End(s)
					st.sent++
				}
				want++
				s := lane.Begin(spServeWait, op)
				p.ServeUntil(acked)
				lane.End(s)
				lane.End(op)
				return st.ackBad == 0 && st.ackRecv == st.sent
			})
			if reg != nil {
				res.layer = streamLayers(cfg.rec.Stats(), res, reg.Snapshot(), st.sent, time.Since(ready))
			}
		}
		for _, pe := range []int{0, streamDst, 3} {
			p.SyncSendAndFree(pe, core.MakeMsg(hStop, nil))
		}
	}
}

// streamLayers adds the network layer's metrics to the core ones: link
// frames and wire bytes per data message and queue stalls (registry),
// the Join time (spans), and the share of the run the two streaming
// PEs spent blocked idle.
func streamLayers(st *spanStats, res *passResult, snap metrics.Snapshot, sent uint64, up time.Duration) map[string]float64 {
	m := coreLayers(st, res, snap)
	var frames, bytes, stalls uint64
	for _, pe := range snap.PEs {
		frames += sum(pe.NetTxFrames)
		bytes += sum(pe.NetTxBytes)
		stalls += pe.NetStalls
	}
	idle := snap.PEs[streamSrc].SchedIdleUs + snap.PEs[streamDst].SchedIdleUs
	m["core.idle_frac"] = idle / (2 * float64(up.Microseconds()))
	m["mnet.frames_per_msg"] = float64(frames) / float64(sent)
	m["mnet.wire_bytes_per_msg"] = float64(bytes) / float64(sent)
	m["mnet.stalls"] = float64(stalls)
	m["mnet.join_ms"] = st.median(spJoin) / 1e6
	return m
}
