package service

// The gateway shell's daemon side: launching placed attempts (per-job
// control servers, whose rank links ride the daemon sessions, and
// assignments), relaying aborts, the attempt watchdog, and daemon
// sessions — registration, rank updates, control frames, drain requests
// and loss all become core events or control-link traffic here.

import (
	"errors"
	"fmt"
	"net"
	"slices"
	"time"

	"converse/internal/mnet"
	"converse/internal/wire"
)

// launch starts one placed attempt: it builds the job's control server
// with one control link per rank over that rank's daemon session, and
// sends one assignment per rank. An attempt that was cancelled or lost
// a daemon between placement and launch goes back to the core
// unlaunched, and nothing is sent.
func (g *Gateway) launch(id string, seq int) {
	var asn assignMsg
	var to []*daemonSession
	g.step(func(f *fleet, now time.Time) {
		at, j := f.attempts[id], f.jobs[id]
		if at == nil || at.seq != seq || j.State.Terminal() || at.lost {
			f.unlaunched(id, seq, "", now)
			return
		}
		for _, name := range at.daemons {
			to = append(to, g.sessionLocked(name))
		}
		token := newID("tok")
		g.newControlServerLocked(id, seq, slices.Max(at.sizes), token, to)
		asn = assignMsg{
			Job: id, Attempt: seq, Workload: j.Workload, Args: j.Args,
			JobToken: token, NP: len(at.sizes), PEs: j.Gang,
			NodeSizes: append([]int(nil), at.sizes...), HeartbeatMS: g.cfg.Heartbeat.Milliseconds(),
			DeadlineMS: j.DeadlineMS, MaxMemMB: j.MaxMemMB,
		}
	})
	if asn.Job == "" {
		return
	}
	for rank, d := range to {
		asn.Rank = rank
		err := errDaemonGone
		if d != nil {
			err = d.send(kAssign, asn)
		}
		if err != nil {
			// The session reader will notice the dead daemon; the rank
			// can never start, so count it lost now.
			g.cfg.Logf("assigning %s rank %d: %v", id, rank, err)
			g.step(func(f *fleet, now time.Time) { f.rankLost(id, seq, rank, "daemon unreachable", now) })
		}
	}
}

var (
	errDaemonGone   = errors.New("service: daemon gone")
	errRankReported = errors.New("service: rank reported its result")
)

// newControlServerLocked builds an attempt's control server, attaches
// each rank's control link to the session of the daemon that runs it
// (nil: gone before launch) and records both in the attempt table.
// Caller holds mu.
func (g *Gateway) newControlServerLocked(id string, seq, ppn int, token string, sess []*daemonSession) {
	cs := mnet.NewControlServer(len(sess), ppn, token, g.cfg.Heartbeat, mnet.ControlCallbacks{
		Console: func(rank int, isErr bool, text string) { g.appendLog(id, text, isErr) },
		Fail: func(err error) {
			// Teardown of a drained gang relays rank failures here after
			// the job has already requeued; only the live attempt may
			// stamp the job's error.
			g.step(func(f *fleet, _ time.Time) { f.ctlFailed(id, seq, err.Error()) })
		},
		// A lost rank is drained, not fatal: its daemon died or its
		// runner crashed. The update path (or daemon-loss sweep) decides
		// between requeue and failure.
		RankLost: func(int, error) bool { return true },
	})
	e := g.ioLocked(id, seq)
	e.cs, e.sess = cs, sess
	for rank, d := range sess {
		e.links = append(e.links, cs.Link(d.ctrlSender(id, seq, rank)))
	}
}

// sessionLocked returns a daemon's live session, nil for none. Caller
// holds mu.
func (g *Gateway) sessionLocked(name string) *daemonSession { return g.sessions[name] }

// abortAttempt runs a cAbort: every participating daemon is told to kill
// the job's local ranks, and the control server stops reporting. A
// daemon indexes a rank before the rank says hello, so a rank still
// blocked in the rendezvous hears the unassign too.
func abortAttempt(c cmd, to []*daemonSession, cs *mnet.ControlServer) {
	for _, d := range to {
		d.send(kUnassign, unassignMsg{Job: c.job, Attempt: c.seq, Reason: c.text})
	}
	if cs != nil {
		cs.Shutdown()
	}
}

// rankLink returns the control link of one rank of the live attempt as
// carried by session d; nil for an attempt that is over, or a session
// that does not carry the rank.
func (g *Gateway) rankLink(d *daemonSession, job string, attempt, rank int) *mnet.RankLink {
	g.mu.Lock()
	defer g.mu.Unlock()
	if a := g.io[job]; a != nil && a.seq == attempt && rank >= 0 && rank < len(a.links) && a.sess[rank] == d {
		return a.links[rank]
	}
	return nil
}

// watchdogFired feeds one attempt's watchdog expiry to the core, with
// the control server's view of the gang for the job's error.
func (g *Gateway) watchdogFired(id string, seq int) {
	g.mu.Lock()
	var cs *mnet.ControlServer
	if e := g.io[id]; e != nil && e.seq == seq {
		cs = e.cs
	}
	g.mu.Unlock()
	detail := ""
	if cs != nil {
		detail = cs.Describe()
	}
	g.step(func(f *fleet, now time.Time) { f.watchdogFired(id, seq, detail, now) })
}

// serveDaemon runs one daemon's persistent control session: register,
// then read updates and pings until the connection dies, which is the
// leave/churn event. Only a refused registration returns an error.
func (g *Gateway) serveDaemon(conn net.Conn, payload []byte) (any, error) {
	var m registerMsg
	if err := wire.DecodeJSON(kRegister, payload, &m); err != nil {
		return nil, err
	}
	if m.Slots < 1 {
		return nil, fmt.Errorf("service: daemon %q registered with %d slots", m.Name, m.Slots)
	}
	d := &daemonSession{conn: conn, advertise: m.Advertise, ready: make(chan struct{})}
	var epoch int64
	joined := false
	kills := g.step(func(f *fleet, now time.Time) {
		joined, epoch = true, f.epoch
		d.name = g.registerLocked(d, m.Name)
		f.join(d.name, m.Slots, m.Resume, now)
	})
	if !joined {
		return nil, errShuttingDown
	}
	// Nothing else writes to the session before ready is closed.
	conn.SetWriteDeadline(time.Now().Add(reqTimeout))
	err := wire.WriteJSON(conn, kRegister, registerReply{Name: d.name, Epoch: epoch, Kill: kills})
	close(d.ready)
	if err != nil {
		g.dropDaemon(d, err)
		return nil, nil
	}
	if m.Epoch != 0 || len(m.Resume) > 0 {
		g.cfg.Logf("daemon %s re-joined with %d slots (last epoch %d, %d resumed ranks, %d fenced)",
			d.name, m.Slots, m.Epoch, len(m.Resume), len(kills))
	} else {
		g.cfg.Logf("daemon %s joined with %d slots", d.name, m.Slots)
	}
	g.step(func(f *fleet, now time.Time) { f.schedule(now) })

	allowance := time.Duration(daemonMissFactor) * daemonPing
	for {
		conn.SetReadDeadline(time.Now().Add(allowance))
		k, pl, err := wire.ReadFrame(conn)
		if err != nil {
			g.dropDaemon(d, err)
			return nil, nil
		}
		switch k {
		case kDPing:
			// The read itself refreshed the liveness deadline.
		case kUpdate:
			var u updateMsg
			if err := wire.DecodeJSON(k, pl, &u); err != nil {
				g.dropDaemon(d, err)
				return nil, nil
			}
			// The rank's node is done with its control link, as a
			// closed control connection would say: a rank that never
			// reached the release no longer holds it up.
			if l := g.rankLink(d, u.Job, u.Attempt, u.Rank); l != nil {
				l.Lost(errRankReported)
			}
			g.step(func(f *fleet, now time.Time) { f.update(u, now) })
		case kDrain:
			g.step(func(f *fleet, _ time.Time) { f.daemonDraining(d.name) })
		case kCtrl:
			e, frame, err := decodeCtrl(pl)
			if err != nil {
				g.dropDaemon(d, err)
				return nil, nil
			}
			if l := g.rankLink(d, e.job, e.attempt, e.rank); l != nil {
				l.Deliver(e.kind, frame)
			}
		default:
			g.dropDaemon(d, fmt.Errorf("service: unexpected frame kind %d from daemon", k))
			return nil, nil
		}
	}
}

// registerLocked gives a registering daemon a unique name and records
// its session. Caller holds mu.
func (g *Gateway) registerLocked(d *daemonSession, name string) string {
	base := name
	if name == "" {
		name = newID("d")
	}
	for g.f.daemons[name] != nil {
		name = newID(base + "-d")
	}
	g.sessions[name] = d
	return name
}

// dropDaemon handles a daemon's session ending, clean or by death: the
// control links riding it are lost, as a dead control connection would
// be, and the core deregisters the daemon and drains the gangs it
// carried.
func (g *Gateway) dropDaemon(d *daemonSession, cause error) {
	d.conn.Close()
	var lost []*mnet.RankLink
	g.mu.Lock()
	for _, e := range g.io {
		for r, s := range e.sess {
			if s == d {
				lost = append(lost, e.links[r])
			}
		}
	}
	g.mu.Unlock()
	for _, l := range lost {
		l.Lost(cause)
	}
	g.step(func(f *fleet, now time.Time) {
		if g.unregisterLocked(d) {
			f.leave(d.name, cause.Error(), now)
		}
	})
}

// unregisterLocked drops d's session, reporting false when it was
// already gone. Caller holds mu.
func (g *Gateway) unregisterLocked(d *daemonSession) bool {
	if g.sessions[d.name] != d {
		return false
	}
	delete(g.sessions, d.name)
	return true
}
