package service

// The gateway shell's daemon side: launching placed attempts (per-job
// control servers and assignments), relaying aborts, the attempt
// watchdog, and daemon sessions — registration, rank updates, drain
// requests and loss all become core events here.

import (
	"errors"
	"fmt"
	"net"
	"slices"
	"time"

	"converse/internal/mnet"
	"converse/internal/wire"
)

// launch starts one placed attempt: it binds the job's control port,
// serves the job's control server and sends one assignment per rank.
// An attempt that cannot bind, or that was cancelled or lost a daemon
// between placement and launch, goes back to the core unlaunched; the
// listener is then closed and nothing is sent.
func (g *Gateway) launch(id string, seq int) {
	bind := "127.0.0.1:0"
	if g.cfg.Advertise != "" {
		bind = ":0"
	}
	ls, err := net.Listen("tcp", bind)
	var asn assignMsg
	var to []*daemonSession
	var cs *mnet.ControlServer
	g.step(func(f *fleet, now time.Time) {
		at, j := f.attempts[id], f.jobs[id]
		switch {
		case err != nil:
			f.unlaunched(id, seq, fmt.Sprintf("binding job control port: %v", err), now)
			return
		case at == nil || at.seq != seq || j.State.Terminal() || at.lost:
			f.unlaunched(id, seq, "", now)
			return
		}
		token := newID("tok")
		cs = g.newControlServerLocked(id, seq, len(at.sizes), slices.Max(at.sizes), token, ls)
		launcher := ls.Addr().String()
		if g.cfg.Advertise != "" {
			if _, port, perr := net.SplitHostPort(launcher); perr == nil {
				launcher = net.JoinHostPort(g.cfg.Advertise, port)
			}
		}
		asn = assignMsg{
			Job: id, Attempt: seq, Workload: j.Workload, Args: j.Args,
			Launcher: launcher, JobToken: token, NP: len(at.sizes), PEs: j.Gang,
			NodeSizes: append([]int(nil), at.sizes...), HeartbeatMS: g.cfg.Heartbeat.Milliseconds(),
			DeadlineMS: j.DeadlineMS, MaxMemMB: j.MaxMemMB,
		}
		for _, name := range at.daemons {
			to = append(to, g.sessionLocked(name))
		}
	})
	if cs == nil {
		if ls != nil {
			ls.Close()
		}
		return
	}
	go cs.Serve(ls)
	for rank, d := range to {
		asn.Rank = rank
		err := errDaemonGone
		if d != nil {
			asn.Advertise = d.advertise
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

var errDaemonGone = errors.New("service: daemon gone")

// newControlServerLocked builds an attempt's control server and records
// it with its listener in the attempt table. Caller holds mu.
func (g *Gateway) newControlServerLocked(id string, seq, np, ppn int, token string, ls net.Listener) *mnet.ControlServer {
	cs := mnet.NewControlServer(np, ppn, token, g.cfg.Heartbeat, mnet.ControlCallbacks{
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
	e.cs, e.ls = cs, ls
	return cs
}

// sessionLocked returns a daemon's live session, nil for none. Caller
// holds mu.
func (g *Gateway) sessionLocked(name string) *daemonSession { return g.sessions[name] }

// abortAttempt runs a cAbort: every participating daemon is told to kill
// the job's local ranks, and the control server is severed.
func abortAttempt(c cmd, to []*daemonSession, cs *mnet.ControlServer) {
	for _, d := range to {
		d.send(kUnassign, unassignMsg{Job: c.job, Attempt: c.seq, Reason: c.text})
	}
	// A rank still blocked in the job's rendezvous can't see the
	// unassign — its daemon indexes the job only after Join returns —
	// and with a gang member dead the table broadcast it is waiting for
	// will never come. Abort severs its control connection instead, so
	// the gang drains now rather than after the handshake timeout. The
	// listener stays open on purpose: a rank that has not dialed yet
	// retries a refused connect until its deadline, so the fast path
	// for it is accept-then-close (which the aborted server does), not
	// connection refused. The attempt's release closes the listener
	// once the drain completes.
	if cs != nil {
		cs.Abort()
		for _, r := range c.dead {
			cs.MarkDead(r)
		}
	}
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
			g.step(func(f *fleet, now time.Time) { f.update(u, now) })
		case kDrain:
			g.step(func(f *fleet, _ time.Time) { f.daemonDraining(d.name) })
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
// core deregisters the daemon and drains the gangs it carried.
func (g *Gateway) dropDaemon(d *daemonSession, cause error) {
	d.conn.Close()
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
