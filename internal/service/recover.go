package service

// Graceful shutdown and the one teardown. Crash recovery itself is a
// core event (fleet.boot at start, fleet.endRecovery when the window
// closes); the journal it replays is read by openJournal.

import "time"

// Drain is the graceful shutdown: stop admitting, let running gangs
// finish (bounded by DrainTimeout), journal a clean-shutdown record,
// and close without cancelling what remains — queued and unfinished
// jobs stay in the journal for the next incarnation to pick up.
// Without a state dir there is nothing to hand over, so Drain falls
// back to Close's cancel-everything semantics after the wait.
func (g *Gateway) Drain() error {
	var idle chan struct{}
	running, already := 0, false
	g.step(func(f *fleet, _ time.Time) {
		running, already = len(f.attempts), f.draining
		f.draining = true
		if running > 0 {
			idle = g.idleSignalLocked()
		}
	})
	if !already {
		g.cfg.Logf("draining: admissions stopped; waiting up to %v for %d running gangs",
			g.cfg.DrainTimeout, running)
	}
	if idle != nil {
		t := time.NewTimer(g.cfg.DrainTimeout)
		select {
		case <-idle:
		case <-t.C:
		case <-g.done:
		}
		t.Stop()
	}
	if g.jn == nil {
		return g.stop(false)
	}
	g.step(func(f *fleet, now time.Time) { f.apply(jShutdownRec{AtMS: now.UnixMilli()}) })
	return g.stop(true)
}

// idleSignalLocked returns the channel closed once no attempt is left.
// Caller holds mu.
func (g *Gateway) idleSignalLocked() chan struct{} {
	if g.idle == nil {
		g.idle = make(chan struct{})
	}
	return g.idle
}

// stop is the gateway's one teardown: no new connections, idle clients
// cut, watchdogs stopped, control servers shut, daemon
// sessions closed, log followers ended, every goroutine waited for, the
// recovery timer stopped and the journal closed. keep leaves unfinished
// jobs journaled for a successor to re-adopt or requeue (Drain);
// otherwise they are cancelled first (Close).
func (g *Gateway) stop(keep bool) error {
	g.mu.Lock()
	if g.closed {
		g.mu.Unlock()
		return nil
	}
	var run []func()
	if !keep {
		g.f.shutdown(time.Now())
		run, _ = g.commitLocked()
	}
	g.closed = true
	for _, conn := range g.idleClientsLocked() {
		run = append(run, func() { conn.Close() })
	}
	// Unfinished attempts lose their control servers but, under keep,
	// not their journal state: the daemons keep running them (tolerated
	// control loss) and the next incarnation re-adopts or requeues.
	for _, e := range g.io {
		if e.wdog != nil {
			e.wdog.Stop()
		}
		run = append(run, e.close)
	}
	for _, d := range g.sessions {
		run = append(run, func() { d.conn.Close() })
	}
	if g.recoverTimer != nil {
		g.recoverTimer.Stop()
	}
	g.mu.Unlock()
	for _, r := range run {
		r()
	}
	close(g.done) // after the cancels: a follower of a cancelled job gets its end
	err := g.ls.Close()
	g.wg.Wait()
	g.jn.close()
	return err
}
