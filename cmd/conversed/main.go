// Command conversed is the elastic cluster service daemon. One
// conversed per host pre-warms a node of PEs; the gateway instance
// additionally accepts jobs (submit/status/cancel/logs over the
// converse wire framing) and gang-schedules them onto the registered
// daemons. Daemons join and leave live: a newly joined conversed
// becomes schedulable immediately, and killing one drains its gangs
// back into the queue to be re-run on the survivors instead of
// failing the jobs.
//
// The gateway host runs an in-process daemon too (disable with
// -slots 0), so a single conversed invocation is already a working
// one-host cluster.
//
// Usage:
//
//	conversed -listen 127.0.0.1:7077 -slots 8 -token SECRET   # gateway + local daemon
//	conversed -join  HOST:7077 -slots 8 -token SECRET         # worker joins the cluster
//
// Submit with converserun -daemon HOST:7077 (or CONVERSED_ADDR), and
// watch the job table with conversetop -connect HOST:7077 -jobs.
package main

import (
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"
	"time"

	"converse/service"
)

func main() {
	listen := flag.String("listen", "", "run the gateway on this address (one per cluster)")
	join := flag.String("join", "", "join the gateway at this address as a worker daemon")
	slots := flag.Int("slots", 4, "PEs this host offers (gateway mode: 0 disables the local daemon)")
	token := flag.String("token", "", "service auth token; every client and daemon must present it when set")
	name := flag.String("name", "", "daemon name (default host-derived; the gateway uniquifies)")
	backlog := flag.Int("backlog", 64, "gateway admission queue bound; submits beyond it are rejected")
	requeues := flag.Int("requeues", 3, "gateway per-job requeue budget after daemon loss")
	watchdog := flag.Duration("watchdog", 60*time.Second, "gateway bound on one job attempt's runtime")
	heartbeat := flag.Duration("heartbeat", 500*time.Millisecond, "job mesh liveness interval")
	stateDir := flag.String("state", "", "gateway journal directory; restarting with the same dir recovers jobs")
	recovery := flag.Duration("recovery", 5*time.Second, "post-restart window for daemons to re-register before lost gangs requeue")
	advertise := flag.String("advertise", "", "host other machines dial to reach this process's meshes (default loopback-only)")
	drainTO := flag.Duration("drain", 10*time.Second, "SIGTERM drain bound: how long running gangs get to finish")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: conversed -listen ADDR [flags]   (gateway)\n")
		fmt.Fprintf(os.Stderr, "       conversed -join ADDR [flags]     (worker)\n")
		flag.PrintDefaults()
	}
	flag.Parse()
	if (*listen == "") == (*join == "") {
		fmt.Fprintln(os.Stderr, "conversed: exactly one of -listen (gateway) or -join (worker) is required")
		flag.Usage()
		os.Exit(2)
	}
	logf := func(format string, args ...any) {
		fmt.Fprintf(os.Stderr, "conversed: "+format+"\n", args...)
	}

	if *name == "" {
		if h, err := os.Hostname(); err == nil {
			*name = h
		}
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)

	if *listen != "" {
		g, err := service.NewGateway(service.GatewayConfig{
			Addr:           *listen,
			Token:          *token,
			BacklogCap:     *backlog,
			MaxRequeues:    *requeues,
			Heartbeat:      *heartbeat,
			JobWatchdog:    *watchdog,
			StateDir:       *stateDir,
			RecoveryWindow: *recovery,
			DrainTimeout:   *drainTO,
			Logf:           logf,
		})
		if err != nil {
			fmt.Fprintf(os.Stderr, "conversed: %v\n", err)
			os.Exit(1)
		}
		logf("gateway on %s (backlog %d, watchdog %v)", g.Addr(), *backlog, *watchdog)
		if *slots > 0 {
			d, err := service.StartDaemon(service.DaemonConfig{
				Gateway: g.Addr(), Token: *token, Name: *name, Slots: *slots,
				Advertise: *advertise, Logf: logf,
			})
			if err != nil {
				g.Close()
				fmt.Fprintf(os.Stderr, "conversed: starting local daemon: %v\n", err)
				os.Exit(1)
			}
			logf("local daemon %s offering %d PEs", d.Name(), *slots)
			defer d.Stop()
		}
		s := <-sig
		if s == syscall.SIGTERM {
			// Graceful: stop admitting, let gangs finish (bounded), journal
			// a clean-shutdown record so the next -state run starts warm.
			logf("SIGTERM: draining")
			g.Drain()
			return
		}
		logf("shutting down")
		g.Close()
		return
	}

	d, err := service.StartDaemon(service.DaemonConfig{
		Gateway: *join, Token: *token, Name: *name, Slots: *slots,
		Advertise: *advertise, Logf: logf,
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "conversed: %v\n", err)
		os.Exit(1)
	}
	logf("daemon %s joined %s offering %d PEs", d.Name(), *join, *slots)
	done := make(chan struct{})
	go func() { d.Wait(); close(done) }()
	select {
	case s := <-sig:
		if s == syscall.SIGTERM {
			// Graceful: tell the gateway to stop placing gangs here, finish
			// the local ones (bounded), then leave.
			logf("SIGTERM: draining local gangs")
			d.Drain()
			return
		}
		logf("leaving the cluster")
		d.Stop()
	case <-done:
		// Unrecoverable gateway loss ends the session; local gangs were
		// drained after the reconnect window expired.
		logf("gateway session ended")
	}
}
