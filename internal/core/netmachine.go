package core

// The binding between the core and the TCP network machine layer
// (internal/mnet). This is deliberately the only file in the core that
// knows mnet exists: everything else consumes machine.Substrate,
// mirroring how Converse ports swap machine layers under an unchanged
// core.

import (
	"fmt"
	"os"

	"converse/internal/ccs"
	"converse/internal/metrics"
	"converse/internal/mnet"
)

// netInJob reports whether this process was spawned by converserun
// (the CONVERSE_NET_* environment is set).
func netInJob() bool { return mnet.InJob() }

// newNetMachine joins the surrounding converserun job and builds the
// local node's Converse machine on the TCP substrate. Failures here are
// unrecoverable configuration or rendezvous errors; per the machine
// layer's failure model they abort the process loudly rather than limp.
func newNetMachine(cfg Config) *Machine {
	ncfg, err := mnet.EnvJobConfig(cfg.PEs)
	if err != nil {
		panic(fmt.Sprintf("core: joining converserun job: %v", err))
	}
	// Program-level Config wins over the launcher environment, so a
	// program that hard-codes a failure policy or fault plan behaves the
	// same under any launcher invocation.
	if cfg.FailurePolicy != "" {
		ncfg.FailurePolicy = cfg.FailurePolicy
	}
	if cfg.RecoveryWindow > 0 {
		ncfg.RecoveryWindow = cfg.RecoveryWindow
	}
	if cfg.Faults != "" {
		ncfg.Faults = cfg.Faults
	}
	monitor := os.Getenv(mnet.EnvMonitor) != ""
	if monitor && cfg.Metrics == nil {
		// The launcher asked for live introspection; give the snapshot
		// something to show even when the program attached no registry.
		cfg.Metrics = metrics.New(cfg.PEs)
	}
	node, err := mnet.Join(ncfg)
	if err != nil {
		panic(fmt.Sprintf("core: joining converserun job: %v", err))
	}
	cm := NewMachineOn(node, cfg)
	if cfg.Metrics != nil && node.Active() {
		node.SetMetrics(cfg.Metrics.PE(node.ID()))
	}
	if monitor && node.Active() {
		startNetMonitor(cm, node, ncfg.Token)
	}
	return cm
}

// netMonitor is the current rendezvous round's introspection endpoint.
// A program that builds machines in sequence (examples/quickstart)
// joins once per machine; each join replaces the previous endpoint so
// the launcher's aggregator always reaches the live machine.
var netMonitor *ccs.Monitor

// startNetMonitor opens this worker's local introspection endpoint on
// an ephemeral port and reports its address to the launcher, which
// aggregates all ranks behind converserun -monitor.
func startNetMonitor(cm *Machine, node *mnet.Node, token string) {
	if netMonitor != nil {
		netMonitor.Close()
		netMonitor = nil
	}
	mon, err := cm.StartMonitor("127.0.0.1:0", token)
	if err != nil {
		// Introspection is an observer, never a reason to kill the job.
		fmt.Fprintf(os.Stderr, "core: monitor endpoint: %v\n", err)
		return
	}
	netMonitor = mon
	if err := node.ReportMonitor(mon.Addr()); err != nil {
		fmt.Fprintf(os.Stderr, "core: reporting monitor address: %v\n", err)
	}
}
