// Package service re-exports the elastic cluster service: the
// conversed gateway and daemon (cmd/conversed), the thin client used
// by converserun -daemon and conversetop -jobs, and the workload
// registry programs extend to make their own kernels submittable. See
// converse/internal/service for the protocol and scheduler.
package service

import "converse/internal/service"

// GatewayConfig parameterizes the service gateway (the rank that
// admits, gang-schedules, and tracks jobs).
type GatewayConfig = service.GatewayConfig

// Gateway accepts jobs and schedules them onto registered daemons.
type Gateway = service.Gateway

// NewGateway binds and starts a gateway.
func NewGateway(cfg GatewayConfig) (*Gateway, error) { return service.NewGateway(cfg) }

// DaemonConfig parameterizes one conversed daemon (a warm worker
// host offering Slots PEs).
type DaemonConfig = service.DaemonConfig

// Daemon is a registered worker host.
type Daemon = service.Daemon

// StartDaemon registers with a gateway and serves assignments until
// Stop or gateway loss.
func StartDaemon(cfg DaemonConfig) (*Daemon, error) { return service.StartDaemon(cfg) }

// Client is the thin gateway client; it keeps a connection open
// between requests instead of dialing for each one.
type Client = service.Client

// SubmitSpec is one job submission with its resource limits
// (deadline, heap ceiling) and client-side connect-retry policy.
type SubmitSpec = service.SubmitSpec

// ClusterView is the full cluster snapshot (daemon roster, queue,
// gateway epoch and recovery state).
type ClusterView = service.ClusterView

// JobInfo is the client-visible record of one job.
type JobInfo = service.JobInfo

// JobStages is a job's run broken into phases by its slowest rank.
type JobStages = service.JobStages

// DaemonInfo is the client-visible record of one registered daemon.
type DaemonInfo = service.DaemonInfo

// State is one job's position in the service lifecycle.
type State = service.State

// The job states. Done, Cancelled, and Failed are terminal.
const (
	Queued     = service.Queued
	Admitted   = service.Admitted
	Running    = service.Running
	Requeued   = service.Requeued
	Recovering = service.Recovering
	Done       = service.Done
	Cancelled  = service.Cancelled
	Failed     = service.Failed
)

// Workload prepares one job machine; see internal/service.Workload.
type Workload = service.Workload

// RegisterWorkload adds a named workload to the registry. Programs
// embedding a Daemon register theirs before StartDaemon.
func RegisterWorkload(name string, w Workload) { service.RegisterWorkload(name, w) }

// Workloads lists the registered workload names, sorted.
func Workloads() []string { return service.Workloads() }
