// Package service is the elastic long-running cluster service: a
// conversed daemon per host pre-warms a node of PEs, a gateway rank
// accepts a stream of jobs over the shared internal/wire framing, and
// gangs are scheduled onto PE subsets with admission control. It
// promotes the batch runtime (`converserun -np N`, run, exit) into the
// deployment shape of long-lived message-driven device graphs: the
// mesh machinery stays warm across jobs, daemons join and leave live,
// and a lost daemon requeues its gangs instead of failing the service.
//
// Topology: one Gateway process (which normally also hosts a local
// Daemon) plus any number of Daemons, each holding a persistent
// control session to the gateway and one standing mesh listener. Per
// admitted job the gateway runs one mnet.ControlServer — the same
// rendezvous protocol converserun speaks — with a job-unique token,
// but binds nothing for it: each rank's control link rides its
// daemon's session (kCtrl frames), and each participating daemon runs
// the rank as an in-process mnet node whose mesh links arrive through
// the daemon's listener, with the job's machine's handler tables,
// metrics registry, and monitor scope isolated (core.Config.Job). A
// warm job therefore opens one TCP connection per mesh link and
// nothing else.
package service

import (
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"time"
)

// Service frame kinds ride the shared internal/wire framing. The mnet
// control protocol owns kinds 1..16 and the ccs introspection plane
// owns 64..68; the service plane starts at 96 so a frame misdirected
// across planes fails loudly instead of parsing.
const (
	// Client plane (client <-> gateway).
	kSubmit   = 96  // submitMsg -> submitReply
	kStatus   = 97  // statusMsg -> jobInfoMsg
	kCancel   = 98  // cancelMsg -> okMsg
	kJobs     = 99  // jobsMsg -> jobListMsg
	kCluster  = 100 // clusterMsg -> clusterInfoMsg
	kLogs     = 101 // logsMsg -> stream of kLogChunk, closed by kLogEnd
	kLogChunk = 102
	kLogEnd   = 103 // logEndMsg: terminal job state rides along
	kOK       = 104
	kErr      = 105

	// Daemon plane (daemon <-> gateway, one persistent session).
	kRegister = 110 // registerMsg -> registerReply
	kAssign   = 111 // assignMsg (gateway -> daemon)
	kUnassign = 112 // unassignMsg (gateway -> daemon): abort a job's ranks
	kUpdate   = 113 // updateMsg (daemon -> gateway): one rank's progress
	kDPing    = 114 // daemon liveness (daemon -> gateway)
	kDrain    = 115 // drainMsg (daemon -> gateway): stop placing, finish & leave
	kCtrl     = 116 // one mnet control frame of one rank, both ways (ctrlEnv)
)

// protoV is the service protocol version, checked on every request and
// registration so drifted binaries fail with a message instead of a
// decode error. v3 carries the ranks' control links on the daemon
// sessions (kCtrl) instead of per-job control ports, and rank updates
// carry stage times; v2 added the crash-tolerance fields: register
// resume state and epochs, per-job limits, advertise addresses, drain.
const protoV = 3

// Liveness and I/O budgets for the daemon session and client requests.
const (
	daemonPing       = 500 * time.Millisecond
	daemonMissFactor = 6
	reqTimeout       = 10 * time.Second
)

// reqHead opens every client request and daemon registration: the
// protocol version and the service token, checked once per connection
// by the gateway before any handler runs. Request types embed it first,
// so its fields lead their JSON encoding.
type reqHead struct {
	V     int    `json:"v"`
	Token string `json:"token,omitempty"`
}

type submitMsg struct {
	reqHead
	// Name labels the job for humans; the gateway makes it unique.
	Name string `json:"name,omitempty"`
	// Workload names a registered workload (see workload.go).
	Workload string `json:"workload"`
	// Args is the workload's parameter object, passed through verbatim.
	Args json.RawMessage `json:"args,omitempty"`
	// Gang is the PE count the job needs, scheduled all-or-nothing.
	Gang int `json:"gang"`
	// DeadlineMS, when positive, bounds the job's wall-clock runtime;
	// the owning daemons kill an overdue gang (reason deadline-killed).
	DeadlineMS int64 `json:"deadline_ms,omitempty"`
	// MaxMemMB, when positive, bounds the job's heap growth per daemon;
	// the watchdog kills an over-limit gang (reason mem-killed).
	MaxMemMB int `json:"max_mem_mb,omitempty"`
}

type submitReply struct {
	ID string `json:"id"`
}

type statusMsg struct {
	reqHead
	ID string `json:"id"`
}

type cancelMsg struct {
	reqHead
	ID string `json:"id"`
}

type jobsMsg struct {
	reqHead
}

type clusterMsg struct {
	reqHead
}

type logsMsg struct {
	reqHead
	ID string `json:"id"`
	// Follow streams new output until the job reaches a terminal state;
	// false returns the buffered backlog and ends immediately.
	Follow bool `json:"follow,omitempty"`
}

type logChunk struct {
	Text string `json:"text"`
	Err  bool   `json:"err,omitempty"`
}

type logEndMsg struct {
	State string `json:"state"`
	Error string `json:"error,omitempty"`
}

type okMsg struct {
	OK bool `json:"ok"`
}

// JobInfo is the client-visible record of one job, served by status
// and jobs and rendered by conversetop -jobs.
type JobInfo struct {
	ID       string `json:"id"`
	Name     string `json:"name"`
	Workload string `json:"workload"`
	State    string `json:"state"`
	Gang     int    `json:"gang"`
	// Daemons lists the participating daemons (empty until admitted).
	Daemons []string `json:"daemons,omitempty"`
	// QueueWaitMS is submit -> admission; RuntimeMS is admission ->
	// terminal (or now, for a running job).
	QueueWaitMS float64 `json:"queue_wait_ms"`
	RuntimeMS   float64 `json:"runtime_ms"`
	// BytesMoved sums the job machine's sent bytes across all ranks
	// (final metrics snapshots; 0 until ranks finish).
	BytesMoved uint64 `json:"bytes_moved"`
	// Requeues counts gang re-queues caused by daemon loss.
	Requeues int `json:"requeues"`
	// Stages breaks the run into the phases its ranks report (absent
	// until a rank of the latest attempt has reported).
	Stages *JobStages `json:"stages,omitempty"`
	Error  string     `json:"error,omitempty"`
	// Reason tags how the job reached (or survived) its fate:
	// deadline-killed, mem-killed, requeue-exhausted, recovered.
	Reason string `json:"reason,omitempty"`
	// DeadlineMS/MaxMemMB echo the submit-time limits (0 = unlimited).
	DeadlineMS float64 `json:"deadline_ms,omitempty"`
	MaxMemMB   int     `json:"max_mem_mb,omitempty"`
}

// JobStages is one rank's run broken into phases, in milliseconds:
// rendezvous (assignment received to the node table), mesh-up (table to
// the rank's own mesh links up), driver (links up to done reported) and
// finish (done to released). A job shows its slowest rank's — the rank
// whose phases add up to most — so the four are one rank's partition of
// its own run and sum to at most RuntimeMS.
type JobStages struct {
	RendezvousMS float64 `json:"rendezvous_ms"`
	MeshUpMS     float64 `json:"mesh_up_ms"`
	DriverMS     float64 `json:"driver_ms"`
	FinishMS     float64 `json:"finish_ms"`
}

func (s JobStages) total() float64 { return s.RendezvousMS + s.MeshUpMS + s.DriverMS + s.FinishMS }

type jobListMsg struct {
	Jobs []JobInfo `json:"jobs"`
}

// DaemonInfo is the client-visible record of one registered daemon.
type DaemonInfo struct {
	Name  string `json:"name"`
	Slots int    `json:"slots"`
	// Busy is the number of slots held by admitted/running gangs.
	Busy int  `json:"busy"`
	Live bool `json:"live"`
	// Advertise is the host other machines should use to reach this
	// daemon's job meshes (empty: loopback-only).
	Advertise string `json:"advertise,omitempty"`
	// Draining means the daemon asked to leave: it finishes its gangs
	// but receives no new ones.
	Draining bool `json:"draining,omitempty"`
}

type clusterInfoMsg struct {
	Daemons []DaemonInfo `json:"daemons"`
	// Backlog and BacklogCap describe the admission queue.
	Backlog    int `json:"backlog"`
	BacklogCap int `json:"backlog_cap"`
	// Epoch is the gateway's incarnation number (bumped every start
	// when journaling; 0 without a state dir). Recovering means the
	// post-restart reconciliation window is still open.
	Epoch      int64 `json:"epoch,omitempty"`
	Recovering bool  `json:"recovering,omitempty"`
}

// resumeEntry is one job rank a re-registering daemon reports: still
// running (the gateway re-adopts it) or finished during the outage
// (the gateway applies the result it missed). The daemon keeps a small
// ring of finished entries precisely because a terminal update written
// into a dying gateway's socket is otherwise lost forever.
type resumeEntry struct {
	Job     string `json:"job"`
	Attempt int    `json:"attempt"`
	Rank    int    `json:"rank"`
	// Running distinguishes a live rank from a buffered finished result.
	Running   bool   `json:"running"`
	OK        bool   `json:"ok,omitempty"`
	Error     string `json:"error,omitempty"`
	Reason    string `json:"reason,omitempty"`
	SentBytes uint64 `json:"sent_bytes,omitempty"`
}

// fenceEntry names a resumed rank the gateway refuses to re-adopt
// (unknown job, stale attempt, job already terminal): the daemon must
// kill it locally.
type fenceEntry struct {
	Job     string `json:"job"`
	Attempt int    `json:"attempt"`
	Reason  string `json:"reason"`
}

type registerMsg struct {
	reqHead
	Name  string `json:"name"`
	Slots int    `json:"slots"`
	// Advertise is the daemon's reachable host for cross-host meshes.
	Advertise string `json:"advertise,omitempty"`
	// Epoch is the last gateway epoch this daemon saw (0 on first
	// contact). A re-register against a restarted gateway carries the
	// old epoch plus the daemon's per-job attempt state.
	Epoch  int64         `json:"epoch,omitempty"`
	Resume []resumeEntry `json:"resume,omitempty"`
}

type registerReply struct {
	Name  string `json:"name"` // gateway-uniquified daemon name
	Epoch int64  `json:"epoch,omitempty"`
	// Kill lists resumed ranks the gateway fenced off.
	Kill []fenceEntry `json:"kill,omitempty"`
}

// drainMsg asks the gateway to stop placing gangs on this daemon; the
// daemon finishes what it holds and deregisters.
type drainMsg struct {
	Name string `json:"name"`
}

// assignMsg carries one rank of a gang to a daemon: everything an
// in-process mnet.Join + core machine needs.
type assignMsg struct {
	Job string `json:"job"`
	// Attempt numbers the job's scheduling attempts; updates echo it so
	// stragglers from a drained attempt can't corrupt its requeue.
	Attempt  int             `json:"attempt"`
	Workload string          `json:"workload"`
	Args     json.RawMessage `json:"args,omitempty"`
	// JobToken guards the job's rendezvous and names its mesh links on
	// the daemons' listeners.
	JobToken  string `json:"job_token"`
	Rank      int    `json:"rank"`
	NP        int    `json:"np"`
	PEs       int    `json:"pes"`
	NodeSizes []int  `json:"node_sizes"`
	// HeartbeatMS is the job mesh's link liveness interval.
	HeartbeatMS int64 `json:"heartbeat_ms"`
	// DeadlineMS/MaxMemMB are the job's resource limits, enforced by
	// the daemon-side watchdog (0 = unlimited).
	DeadlineMS int64 `json:"deadline_ms,omitempty"`
	MaxMemMB   int   `json:"max_mem_mb,omitempty"`
}

type unassignMsg struct {
	Job     string `json:"job"`
	Attempt int    `json:"attempt"`
	Reason  string `json:"reason"`
}

// updateMsg reports one rank's terminal result to the gateway.
type updateMsg struct {
	Job     string `json:"job"`
	Attempt int    `json:"attempt"`
	Rank    int    `json:"rank"`
	// OK means the machine ran to completion; otherwise Error explains.
	OK    bool   `json:"ok"`
	Error string `json:"error,omitempty"`
	// Reason tags watchdog kills (deadline-killed / mem-killed).
	Reason string `json:"reason,omitempty"`
	// SentBytes is the rank's share of the job machine's traffic.
	SentBytes uint64 `json:"sent_bytes"`
	// Epoch is the gateway incarnation the daemon believes it is talking
	// to; a recovered gateway drops updates from a stale epoch.
	Epoch int64 `json:"epoch,omitempty"`
	// Stages is the rank's run by phase (nil if its node never opened).
	Stages *JobStages `json:"stages,omitempty"`
}

type dPingMsg struct {
	Name string `json:"name"`
}

// newID produces a short unique job identifier.
func newID(prefix string) string {
	var b [4]byte
	rand.Read(b[:])
	return prefix + "-" + hex.EncodeToString(b[:])
}
