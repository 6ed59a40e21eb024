package mnet

import (
	"fmt"
	"os"
	"strconv"
	"time"
)

// protoMagic and protoVersion identify the rendezvous protocol. Every
// hello carries both; a mismatch (stale binary, stray connection) kills
// the job immediately rather than producing wire garbage later.
const (
	protoMagic = "CONVERSE-MNET"
	// protoVersion 5: no mesh go-barrier — a node runs its driver as
	// soon as its own links are up (kinds 3 and 4 are retired), and a
	// hosted node's hello announces its host's shared mesh listener.
	// Version 4 routed every data frame
	// ([u64 seq][u32 src PE][u32 dst PE][message]), flat jobs included;
	// version 3 added the node-aware hello (each worker reports the
	// machine's node count); version 2 the checksummed frame header
	// (CRC32C), sequenced data frames, ack/nack kinds, and the
	// session-resume peer hello.
	protoVersion = 5
)

// Failure policies (Config.FailurePolicy, converserun -failure).
const (
	// FailFast (the default) kills the whole job on the first link
	// fault — the paper's fail-stop posture.
	FailFast = "failfast"
	// FailRetry turns on the reliability sub-layer: checksummed,
	// sequenced, acked frames; NACK/timeout retransmission; and
	// session-resuming reconnection within Config.RecoveryWindow. A link
	// that stays down past the window declares the peer dead through the
	// peer-down notification hook.
	FailRetry = "retry"
)

// Environment variables through which the launcher passes job
// coordinates to worker processes. The presence of EnvJob is what makes
// core's TransportAuto pick the TCP substrate.
const (
	// EnvJob is the launcher's control address (host:port).
	EnvJob = "CONVERSE_NET_JOB"
	// EnvRank is this worker's rank in [0, NP).
	EnvRank = "CONVERSE_NET_RANK"
	// EnvNP is the worker-process count (converserun -nodes, or -np with
	// one PE per node).
	EnvNP = "CONVERSE_NET_NP"
	// EnvPPN is the PE-per-node capacity (converserun -ppn): each worker
	// process hosts up to this many PEs. Absent or 1 means the classic
	// 1:1 rank↔PE mapping.
	EnvPPN = "CONVERSE_NET_PPN"
	// EnvToken is the job-unique token; connections presenting a
	// different token are rejected.
	EnvToken = "CONVERSE_NET_MAGIC"
	// EnvHeartbeat carries the launcher's liveness interval (a Go
	// duration string) so workers and launcher agree on it.
	EnvHeartbeat = "CONVERSE_NET_HEARTBEAT"
	// EnvFailure carries the job's failure policy (FailFast/FailRetry).
	EnvFailure = "CONVERSE_NET_FAILURE"
	// EnvRecovery carries the link recovery window (a Go duration
	// string) used under FailRetry.
	EnvRecovery = "CONVERSE_NET_RECOVERY"
	// EnvFaults carries the fault-injection plan (internal/faultnet
	// grammar) each worker applies to its outbound data frames.
	EnvFaults = "CONVERSE_NET_FAULTS"
	// EnvMonitor, when set (converserun -monitor), asks each worker to
	// open a local introspection endpoint (internal/ccs) and report its
	// address back to the launcher over the control connection.
	EnvMonitor = "CONVERSE_NET_MONITOR"
)

// Protocol timing defaults; Config can override them (tests shrink the
// heartbeat to exercise failure detection quickly).
const (
	defaultHeartbeat = 1 * time.Second
	defaultHandshake = 30 * time.Second
	// minHeartbeat is the smallest accepted liveness interval: below it
	// scheduling noise alone outruns the heartbeat and the failure
	// detector produces nothing but false positives.
	minHeartbeat = 10 * time.Millisecond
	// heartbeatMissFactor: a link silent for this many heartbeat
	// intervals is declared dead.
	heartbeatMissFactor = 3
	// defaultRecoveryFactor: under FailRetry a lost link gets
	// defaultRecoveryFactor heartbeat intervals to come back before the
	// peer is declared dead (Config.RecoveryWindow overrides).
	defaultRecoveryFactor = 8
)

// Control-frame payloads. JSON keeps the rendezvous path debuggable;
// only data frames are on the performance path.

type helloMsg struct {
	Magic   string `json:"magic"`
	Version int    `json:"version"`
	Token   string `json:"token"`
	Round   int    `json:"round"`
	Rank    int    `json:"rank"`
	PEs     int    `json:"pes"`
	Nodes   int    `json:"nodes"` // node count of the machine (ranks < Nodes are active)
	Addr    string `json:"addr"`  // this worker's mesh listen address
}

type tableMsg struct {
	Round int      `json:"round"`
	PEs   int      `json:"pes"`
	Addrs []string `json:"addrs"` // mesh addresses indexed by rank
}

type doneMsg struct {
	Round int `json:"round"`
	Rank  int `json:"rank"`
}

type releaseMsg struct {
	Round int `json:"round"`
}

type consoleMsg struct {
	Rank int    `json:"rank"`
	Err  bool   `json:"err"`
	Text string `json:"text"`
}

type failMsg struct {
	Rank int    `json:"rank"`
	Text string `json:"text"`
}

type peerHelloMsg struct {
	Token string `json:"token"`
	Round int    `json:"round"`
	From  int    `json:"from"`
	// Resume marks a session-resuming reconnect of an established link
	// (FailRetry); Ack carries the dialer's cumulative receive ack so
	// the acceptor can prune its retransmit ring and replay the rest.
	Resume bool   `json:"resume,omitempty"`
	Ack    uint64 `json:"ack,omitempty"`
}

// peerHelloAckMsg answers a resuming peer hello with the acceptor's own
// cumulative receive ack.
type peerHelloAckMsg struct {
	Ack uint64 `json:"ack"`
}

// monitorAddrMsg reports a worker's local monitor endpoint address so
// the launcher's -monitor aggregator can reach it.
type monitorAddrMsg struct {
	Rank int    `json:"rank"`
	Addr string `json:"addr"`
}

// InJob reports whether this process was started by the converserun
// launcher (the job environment is present).
func InJob() bool { return os.Getenv(EnvJob) != "" }

// Rank returns this process's job rank, or 0 outside a job.
func Rank() int {
	r, _ := strconv.Atoi(os.Getenv(EnvRank))
	return r
}

// JobPEs returns the surrounding job's PE capacity — worker processes
// times PEs per worker (converserun -np, or -nodes × -ppn) — or 0
// outside a job. Programs that size their machine to the job
// (examples/jacobi) read this instead of hard-coding a PE count.
func JobPEs() int {
	if !InJob() {
		return 0
	}
	np, err := strconv.Atoi(os.Getenv(EnvNP))
	if err != nil || np < 1 {
		return 0
	}
	ppn := 1
	if s := os.Getenv(EnvPPN); s != "" {
		if k, err := strconv.Atoi(s); err == nil && k > 0 {
			ppn = k
		}
	}
	return np * ppn
}

// envConfig builds a node Config from the launcher-provided environment.
func envConfig(pes int) (Config, error) {
	job := os.Getenv(EnvJob)
	if job == "" {
		return Config{}, fmt.Errorf("mnet: %s not set (not inside a converserun job)", EnvJob)
	}
	rank, err := strconv.Atoi(os.Getenv(EnvRank))
	if err != nil {
		return Config{}, fmt.Errorf("mnet: bad %s: %w", EnvRank, err)
	}
	np, err := strconv.Atoi(os.Getenv(EnvNP))
	if err != nil {
		return Config{}, fmt.Errorf("mnet: bad %s: %w", EnvNP, err)
	}
	cfg := Config{
		Launcher: job,
		Token:    os.Getenv(EnvToken),
		Rank:     rank,
		NP:       np,
		PEs:      pes,
	}
	if ppn := os.Getenv(EnvPPN); ppn != "" {
		k, err := strconv.Atoi(ppn)
		if err != nil || k < 1 {
			return Config{}, fmt.Errorf("mnet: bad %s %q (want a positive PE-per-node count)", EnvPPN, ppn)
		}
		cfg.PPN = k
	}
	if hb := os.Getenv(EnvHeartbeat); hb != "" {
		d, err := time.ParseDuration(hb)
		if err != nil {
			return Config{}, fmt.Errorf("mnet: bad %s: %w", EnvHeartbeat, err)
		}
		cfg.Heartbeat = d
	}
	cfg.FailurePolicy = os.Getenv(EnvFailure)
	if rw := os.Getenv(EnvRecovery); rw != "" {
		d, err := time.ParseDuration(rw)
		if err != nil {
			return Config{}, fmt.Errorf("mnet: bad %s: %w", EnvRecovery, err)
		}
		cfg.RecoveryWindow = d
	}
	cfg.Faults = os.Getenv(EnvFaults)
	return cfg, nil
}

// EnvJobConfig builds a node Config for a machine of pes processors
// from the launcher-provided environment without joining, so callers
// (internal/core) can override fields — failure policy, recovery
// window, fault plan — before Join.
func EnvJobConfig(pes int) (Config, error) { return envConfig(pes) }

// JoinFromEnv joins the surrounding converserun job for a machine of pes
// processors, using the coordinates the launcher placed in the
// environment. Each call is one rendezvous round: a program that builds
// several machines in sequence (examples/quickstart) joins once per
// machine, and the launcher matches rounds across workers by number.
func JoinFromEnv(pes int) (*Node, error) {
	cfg, err := envConfig(pes)
	if err != nil {
		return nil, err
	}
	return Join(cfg)
}
