package mnet

import (
	"bufio"
	"crypto/rand"
	"encoding/hex"
	"fmt"
	"io"
	"net"
	"os"
	"os/exec"
	"sync"
	"time"

	"converse/internal/ccs"
	"converse/internal/faultnet"
)

// LaunchConfig parameterizes a converserun job.
type LaunchConfig struct {
	// NP is the number of worker processes (nodes) to start.
	NP int
	// PPN is the PE-per-node capacity advertised to the workers
	// (converserun -ppn): each worker process may host up to PPN PEs, so
	// the job accommodates machines of up to NP*PPN PEs. Zero or 1 means
	// the classic one-PE-per-process mapping.
	PPN int
	// Prog and Args name the worker binary and its arguments; every
	// worker gets the same command line (SPMD), distinguished only by the
	// rank environment.
	Prog string
	Args []string
	// Timeout, if nonzero, kills the whole job after the given wall-clock
	// time (a distributed watchdog for CI).
	Timeout time.Duration
	// Heartbeat overrides the job's liveness interval (default 1s,
	// minimum 10ms).
	Heartbeat time.Duration
	// FailurePolicy is the job-wide failure policy (FailFast/FailRetry)
	// passed to every worker. Under FailRetry the launcher also tolerates
	// individual worker death: surviving ranks run on, and the job exits
	// nonzero at the end with a degraded-completion report.
	FailurePolicy string
	// RecoveryWindow overrides the workers' link recovery window.
	RecoveryWindow time.Duration
	// Faults is a fault-injection plan (internal/faultnet grammar)
	// passed to every worker.
	Faults string
	// Monitor, if non-empty, opens the mesh-wide live-introspection
	// socket on this address (converserun -monitor): each worker starts
	// a local ccs endpoint and reports it; the launcher aggregates them
	// all behind this one address and prints it once bound.
	Monitor string
	// Stdout and Stderr receive forwarded console output and prefixed
	// worker process output; they default to os.Stdout and os.Stderr.
	Stdout, Stderr io.Writer
}

// Launch runs a converserun job to completion: start NP copies of the
// worker binary, serve their rendezvous rounds, forward their console
// output, and propagate failure. It returns nil only if every worker
// process exits zero; the first failure of any kind — nonzero exit,
// reported fatal error, lost control connection, heartbeat silence,
// timeout — kills every worker and surfaces as the returned error.
func Launch(cfg LaunchConfig) error {
	if cfg.NP < 1 {
		return fmt.Errorf("mnet: launch needs at least one worker, got -np %d", cfg.NP)
	}
	if cfg.PPN < 0 {
		return fmt.Errorf("mnet: negative -ppn %d", cfg.PPN)
	}
	if cfg.PPN == 0 {
		cfg.PPN = 1
	}
	if cfg.Heartbeat != 0 && cfg.Heartbeat < minHeartbeat {
		return fmt.Errorf("mnet: heartbeat %v below the %v minimum (liveness detection would be pure noise)",
			cfg.Heartbeat, minHeartbeat)
	}
	if cfg.Heartbeat <= 0 {
		cfg.Heartbeat = defaultHeartbeat
	}
	switch cfg.FailurePolicy {
	case "", FailFast, FailRetry:
	default:
		return fmt.Errorf("mnet: unknown failure policy %q (want %q or %q)",
			cfg.FailurePolicy, FailFast, FailRetry)
	}
	if _, err := faultnet.Parse(cfg.Faults); err != nil {
		return err
	}
	if cfg.Stdout == nil {
		cfg.Stdout = os.Stdout
	}
	if cfg.Stderr == nil {
		cfg.Stderr = os.Stderr
	}
	ls, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return fmt.Errorf("mnet: binding launcher control port: %w", err)
	}
	defer ls.Close()
	token := newToken()
	s := &jobServer{cfg: cfg, token: token, failCh: make(chan error, 1),
		monitors: map[int]string{}}
	s.cs = NewControlServer(cfg.NP, cfg.PPN, token, cfg.Heartbeat, ControlCallbacks{
		Console: func(rank int, isErr bool, text string) {
			s.outMu.Lock()
			if isErr {
				fmt.Fprint(cfg.Stderr, text)
			} else {
				fmt.Fprint(cfg.Stdout, text)
			}
			s.outMu.Unlock()
		},
		MonitorAddr: func(rank int, addr string) {
			s.mu.Lock()
			s.monitors[rank] = addr
			s.mu.Unlock()
		},
		Fail: s.fail,
		RankLost: func(rank int, err error) bool {
			// Under FailRetry a lost worker degrades the job instead of
			// killing it; the process-exit path in Launch records it.
			return cfg.FailurePolicy == FailRetry
		},
	})
	go s.cs.Serve(ls)
	if cfg.Monitor != "" {
		agg, err := ccs.ServeAggregate(cfg.Monitor, token, s.monitorMap)
		if err != nil {
			return fmt.Errorf("mnet: binding monitor socket: %w", err)
		}
		defer agg.Close()
		// The token is printed so the operator can point conversetop
		// -token at the socket; it only ever reaches the job's stdout.
		fmt.Fprintf(cfg.Stdout, "converserun: monitor on %s token %s\n", agg.Addr(), token)
	}

	// Spawn the workers. Their stdout/stderr (Go panics, stray prints —
	// CmiPrintf goes over the control connection instead) are forwarded
	// line by line under a "[rank N]" prefix, like charmrun.
	cmds := make([]*exec.Cmd, cfg.NP)
	type procExit struct {
		rank int
		err  error
	}
	exitCh := make(chan procExit, cfg.NP)
	for i := 0; i < cfg.NP; i++ {
		cmd := exec.Command(cfg.Prog, cfg.Args...)
		cmd.Env = append(os.Environ(),
			EnvJob+"="+ls.Addr().String(),
			fmt.Sprintf("%s=%d", EnvRank, i),
			fmt.Sprintf("%s=%d", EnvNP, cfg.NP),
			EnvToken+"="+token,
			EnvHeartbeat+"="+cfg.Heartbeat.String(),
		)
		if cfg.PPN > 1 {
			cmd.Env = append(cmd.Env, fmt.Sprintf("%s=%d", EnvPPN, cfg.PPN))
		}
		if cfg.FailurePolicy != "" {
			cmd.Env = append(cmd.Env, EnvFailure+"="+cfg.FailurePolicy)
		}
		if cfg.RecoveryWindow > 0 {
			cmd.Env = append(cmd.Env, EnvRecovery+"="+cfg.RecoveryWindow.String())
		}
		if cfg.Faults != "" {
			cmd.Env = append(cmd.Env, EnvFaults+"="+cfg.Faults)
		}
		if cfg.Monitor != "" {
			cmd.Env = append(cmd.Env, EnvMonitor+"=1")
		}
		pipes := new(sync.WaitGroup)
		stdout, err := cmd.StdoutPipe()
		if err == nil {
			var stderr io.ReadCloser
			if stderr, err = cmd.StderrPipe(); err == nil {
				pipes.Add(2)
				go func() { defer pipes.Done(); s.forward(i, stdout, cfg.Stdout) }()
				go func() { defer pipes.Done(); s.forward(i, stderr, cfg.Stderr) }()
				err = cmd.Start()
			}
		}
		if err != nil {
			s.fail(fmt.Errorf("mnet: starting worker rank %d: %w", i, err))
			break
		}
		cmds[i] = cmd
		go func(rank int, cmd *exec.Cmd, pipes *sync.WaitGroup) {
			// Drain both pipes before Wait: Wait closes them, and output
			// still in flight when the process exits would be lost.
			pipes.Wait()
			exitCh <- procExit{rank, cmd.Wait()}
		}(i, cmd, pipes)
	}

	var timeoutCh <-chan time.Time
	if cfg.Timeout > 0 {
		t := time.NewTimer(cfg.Timeout)
		defer t.Stop()
		timeoutCh = t.C
	}

	remaining := 0
	for _, cmd := range cmds {
		if cmd != nil {
			remaining++
		}
	}
	var jobErr error
	var deadRanks []int
	select {
	case jobErr = <-s.failCh:
	default:
	}
	for remaining > 0 && jobErr == nil {
		select {
		case e := <-exitCh:
			remaining--
			if e.err != nil {
				// Under FailRetry a single worker's death degrades the job
				// instead of killing it: surviving ranks get their links'
				// recovery windows and peer-down notifications, and the
				// job reports the loss only at the end.
				if cfg.FailurePolicy == FailRetry && remaining > 0 {
					deadRanks = append(deadRanks, e.rank)
					s.cs.MarkDead(e.rank)
					fmt.Fprintf(cfg.Stderr, "converserun: worker rank %d died (%v); continuing under retry policy\n",
						e.rank, e.err)
					continue
				}
				jobErr = fmt.Errorf("mnet: worker rank %d failed: %v", e.rank, e.err)
			}
		case jobErr = <-s.failCh:
		case <-timeoutCh:
			jobErr = fmt.Errorf("mnet: job exceeded timeout %v; state: %s", cfg.Timeout, s.cs.Describe())
		}
	}
	if jobErr == nil && len(deadRanks) > 0 {
		jobErr = fmt.Errorf("mnet: job finished degraded: ranks %v died mid-run", deadRanks)
	}
	s.cs.Shutdown()
	if jobErr != nil {
		for _, cmd := range cmds {
			if cmd != nil && cmd.Process != nil {
				cmd.Process.Kill()
			}
		}
		for remaining > 0 {
			<-exitCh
			remaining--
		}
	}
	// Drain the control readers before returning: the workers have
	// exited, so every control connection is at EOF, but a reader
	// goroutine may still be parsing the final console frames — returning
	// now would truncate the job's output. Bounded, in case a connection
	// is wedged rather than closed.
	ls.Close()
	s.cs.Drain(2 * time.Second)
	return jobErr
}

// newToken produces the job-unique token that guards every connection.
func newToken() string {
	var b [8]byte
	rand.Read(b[:])
	return hex.EncodeToString(b[:])
}

// round is one rendezvous round's server-side state: a round begins when
// the first worker says hello for its number and ends when every active
// node has reported done and been released.
type round struct {
	num      int
	pes      int
	nodes    int // active node processes (ranks < nodes run drivers)
	addrs    []string
	links    []*RankLink
	hellos   int
	doneSet  map[int]bool
	released bool
}

// jobServer is the launcher's job supervisor: the rendezvous and
// console protocol itself lives in ControlServer (shared with the
// elastic cluster service); this wrapper adds what only converserun
// needs — worker process management, prefixed output forwarding, the
// monitor map, and first-failure latching.
type jobServer struct {
	cfg    LaunchConfig
	token  string
	failCh chan error
	fOnce  sync.Once

	cs *ControlServer

	mu sync.Mutex
	// monitors maps rank -> that worker's local ccs endpoint address
	// (reported over the control connection when -monitor is set).
	monitors map[int]string

	outMu sync.Mutex
}

func (s *jobServer) fail(err error) {
	s.fOnce.Do(func() { s.failCh <- err })
}

// monitorMap snapshots the rank -> monitor-endpoint map for the
// aggregator.
func (s *jobServer) monitorMap() map[int]string {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make(map[int]string, len(s.monitors))
	for r, a := range s.monitors {
		out[r] = a
	}
	return out
}

// forward copies one worker stream line by line under a rank prefix.
func (s *jobServer) forward(rank int, from io.Reader, to io.Writer) {
	sc := bufio.NewScanner(from)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for sc.Scan() {
		s.outMu.Lock()
		fmt.Fprintf(to, "[rank %d] %s\n", rank, sc.Text())
		s.outMu.Unlock()
	}
}
