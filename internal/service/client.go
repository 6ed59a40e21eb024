package service

import (
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"math/rand"
	"net"
	"sync"
	"time"

	"converse/internal/wire"
)

// Client is a thin gateway client. It keeps up to maxIdleConns
// connections open between requests, so a caller that submits, follows
// and polls a job opens one connection, not one per request. Each
// request or log stream holds a connection of its own while it runs, so
// concurrent callers may share one Client. An idle connection the
// gateway has closed is noticed before reuse and replaced by a dial; a
// Client that is dropped leaves its idle connections to the gateway's
// idle cut.
type Client struct {
	// Addr is the gateway address; Token the service auth token.
	Addr  string
	Token string

	mu   sync.Mutex
	idle []idleConn // most recently released last
}

// idleConn is a connection parked between requests.
type idleConn struct {
	conn  net.Conn
	since time.Time
}

// A Client parks at most maxIdleConns connections, each for at most
// clientIdleLimit: well inside the gateway's reqTimeout idle cut, so a
// request does not race the gateway closing the connection under it.
const (
	maxIdleConns    = 2
	clientIdleLimit = reqTimeout / 2
)

// connectError marks a failure to reach the gateway at all, as
// opposed to a reply the gateway chose to send (rejection, bad token):
// only the former is worth retrying — the gateway may be mid-restart.
type connectError struct{ err error }

func (e *connectError) Error() string { return e.err.Error() }
func (e *connectError) Unwrap() error { return e.err }

// head is the version and token every request carries.
func (c *Client) head() reqHead { return reqHead{V: protoV, Token: c.Token} }

// dial connects to the gateway with one request's deadline.
func (c *Client) dial() (net.Conn, error) {
	conn, err := wire.Dial(c.Addr, reqTimeout)
	if err != nil {
		return nil, &connectError{fmt.Errorf("service: dialing gateway %s: %w", c.Addr, err)}
	}
	return conn, nil
}

// take returns a connection for one exchange, with one request's
// deadline: the most recently parked one that is young enough and
// passes connAlive, else a fresh dial. reused reports which.
func (c *Client) take() (conn net.Conn, reused bool, err error) {
	for {
		c.mu.Lock()
		n := len(c.idle)
		if n == 0 {
			c.mu.Unlock()
			break
		}
		ic := c.idle[n-1]
		c.idle = c.idle[:n-1]
		c.mu.Unlock()
		if time.Since(ic.since) < clientIdleLimit &&
			ic.conn.SetDeadline(time.Now().Add(reqTimeout)) == nil && connAlive(ic.conn) {
			return ic.conn, true, nil
		}
		ic.conn.Close()
	}
	conn, err = c.dial()
	return conn, false, err
}

// release parks conn after a completed exchange, or closes it when
// maxIdleConns are already parked.
func (c *Client) release(conn net.Conn) {
	c.mu.Lock()
	if len(c.idle) < maxIdleConns {
		c.idle = append(c.idle, idleConn{conn: conn, since: time.Now()})
		conn = nil
	}
	c.mu.Unlock()
	if conn != nil {
		conn.Close()
	}
}

// exchange runs one request on a parked or fresh connection. serve
// reports whether the gateway answered at all (sent any frame); a
// reused connection that failed unanswered may have been cut while
// parked, so an idempotent request is tried once more on a fresh dial.
// A submit never is: it may have been admitted before the cut. The
// connection is parked again only after a clean exchange.
func (c *Client) exchange(idempotent bool, serve func(net.Conn) (answered bool, err error)) error {
	conn, reused, err := c.take()
	if err != nil {
		return err
	}
	answered, err := serve(conn)
	if err != nil && reused && !answered && idempotent {
		conn.Close()
		if conn, err = c.dial(); err != nil {
			return err
		}
		_, err = serve(conn)
	}
	if err != nil {
		conn.Close()
		return err
	}
	c.release(conn)
	return nil
}

// roundTrip sends one request frame and decodes one reply.
func (c *Client) roundTrip(kind byte, req, rep any) error {
	return c.exchange(kind != kSubmit, func(conn net.Conn) (bool, error) {
		if err := wire.WriteJSON(conn, kind, req); err != nil {
			return false, err
		}
		err := wire.ReadJSON(conn, kind, kErr, rep)
		var remote wire.Error
		return err == nil || errors.As(err, &remote), err
	})
}

// SubmitSpec is one job submission with its resource limits and the
// client-side retry policy.
type SubmitSpec struct {
	// Name labels the job; Workload and Args pick and parameterize the
	// registered workload; Gang is the PE count.
	Name     string
	Workload string
	Args     any
	Gang     int
	// Deadline bounds the job's wall-clock runtime (0: unlimited). The
	// daemon kills over-deadline jobs with reason "deadline-killed".
	Deadline time.Duration
	// MaxMemMB bounds the job's heap growth per rank in MiB (0:
	// unlimited); over-limit jobs die with reason "mem-killed".
	MaxMemMB int
	// RetryWindow bounds retries of transient connect failures with
	// seeded-jitter backoff (0: fail on the first). A gateway
	// mid-restart refuses connections for a moment; a submitter that
	// can wait should.
	RetryWindow time.Duration
}

// Submit sends one job for admission; it returns the job ID, or the
// rejection reason as an error.
func (c *Client) Submit(name, workload string, args any, gang int) (string, error) {
	return c.SubmitJob(SubmitSpec{Name: name, Workload: workload, Args: args, Gang: gang})
}

// SubmitJob sends one job for admission under sp's limits and retry
// policy; it returns the job ID, or the rejection reason as an error.
func (c *Client) SubmitJob(sp SubmitSpec) (string, error) {
	var raw json.RawMessage
	if sp.Args != nil {
		b, err := json.Marshal(sp.Args)
		if err != nil {
			return "", fmt.Errorf("service: encoding workload args: %w", err)
		}
		raw = b
	}
	msg := submitMsg{
		reqHead: c.head(), Name: sp.Name, Workload: sp.Workload,
		Args: raw, Gang: sp.Gang,
		DeadlineMS: sp.Deadline.Milliseconds(), MaxMemMB: sp.MaxMemMB,
	}
	var rep submitReply
	err := c.roundTrip(kSubmit, msg, &rep)
	if sp.RetryWindow > 0 && err != nil {
		h := fnv.New64a()
		h.Write([]byte(sp.Name))
		jitter := rand.New(rand.NewSource(int64(h.Sum64())))
		deadline := time.Now().Add(sp.RetryWindow)
		backoff := 50 * time.Millisecond
		var ce *connectError
		for err != nil && errors.As(err, &ce) && time.Now().Before(deadline) {
			time.Sleep(time.Duration(float64(backoff) * (0.5 + jitter.Float64())))
			if backoff < time.Second {
				backoff *= 2
			}
			err = c.roundTrip(kSubmit, msg, &rep)
		}
	}
	if err != nil {
		return "", err
	}
	return rep.ID, nil
}

// Status fetches one job's current view.
func (c *Client) Status(id string) (JobInfo, error) {
	var rep JobInfo
	err := c.roundTrip(kStatus, statusMsg{reqHead: c.head(), ID: id}, &rep)
	return rep, err
}

// Cancel aborts one job. Cancelling a finished job is not an error.
func (c *Client) Cancel(id string) error {
	var rep okMsg
	return c.roundTrip(kCancel, cancelMsg{reqHead: c.head(), ID: id}, &rep)
}

// Jobs lists every job the gateway knows, in submit order.
func (c *Client) Jobs() ([]JobInfo, error) {
	var rep jobListMsg
	err := c.roundTrip(kJobs, jobsMsg{reqHead: c.head()}, &rep)
	return rep.Jobs, err
}

// Cluster describes the registered daemons and the admission queue.
func (c *Client) Cluster() ([]DaemonInfo, int, int, error) {
	v, err := c.ClusterInfo()
	return v.Daemons, v.Backlog, v.BacklogCap, err
}

// ClusterView is the full cluster snapshot: the daemon roster, the
// admission queue, and the gateway's incarnation state.
type ClusterView struct {
	Daemons    []DaemonInfo `json:"daemons"`
	Backlog    int          `json:"backlog"`
	BacklogCap int          `json:"backlog_cap"`
	// Epoch counts gateway incarnations against one state dir; it bumps
	// on every journal recovery.
	Epoch int64 `json:"epoch"`
	// Recovering is true inside the post-restart reconciliation window.
	Recovering bool `json:"recovering"`
}

// ClusterInfo fetches the full cluster snapshot.
func (c *Client) ClusterInfo() (ClusterView, error) {
	var rep clusterInfoMsg
	err := c.roundTrip(kCluster, clusterMsg{reqHead: c.head()}, &rep)
	return ClusterView{
		Daemons: rep.Daemons, Backlog: rep.Backlog, BacklogCap: rep.BacklogCap,
		Epoch: rep.Epoch, Recovering: rep.Recovering,
	}, err
}

// Logs streams one job's console output to sink. With follow it runs
// until the job reaches a terminal state, then returns that state and
// the job's error text; without, it returns the buffered backlog and
// whatever the state was at that moment. sink receives text chunks in
// arrival order (isErr distinguishes the CmiError stream).
func (c *Client) Logs(id string, follow bool, sink func(text string, isErr bool)) (state string, jobErr string, err error) {
	err = c.exchange(true, func(conn net.Conn) (answered bool, err error) {
		if err := wire.WriteJSON(conn, kLogs, logsMsg{reqHead: c.head(), ID: id, Follow: follow}); err != nil {
			return false, err
		}
		// A followed stream lasts as long as the job: no read deadline.
		conn.SetReadDeadline(time.Time{})
		for {
			k, payload, err := wire.ReadFrame(conn)
			if err != nil {
				if err == io.EOF {
					err = fmt.Errorf("service: log stream ended early")
				}
				return answered, err
			}
			answered = true
			switch k {
			case kLogChunk:
				var ch logChunk
				if err := wire.DecodeJSON(k, payload, &ch); err != nil {
					return true, err
				}
				if sink != nil {
					sink(ch.Text, ch.Err)
				}
			case kLogEnd:
				var end logEndMsg
				if err := wire.DecodeJSON(k, payload, &end); err != nil {
					return true, err
				}
				state, jobErr = end.State, end.Error
				return true, nil
			case kErr:
				var e wire.Error
				if err := wire.DecodeJSON(k, payload, &e); err != nil {
					return true, err
				}
				return true, e
			default:
				return true, fmt.Errorf("service: unexpected frame kind %d in log stream", k)
			}
		}
	})
	if err != nil {
		return "", "", err
	}
	return state, jobErr, nil
}

// WaitJob polls until the job reaches a terminal state or the timeout
// expires, returning the final view.
func (c *Client) WaitJob(id string, timeout time.Duration) (JobInfo, error) {
	deadline := time.Now().Add(timeout)
	for {
		in, err := c.Status(id)
		if err != nil {
			return in, err
		}
		if State(in.State).Terminal() {
			return in, nil
		}
		if time.Now().After(deadline) {
			return in, fmt.Errorf("service: job %s still %s after %v", id, in.State, timeout)
		}
		time.Sleep(20 * time.Millisecond)
	}
}
