package ccs

import (
	"fmt"
	"io"
	"time"

	"converse/internal/wire"
)

// dialTimeout bounds connecting to an endpoint.
const dialTimeout = 5 * time.Second

// Fetch requests a snapshot from the monitor endpoint at addr.
func Fetch(addr, token string) (*Snapshot, error) {
	c, err := wire.Dial(addr, dialTimeout)
	if err != nil {
		return nil, fmt.Errorf("ccs: dial %s: %w", addr, err)
	}
	defer c.Close()
	if err := wire.WriteJSON(c, kReq, reqMsg{Token: token, Op: OpSnapshot}); err != nil {
		return nil, fmt.Errorf("ccs: sending request: %w", err)
	}
	c.SetReadDeadline(time.Now().Add(ioTimeout))
	var snap Snapshot
	if err := wire.ReadJSON(c, kSnap, kErr, &snap); err != nil {
		return nil, fmt.Errorf("ccs: reading snapshot from %s: %w", addr, err)
	}
	return &snap, nil
}

// FetchProfile requests one pprof capture (ProfileCPU or ProfileHeap)
// from the endpoint at addr and writes the raw pprof bytes to w.
// seconds sizes a CPU capture window (0 = server default); rank routes
// through an aggregator to one rank's process (pass 0 for a per-process
// endpoint).
func FetchProfile(addr, token, profile string, seconds float64, rank int, w io.Writer) error {
	c, err := wire.Dial(addr, dialTimeout)
	if err != nil {
		return fmt.Errorf("ccs: dial %s: %w", addr, err)
	}
	defer c.Close()
	req := reqMsg{Token: token, Op: OpProfile, Profile: profile, Seconds: seconds, Rank: rank}
	if err := wire.WriteJSON(c, kReq, req); err != nil {
		return fmt.Errorf("ccs: sending request: %w", err)
	}
	// A CPU capture takes its whole window before the first chunk
	// arrives; size the read deadline for it.
	wait := ioTimeout + time.Duration(seconds*float64(time.Second))
	for {
		c.SetReadDeadline(time.Now().Add(wait))
		k, payload, err := wire.ReadFrame(c)
		if err != nil {
			return fmt.Errorf("ccs: reading profile from %s: %w", addr, err)
		}
		switch k {
		case kProfChunk:
			if _, err := w.Write(payload); err != nil {
				return err
			}
		case kProfEnd:
			return nil
		case kErr:
			var e wire.Error
			if err := wire.DecodeJSON(k, payload, &e); err != nil {
				return err
			}
			return e
		default:
			return fmt.Errorf("ccs: unexpected frame kind %d in profile stream", k)
		}
	}
}
