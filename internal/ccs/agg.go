package ccs

import (
	"fmt"
	"net"
	"sort"
	"sync"
	"time"

	"converse/internal/wire"
)

// Aggregate is the launcher-side monitor mux (converserun -monitor): it
// serves one socket that re-exports a mesh-wide view assembled from
// every rank's per-process endpoint. Snapshots fan out to all known
// backends concurrently and merge; profile requests are proxied to the
// requested rank's endpoint frame-by-frame.
type Aggregate struct {
	*server
	// backends reports the current rank -> endpoint address map; the
	// launcher updates it as workers report in, so the aggregate is
	// valid from the first reported rank onward.
	backends func() map[int]string
}

// ServeAggregate opens the mesh-wide monitor socket on addr. backends
// must be safe for concurrent calls.
func ServeAggregate(addr, token string, backends func() map[int]string) (*Aggregate, error) {
	a := &Aggregate{backends: backends}
	a.server = &server{token: token, ops: a}
	if err := a.start(addr); err != nil {
		return nil, err
	}
	return a, nil
}

// snapshot fans out to every known backend and merges the per-rank
// views into one mesh-wide Snapshot sorted by PE. Unreachable ranks are
// listed in Missing rather than failing the whole view: a wedged or
// dying worker is exactly when you want the rest of the picture.
func (a *Aggregate) snapshot() *Snapshot {
	be := a.backends()
	ranks := make([]int, 0, len(be))
	for r := range be {
		ranks = append(ranks, r)
	}
	sort.Ints(ranks)

	out := &Snapshot{Schema: SchemaV1, UnixNanos: time.Now().UnixNano()}
	views := make([]*Snapshot, len(ranks))
	var wg sync.WaitGroup
	for i, r := range ranks {
		wg.Add(1)
		go func(i, r int) {
			defer wg.Done()
			snap, err := Fetch(be[r], a.token)
			if err == nil {
				views[i] = snap
			}
		}(i, r)
	}
	wg.Wait()
	for i, r := range ranks {
		v := views[i]
		if v == nil {
			out.Missing = append(out.Missing, r)
			continue
		}
		if v.NumPEs > out.NumPEs {
			out.NumPEs = v.NumPEs
		}
		if out.Job == "" {
			out.Job = v.Job
		}
		for _, pe := range v.PEs {
			pe.Rank = r
			out.PEs = append(out.PEs, pe)
		}
	}
	sort.Slice(out.PEs, func(i, j int) bool { return out.PEs[i].PE < out.PEs[j].PE })
	return out
}

// profile forwards a profile request to the requested rank's endpoint
// and relays the response frames verbatim.
func (a *Aggregate) profile(c net.Conn, req reqMsg) error {
	addr, ok := a.backends()[req.Rank]
	if !ok {
		return fmt.Errorf("ccs: no monitor endpoint known for rank %d", req.Rank)
	}
	up, err := wire.Dial(addr, dialTimeout)
	if err != nil {
		return fmt.Errorf("ccs: dialing rank %d monitor: %v", req.Rank, err)
	}
	defer up.Close()
	if err := wire.WriteJSON(up, kReq, req); err != nil {
		return fmt.Errorf("ccs: sending request to rank %d: %w", req.Rank, err)
	}
	wait := ioTimeout + time.Duration(req.Seconds*float64(time.Second))
	for {
		up.SetReadDeadline(time.Now().Add(wait))
		k, payload, err := wire.ReadFrame(up)
		if err != nil {
			return fmt.Errorf("ccs: relaying from rank %d: %v", req.Rank, err)
		}
		c.SetWriteDeadline(time.Now().Add(ioTimeout))
		if err := wire.WriteFrame(c, k, payload); err != nil || k == kProfEnd || k == kErr {
			return err
		}
	}
}
