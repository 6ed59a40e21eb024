package faultnet

import (
	"fmt"
	"sync"
	"time"

	"converse/internal/machine"
)

// Substrate is a structural mirror of internal/core's Substrate
// interface (faultnet cannot import core without a cycle; Go's
// structural typing makes the mirror free). Anything core can run on,
// Sub can wrap.
type Substrate interface {
	ID() int
	NumPEs() int
	Node() int
	NumNodes() int
	NodeSize(node int) int
	NodeOf(pe int) int
	Clock() float64
	Charge(dt float64)
	AdvanceTo(t float64)
	SendOwned(dst int, data []byte)
	TryRecv() (machine.Packet, bool)
	Recv() (machine.Packet, bool)
	Model() machine.CostModel
	Printf(format string, args ...any)
	Errorf(format string, args ...any)
	Scanf(format string, args ...any) (int, error)
	ReadLine() (string, error)
}

// blockStateNoter mirrors core's optional diagnostics interface so the
// wrapper stays transparent to DescribeBlocked.
type blockStateNoter interface {
	NoteThreadsSuspended(delta int)
	NoteBarrierWaiters(delta int)
}

// Sub applies a fault plan to a simulated PE's outbound packets. The
// simulated machine has no reliability layer beneath it, so injected
// faults are *felt* by the program — dropped packets stay dropped,
// corrupted headers blow up dispatch — which is exactly the point:
// under sim, faultnet tests how upper layers react to loss, not
// whether the wire can repair it (that is the TCP substrate's job).
// Loopback sends are never faulted, matching the TCP layer where they
// bypass the wire entirely.
type Sub struct {
	Substrate
	in *Injector

	mu     sync.Mutex
	held   map[int][]byte // reorder stash, per destination
	killed map[int]bool   // links scripted dead: packets blackhole
}

// WrapSim wraps a simulated PE substrate with fault injection; a nil
// injector returns the substrate unchanged.
func WrapSim(inner Substrate, in *Injector) Substrate {
	if in == nil {
		return inner
	}
	in.StartClock()
	return &Sub{Substrate: inner, in: in, held: map[int][]byte{}, killed: map[int]bool{}}
}

// SendOwned applies the plan to one outbound packet and forwards the
// survivors (and any held predecessor) to the wrapped substrate.
func (s *Sub) SendOwned(dst int, data []byte) {
	if dst == s.ID() {
		s.Substrate.SendOwned(dst, data)
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	f := s.in.Link(dst).Tx()
	if f.Crash {
		panic(fmt.Sprintf("faultnet: scripted crash of PE %d (plan %q)", s.ID(), s.in.plan.String()))
	}
	if f.Kill {
		s.killed[dst] = true
	}
	if s.killed[dst] {
		return
	}
	if f.Delay > 0 {
		// Virtual time: a delayed packet costs the sender latency.
		s.Charge(float64(f.Delay) / float64(time.Microsecond))
	}
	if f.Hold {
		if _, ok := s.held[dst]; !ok {
			s.held[dst] = data
			return
		}
	}
	if f.Drop {
		return
	}
	if f.Corrupt && len(data) > 0 {
		bit := f.CorruptBit % (len(data) * 8)
		data[bit/8] ^= 1 << (bit % 8)
	}
	s.Substrate.SendOwned(dst, data)
	if f.Dup {
		s.Substrate.SendOwned(dst, append([]byte(nil), data...))
	}
	if h, ok := s.held[dst]; ok {
		delete(s.held, dst)
		s.Substrate.SendOwned(dst, h)
	}
}

// NoteThreadsSuspended forwards to the wrapped substrate when it tracks
// block state.
func (s *Sub) NoteThreadsSuspended(delta int) {
	if n, ok := s.Substrate.(blockStateNoter); ok {
		n.NoteThreadsSuspended(delta)
	}
}

// NoteBarrierWaiters forwards to the wrapped substrate when it tracks
// block state.
func (s *Sub) NoteBarrierWaiters(delta int) {
	if n, ok := s.Substrate.(blockStateNoter); ok {
		n.NoteBarrierWaiters(delta)
	}
}
