// Package mpi implements an MPI-style messaging layer over the minimal
// machine interface, substantiating the paper's §3.1.3 claim: the MMI
// deliberately omits tag/source-indexed retrieval and delivery-order
// bookkeeping, "yet it is possible to provide an efficient MPI-style
// retrieval on top of this interface."
//
// The layer provides the MPI surface that claim is about: sends and
// receives addressed by (source, tag) with MPI_ANY_SOURCE/MPI_ANY_TAG
// wildcards, a Status result, ordered delivery between pairs (inherited
// from the substrate's non-overtaking links plus FIFO parking), probes,
// Sendrecv, and the core collectives — Barrier, Bcast, Reduce,
// Allreduce, Gather. All of them run on the core's two-level spanning
// tree (directly, or through the EMI's machine-wide group), so they
// follow the node topology. Like PVM and NX
// it is a single-process-module layer (§2.1), except that collectives
// serve the scheduler while they wait, as every core collective does.
package mpi

import (
	"converse/internal/core"
	"converse/internal/emi"
	"converse/internal/msgmgr"
)

// Wildcards for Recv/Probe.
const (
	AnySource = msgmgr.Wildcard
	AnyTag    = msgmgr.Wildcard
)

// Reduction operations for Reduce/Allreduce.
const (
	OpSum  = emi.OpSum
	OpMax  = emi.OpMax
	OpMin  = emi.OpMin
	OpProd = emi.OpProd
)

// Status describes a completed receive.
type Status struct {
	Source int
	Tag    int
	Count  int // full length of the received message in bytes
}

// MPI is the per-processor MPI-style runtime ("communicator world").
type MPI struct {
	p   *core.Proc
	s   *emi.State
	all *emi.Pgrp
	mb  *msgmgr.Mailbox
}

// extKey locates the MPI state in a Proc.
const extKey = "converse.lang.mpi"

// Attach creates (or returns) the processor's MPI-style layer; it
// initializes the EMI if needed.
func Attach(p *core.Proc) *MPI {
	if m, ok := p.Ext(extKey).(*MPI); ok {
		return m
	}
	m := &MPI{p: p, s: emi.Init(p)}
	m.all = m.s.AllGroup()
	m.mb = msgmgr.NewMailbox(p, "mpi", nil)
	p.SetExt(extKey, m)
	return m
}

// Rank returns the calling processor's rank (MPI_Comm_rank).
func (m *MPI) Rank() int { return m.p.MyPe() }

// Size returns the communicator size (MPI_Comm_size).
func (m *MPI) Size() int { return m.p.NumPes() }

// Send transmits data to rank dst under tag, which must lie in
// [0, 1<<30) (MPI_Send). The buffer may be reused on return.
func (m *MPI) Send(data []byte, dst, tag int) { m.mb.Send(dst, tag, data) }

// Recv blocks until a message matching (src, tag) — either may be a
// wildcard — arrives, copies at most len(buf) bytes into buf, and
// returns the status (MPI_Recv). Matching is FIFO among candidates, so
// pairwise delivery order is preserved, as MPI requires.
func (m *MPI) Recv(buf []byte, src, tag int) Status {
	data, rsrc, rtag := m.mb.Recv(src, tag)
	copy(buf, data)
	return Status{Source: rsrc, Tag: rtag, Count: len(data)}
}

// Probe blocks until a matching message is available and returns its
// status without receiving it (MPI_Probe).
func (m *MPI) Probe(src, tag int) Status {
	size, rsrc, rtag := m.mb.WaitProbe(src, tag)
	return Status{Source: rsrc, Tag: rtag, Count: size}
}

// Iprobe reports whether a matching message is available, without
// blocking (MPI_Iprobe).
func (m *MPI) Iprobe(src, tag int) (Status, bool) {
	size, rsrc, rtag, ok := m.mb.Probe(src, tag)
	return Status{Source: rsrc, Tag: rtag, Count: size}, ok
}

// Sendrecv performs a combined send and receive (MPI_Sendrecv), safe
// against the head-on exchange that deadlocks naive code.
func (m *MPI) Sendrecv(sendBuf []byte, dst, sendTag int, recvBuf []byte, src, recvTag int) Status {
	m.Send(sendBuf, dst, sendTag)
	return m.Recv(recvBuf, src, recvTag)
}

// --- collectives (the core's two-level spanning tree) ---

// Barrier blocks until every rank has entered it (MPI_Barrier): the
// core Barrier.
func (m *MPI) Barrier() { m.p.Barrier() }

// Bcast distributes buf from the root to every rank: the root's buf is
// sent, others' buf is filled (MPI_Bcast). All ranks pass buffers of
// the same length. The root sends one collective-tagged message through
// the core Broadcast; the others serve the scheduler — relaying the
// tree's envelopes — until their copy is parked, then receive it.
func (m *MPI) Bcast(buf []byte, root int) { copy(buf, m.mb.Bcast(root, buf)) }

// Reduce combines every rank's contribution with op, delivering the
// result at the requested root; other ranks get 0 (MPI_Reduce over
// int64). Every rank must call it. It is an Allreduce whose result only
// the root keeps.
func (m *MPI) Reduce(contrib int64, op emi.ReduceOp, root int) int64 {
	if r := m.Allreduce(contrib, op); m.Rank() == root {
		return r
	}
	return 0
}

// Allreduce combines every rank's contribution and returns the result
// on every rank (MPI_Allreduce over int64): one core AllReduce.
func (m *MPI) Allreduce(contrib int64, op emi.ReduceOp) int64 {
	return m.s.AllReduce(m.all, contrib, op)
}

// Gather collects every rank's fixed-size block at the root, ordered by
// rank (MPI_Gather): one core reduction of rank-tagged records up the
// two-level tree (Mailbox.Gather). Returns the concatenation at root,
// nil elsewhere.
func (m *MPI) Gather(block []byte, root int) []byte {
	var out []byte
	if m.Rank() == root {
		out = make([]byte, len(block)*m.Size())
	}
	m.mb.Gather(root, m.Rank(), block, func(rank int, data []byte) {
		copy(out[rank*len(block):], data)
	})
	return out
}
