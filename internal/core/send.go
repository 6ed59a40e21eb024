package core

import "fmt"

// CommHandle tracks the progress of an asynchronous communication
// operation (CmiAsyncSend and friends). The machine's progress engine —
// which runs whenever the processor enters the scheduler or any receive
// call — completes pending operations; IsSent reports completion.
type CommHandle struct {
	dst      int // destination PE, or a bcast* sentinel
	msg      []byte
	owned    bool // msg belongs to the runtime (VectorSend): recycle on send
	sent     bool
	released bool
}

// Destination sentinels for broadcasts, usable as the dst of Send and
// AsyncSend-via-progress operations.
const (
	bcastOthers = -1 // all processors except the sender
	bcastAll    = -2 // all processors including the sender

	// BroadcastOthers, as the destination of Send, delivers to every
	// processor except the sender (CmiSyncBroadcast).
	BroadcastOthers = bcastOthers
	// BroadcastAll, as the destination of Send, delivers to every
	// processor including the sender (CmiSyncBroadcastAll).
	BroadcastAll = bcastAll
)

// SendOpt adjusts the behaviour of Send. Options combine with |.
type SendOpt uint8

const (
	// Transfer passes ownership of the message buffer to the runtime: the
	// caller must not touch msg after Send returns, and in exchange the
	// runtime avoids copying it and recycles the buffer into the message
	// pool once transmitted. Without Transfer the caller keeps the buffer
	// and may reuse it immediately.
	Transfer SendOpt = 1 << iota
	// ExcludeSelf makes a collective skip the calling processor:
	// Broadcast delivers to every PE but this one (CmiSyncBroadcast
	// rather than CmiSyncBroadcastAll). Point-to-point sends ignore it.
	ExcludeSelf
)

// Send transmits a generalized message to dst, the single entry point
// the classic CMI send family is defined in terms of:
//
//	Send(dst, msg)                      = CmiSyncSend
//	Send(dst, msg, Transfer)            = CmiSyncSendAndFree
//	Send(BroadcastOthers, msg)          = CmiSyncBroadcast
//	Send(BroadcastAll, msg)             = CmiSyncBroadcastAll
//	Send(BroadcastAll, msg, Transfer)   = CmiSyncBroadcastAllAndFree
//
// dst is a processor number or one of the Broadcast* sentinels. With
// coalescing on (always on the network machine), small non-immediate
// messages to another node are staged into a per-destination pack and
// flushed by the progress engine; ordering to any single destination
// is preserved regardless.
func (p *Proc) Send(dst int, msg []byte, opts ...SendOpt) {
	var o SendOpt
	for _, opt := range opts {
		o |= opt
	}
	transfer := o&Transfer != 0
	switch {
	case dst >= 0:
		p.send(dst, msg, transfer)
	case dst == bcastOthers:
		p.broadcast(msg, o|ExcludeSelf)
	case dst == bcastAll:
		p.broadcast(msg, o&^ExcludeSelf)
	default:
		panic(fmt.Sprintf("core: pe %d: Send to invalid destination %d", p.MyPe(), dst))
	}
}

// send is the point-to-point fast path behind every synchronous send:
// validate, charge and record, then either stage into the coalescing
// pack (which copies, so the original can be recycled right away under
// Transfer) or hand the packet to the machine layer.
//
//converse:hotpath
func (p *Proc) send(dst int, msg []byte, transfer bool) {
	p.checkSend(dst, msg)
	p.chargeSend()
	p.trace(EvSend, p.MyPe(), dst, len(msg), HandlerOf(msg), 0)
	p.noteSend(dst, len(msg))
	if p.coalescable(dst, msg) {
		p.stageMsg(dst, msg)
		if transfer {
			p.recycle(msg)
		}
		return
	}
	// Direct path: flush anything staged for dst first so per-pair
	// FIFO order holds across the coalesced/direct boundary.
	p.flushPeer(dst)
	if !transfer {
		// The caller keeps msg, so send a copy — drawn from the pool
		// rather than the heap, so the receiver's recycle feeds a
		// future send's Alloc and the steady state allocates nothing.
		buf := p.Alloc(len(msg) - HeaderSize)
		copy(buf, msg)
		msg = buf
	}
	// Retire before the handoff: once SendOwned returns, the
	// destination processor may already own the backing array.
	mcSend(msg)
	p.pe.SendOwned(dst, msg)
}

// Broadcast delivers msg to every processor through the one two-level
// spanning-tree implementation (bcast.go): binomial inter-node over
// node representatives, then intra-node fan-out. By default the calling
// processor is included (its copy goes through the normal loopback
// path); ExcludeSelf skips it, and Transfer passes buffer ownership as
// in Send. The Send(Broadcast*) sentinels and the CmiSyncBroadcast
// family are all defined in terms of this entry point.
func (p *Proc) Broadcast(msg []byte, opts ...SendOpt) {
	var o SendOpt
	for _, opt := range opts {
		o |= opt
	}
	p.broadcast(msg, o)
}

// broadcast is the single fan-out path behind every broadcast form.
// Validation runs up front so a bad header panics identically for every
// destination form, before any copy is staged or the buffer recycled —
// not only if some per-peer send happens to run (a 1-PE broadcast of
// others sends nothing). The broadcast involves only the sender: it is
// not a barrier.
func (p *Proc) broadcast(msg []byte, o SendOpt) {
	p.checkSend(p.MyPe(), msg)
	p.bcastTree(msg)
	if o&ExcludeSelf == 0 {
		p.send(p.MyPe(), msg, o&Transfer != 0)
	} else if o&Transfer != 0 {
		p.recycle(msg)
	}
}

// SyncSend sends a generalized message to the destination processor
// (CmiSyncSend). When it returns, the caller may reuse or change msg.
// It is Send(dst, msg).
func (p *Proc) SyncSend(dst int, msg []byte) { p.send(dst, msg, false) }

// SyncSendAndFree sends msg transferring ownership: the caller must not
// touch msg afterwards. This avoids the copy that SyncSend makes and
// recycles the buffer through the message pool (CmiSyncSendAndFree).
// It is Send(dst, msg, Transfer).
func (p *Proc) SyncSendAndFree(dst int, msg []byte) { p.send(dst, msg, true) }

// AsyncSend initiates an asynchronous send of msg to dst and returns a
// CommHandle for status enquiry (CmiAsyncSend). The message buffer must
// not be modified until IsSent reports true; it remains owned by the
// caller. The send is performed by the progress engine, which runs on
// every entry to the scheduler or a receive call.
func (p *Proc) AsyncSend(dst int, msg []byte) *CommHandle {
	p.checkSend(dst, msg)
	h := &CommHandle{dst: dst, msg: msg}
	p.async.PushBack(h)
	return h
}

// IsSent reports whether the asynchronous operation has completed
// (CmiAsyncMsgSent). It also gives the progress engine a chance to run,
// so polling IsSent in a loop makes progress.
func (p *Proc) IsSent(h *CommHandle) bool {
	if !h.sent {
		p.Progress()
	}
	return h.sent
}

// Release returns the communication handle to the CMI
// (CmiReleaseCommHandle). It does not free a caller-owned message
// buffer. Releasing an incomplete operation panics, as reusing the
// handle would race with the pending send.
func (p *Proc) Release(h *CommHandle) {
	if !h.sent {
		panic("core: Release of incomplete CommHandle")
	}
	h.released = true
}

// Progress runs the progress engine: it completes pending asynchronous
// operations and flushes staged coalescing packs. It is called
// implicitly by the scheduler and all receive paths; explicit calls are
// only needed in long computation loops that never touch the scheduler.
func (p *Proc) Progress() {
	for {
		h, ok := p.async.PopFront()
		if !ok {
			break
		}
		switch {
		case h.dst >= 0:
			// The caller keeps ownership of an async buffer, so the
			// send must copy (staging copies; the direct path copies
			// via pe.Send) — except for runtime-owned buffers
			// (VectorSend), which transfer and recycle.
			p.send(h.dst, h.msg, h.owned)
			if h.owned {
				h.msg = nil
			}
		case h.dst == bcastOthers:
			p.broadcast(h.msg, ExcludeSelf)
		case h.dst == bcastAll:
			p.broadcast(h.msg, 0)
		}
		h.sent = true
	}
	p.flushAll()
}

// SyncBroadcast sends msg to every processor except this one
// (CmiSyncBroadcast). It is Send(BroadcastOthers, msg).
func (p *Proc) SyncBroadcast(msg []byte) { p.Send(BroadcastOthers, msg) }

// SyncBroadcastAll sends msg to every processor including this one
// (CmiSyncBroadcastAll). The buffer is not freed. It is
// Send(BroadcastAll, msg).
func (p *Proc) SyncBroadcastAll(msg []byte) { p.Send(BroadcastAll, msg) }

// SyncBroadcastAllAndFree is SyncBroadcastAll transferring buffer
// ownership: msg must not be touched afterwards
// (CmiSyncBroadcastAllAndFree). It is Send(BroadcastAll, msg, Transfer).
func (p *Proc) SyncBroadcastAllAndFree(msg []byte) { p.Send(BroadcastAll, msg, Transfer) }

// AsyncBroadcast initiates an asynchronous broadcast to all other
// processors and returns a handle (CmiAsyncBroadcast). msg must not be
// modified until IsSent reports true.
func (p *Proc) AsyncBroadcast(msg []byte) *CommHandle {
	p.checkSend(0, msg)
	// A broadcast handle completes when the progress engine has sent
	// copies to every peer.
	h := &CommHandle{dst: bcastOthers, msg: msg}
	p.async.PushBack(h)
	return h
}

// AsyncBroadcastAll is AsyncBroadcast including this processor.
func (p *Proc) AsyncBroadcastAll(msg []byte) *CommHandle {
	p.checkSend(0, msg)
	h := &CommHandle{dst: bcastAll, msg: msg}
	p.async.PushBack(h)
	return h
}

// VectorSend gathers the given pieces into one contiguous generalized
// message with the given handler and initiates an asynchronous send to
// dst (CmiVectorSend / the EMI gather-send). The pieces are logically
// concatenated in order; they must not be modified until the returned
// handle reports sent. The gathered buffer comes from and returns to
// the message pool.
func (p *Proc) VectorSend(dst int, handler int, pieces ...[]byte) *CommHandle {
	total := 0
	for _, piece := range pieces {
		total += len(piece)
	}
	msg := p.Alloc(total)
	SetHandler(msg, handler)
	off := HeaderSize
	for _, piece := range pieces {
		off += copy(msg[off:], piece)
	}
	h := p.AsyncSend(dst, msg)
	h.owned = true
	return h
}

// checkSend validates a message before transmission: it must be at
// least a header, carry a handler index some processor has registered,
// and go to a processor that exists.
//
//converse:hotpath
func (p *Proc) checkSend(dst int, msg []byte) {
	if len(msg) < HeaderSize {
		panic(fmt.Sprintf("core: pe %d: send of %d-byte message, smaller than the %d-byte header", p.MyPe(), len(msg), HeaderSize))
	}
	if h := HandlerOf(msg); h < 0 || h >= len(p.handlers) {
		panic(fmt.Sprintf("core: pe %d: send of message with handler index %d, but only %d handlers are registered (forgot RegisterHandler, or sent a corrupt header?)", p.MyPe(), h, len(p.handlers)))
	}
	if dst < 0 || dst >= p.NumPes() {
		panic(fmt.Sprintf("core: pe %d: send to invalid processor %d (machine has %d)", p.MyPe(), dst, p.NumPes()))
	}
}

// chargeSend bills the Converse-layer send overhead to the virtual
// clock.
func (p *Proc) chargeSend() {
	if p.costs != nil {
		p.pe.Charge(p.costs.CvsSendOverhead())
	}
}
