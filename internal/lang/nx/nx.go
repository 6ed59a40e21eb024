// Package nx implements an NX-flavoured messaging layer over the
// Converse machine interface, standing in for the NXLib prototype the
// paper lists among its initial implementations. NX was the native
// message-passing interface of the Intel iPSC/Paragon family; its
// signature calls are csend/crecv (synchronous, typed) and isend/irecv
// (asynchronous, completed via msgwait), plus infotype/infocount/
// infonode enquiries about the last received message.
//
// Like SM and PVM, NX is a single-process-module layer (§2.1): a
// blocked crecv buffers all other traffic. Message selection is by
// "type" (the NX tag), with -1 matching any type.
package nx

import (
	"encoding/binary"
	"fmt"

	"converse/internal/core"
	"converse/internal/msgmgr"
)

// AnyType matches any message type in crecv/irecv/iprobe.
const AnyType = msgmgr.Wildcard

// NX is the per-processor NX-flavoured runtime.
type NX struct {
	p  *core.Proc
	h  int
	mm *msgmgr.M

	// last-received message info (infotype/infocount/infonode)
	lastType, lastCount, lastNode int

	pending []*Recv
}

// Recv is a posted asynchronous receive (irecv), completed by Wait.
type Recv struct {
	typ  int
	buf  []byte
	n    int
	node int
	rtyp int
	done bool
}

// Done reports whether the receive has completed.
func (r *Recv) Done() bool { return r.done }

// Count returns the received byte count (valid once done).
func (r *Recv) Count() int { return r.n }

// Node returns the sender's processor (valid once done).
func (r *Recv) Node() int { return r.node }

// Type returns the received message type (valid once done).
func (r *Recv) Type() int { return r.rtyp }

// wire format of an NX message payload: [type u32][src u32][data...]
const nxHeader = 8

// extKey locates the NX state in a Proc.
const extKey = "converse.lang.nx"

// Attach creates (or returns) the processor's NX layer.
func Attach(p *core.Proc) *NX {
	if x, ok := p.Ext(extKey).(*NX); ok {
		return x
	}
	x := &NX{p: p, mm: msgmgr.New(), lastType: -1, lastNode: -1}
	x.h = p.RegisterHandler(func(p *core.Proc, msg []byte) {
		// Dispatched while the scheduler serves (Gsync, say): park the
		// message and let it complete a posted irecv.
		x.park(p.GrabBuffer())
		x.satisfyPending()
	})
	p.SetExt(extKey, x)
	return x
}

// Mynode returns the calling processor id (mynode()).
func (x *NX) Mynode() int { return x.p.MyPe() }

// Numnodes returns the machine size (numnodes()).
func (x *NX) Numnodes() int { return x.p.NumPes() }

// Csend synchronously sends data of the given type to node (csend).
// The buffer may be reused when it returns.
func (x *NX) Csend(typ int, data []byte, node int) {
	x.checkType(typ)
	x.p.SyncSendAndFree(node, x.message(typ, data))
}

// checkType validates a user message type.
func (x *NX) checkType(typ int) {
	if typ < 0 || typ >= typeLimit {
		panic(fmt.Sprintf("nx: pe %d: message type %d outside the user range [0, 1<<30)", x.p.MyPe(), typ))
	}
}

// Isend initiates an asynchronous send and returns its handle; poll or
// wait on it with the core's progress rules (isend/msgwait). The data
// is captured at call time.
func (x *NX) Isend(typ int, data []byte, node int) *core.CommHandle {
	x.checkType(typ)
	return x.p.AsyncSend(node, x.message(typ, data))
}

// Msgwait blocks until an asynchronous send completes (msgwait).
func (x *NX) Msgwait(h *core.CommHandle) {
	for !x.p.IsSent(h) {
	}
}

// Crecv blocks until a message of the given type (or AnyType) arrives
// and copies it into buf, returning the byte count (crecv). Messages of
// other types are buffered; messages for other handlers stay deferred
// in the CMI.
func (x *NX) Crecv(typ int, buf []byte) int {
	for {
		if msg, rtyp, ok := x.mm.Get(typ); ok {
			return x.complete(msg, rtyp, buf)
		}
		x.p.GetSpecificMsg(x.h)
		raw := x.p.GrabBuffer()
		pl := core.Payload(raw)
		mtyp := int(binary.LittleEndian.Uint32(pl[0:]))
		if typ == AnyType || mtyp == typ {
			return x.complete(pl, mtyp, buf)
		}
		x.mm.Put(pl, mtyp)
	}
}

// complete fills buf and the info fields from a matched raw payload.
func (x *NX) complete(pl []byte, typ int, buf []byte) int {
	src := int(binary.LittleEndian.Uint32(pl[4:]))
	n := copy(buf, pl[nxHeader:])
	x.lastType, x.lastCount, x.lastNode = typ, len(pl)-nxHeader, src
	return n
}

// Irecv posts an asynchronous receive for the given type into buf
// (irecv); complete it with MsgwaitRecv or poll Done via Probe-driven
// progress.
func (x *NX) Irecv(typ int, buf []byte) *Recv {
	r := &Recv{typ: typ, buf: buf}
	// Try to satisfy immediately from buffered traffic.
	x.drain()
	x.trySatisfy(r)
	if !r.done {
		x.pending = append(x.pending, r)
	}
	return r
}

// MsgwaitRecv blocks until the posted receive completes.
func (x *NX) MsgwaitRecv(r *Recv) {
	for !r.done {
		x.p.GetSpecificMsg(x.h)
		raw := x.p.GrabBuffer()
		pl := core.Payload(raw)
		mtyp := int(binary.LittleEndian.Uint32(pl[0:]))
		x.mm.Put(pl, mtyp)
		x.satisfyPending()
	}
	x.lastType, x.lastCount, x.lastNode = r.rtyp, r.n, r.node
}

// trySatisfy completes r from the message manager if a match is stored.
func (x *NX) trySatisfy(r *Recv) {
	msg, rtyp, ok := x.mm.Get(r.typ)
	if !ok {
		return
	}
	src := int(binary.LittleEndian.Uint32(msg[4:]))
	r.n = copy(r.buf, msg[nxHeader:])
	r.node, r.rtyp, r.done = src, rtyp, true
}

// satisfyPending completes as many posted receives as possible.
func (x *NX) satisfyPending() {
	kept := x.pending[:0]
	for _, r := range x.pending {
		x.trySatisfy(r)
		if !r.done {
			kept = append(kept, r)
		}
	}
	x.pending = kept
}

// Iprobe reports whether a message of the given type is available
// without blocking (iprobe).
func (x *NX) Iprobe(typ int) bool {
	x.drain()
	_, _, ok := x.mm.Probe(typ)
	return ok
}

// drain parks all currently available NX messages and feeds posted
// receives; non-NX traffic is enqueued for its handlers.
func (x *NX) drain() {
	for {
		msg, ok := x.p.GetMsg()
		if !ok {
			break
		}
		if core.HandlerOf(msg) == x.h {
			x.park(x.p.GrabBuffer())
			continue
		}
		x.p.GrabBuffer()
		x.p.Enqueue(msg)
	}
	x.satisfyPending()
}

func (x *NX) park(raw []byte) {
	pl := core.Payload(raw)
	x.mm.Put(pl, int(binary.LittleEndian.Uint32(pl[0:])))
}

// Infotype returns the type of the last completed receive (infotype).
func (x *NX) Infotype() int { return x.lastType }

// Infocount returns the byte count of the last completed receive
// (infocount).
func (x *NX) Infocount() int { return x.lastCount }

// Infonode returns the sending node of the last completed receive
// (infonode).
func (x *NX) Infonode() int { return x.lastNode }

// Gsync is the NX global synchronization (gsync): the core Barrier, an
// AllReduce over the two-level spanning tree. It serves the scheduler
// while it waits; NX messages that arrive are parked for a later crecv.
func (x *NX) Gsync() { x.p.Barrier() }

// typeLimit bounds user message types: they must lie in [0, typeLimit).
const typeLimit = 1 << 30

// message builds an NX message carrying data under typ from this node.
func (x *NX) message(typ int, data []byte) []byte {
	msg := core.NewMsg(x.h, nxHeader+len(data))
	pl := core.Payload(msg)
	binary.LittleEndian.PutUint32(pl[0:], uint32(typ))
	binary.LittleEndian.PutUint32(pl[4:], uint32(x.p.MyPe()))
	copy(pl[nxHeader:], data)
	return msg
}
