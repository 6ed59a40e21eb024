// Package pvmc implements a PVM-flavoured messaging layer over the
// Converse machine interface, standing in for the PVM prototype the
// paper lists among its initial implementations ("Prototype
// implementations of PVM, NXLib, and SM ... are complete").
//
// It reproduces the PVM programming surface that matters for
// interoperability: task ids, typed pack/unpack buffers, blocking and
// non-blocking receives addressed by (source, tag) with wildcards, probe,
// broadcast, and a barrier. Like PVM, it is a single-process-module
// layer (§2.1 "no concurrency"): a blocked receive buffers all other
// traffic. A threaded variant simply runs these calls from tSM threads.
package pvmc

import (
	"encoding/binary"
	"fmt"
	"math"

	"converse/internal/core"
	"converse/internal/msgmgr"
)

// Any is the wildcard for Recv/Probe source and tag (pvm's -1).
const Any = msgmgr.Wildcard

// PVM is the per-processor PVM-flavoured runtime.
type PVM struct {
	p  *core.Proc
	mb *msgmgr.Mailbox

	sendBuf *Buffer
	recvBuf *Buffer
}

// extKey locates the PVM state in a Proc.
const extKey = "converse.lang.pvmc"

// Attach creates (or returns) the processor's PVM layer.
func Attach(p *core.Proc) *PVM {
	if v, ok := p.Ext(extKey).(*PVM); ok {
		return v
	}
	v := &PVM{p: p, mb: msgmgr.NewMailbox(p, "pvmc", nil)}
	p.SetExt(extKey, v)
	return v
}

// Proc returns the layer's processor.
func (v *PVM) Proc() *core.Proc { return v.p }

// Mytid returns the calling task's id (pvm_mytid); tasks map 1:1 onto
// processors here.
func (v *PVM) Mytid() int { return v.p.MyPe() }

// NumTasks returns the number of tasks (pvm_gsize of the global group).
func (v *PVM) NumTasks() int { return v.p.NumPes() }

// InitSend clears the send buffer and makes it active (pvm_initsend).
func (v *PVM) InitSend() *Buffer {
	v.sendBuf = &Buffer{}
	return v.sendBuf
}

// SendBuf returns the active send buffer, creating one if needed.
func (v *PVM) SendBuf() *Buffer {
	if v.sendBuf == nil {
		return v.InitSend()
	}
	return v.sendBuf
}

// Send ships the active send buffer to task tid under tag, which must
// lie in [0, 1<<30) (pvm_send). The buffer remains intact and may be
// sent again.
func (v *PVM) Send(tid, tag int) { v.mb.Send(tid, tag, v.SendBuf().bytes) }

// Mcast ships the active send buffer to every listed task (pvm_mcast).
func (v *PVM) Mcast(tids []int, tag int) {
	for _, tid := range tids {
		v.Send(tid, tag)
	}
}

// Bcast ships the active send buffer to every other task (pvm_bcast on
// the global group).
func (v *PVM) Bcast(tag int) {
	for tid := 0; tid < v.p.NumPes(); tid++ {
		if tid != v.Mytid() {
			v.Send(tid, tag)
		}
	}
}

// Recv blocks until a message matching (src, tag) — either may be Any —
// arrives, makes it the active receive buffer, and returns (actual src,
// actual tag) (pvm_recv). While blocked, messages for other handlers
// are buffered by the CMI and PVM messages with other addresses are
// parked.
func (v *PVM) Recv(src, tag int) (rsrc, rtag int) {
	data, rsrc, rtag := v.mb.Recv(src, tag)
	v.recvBuf = &Buffer{bytes: data}
	return rsrc, rtag
}

// Nrecv is the non-blocking receive (pvm_nrecv): if a matching message
// is available it becomes the active receive buffer and ok is true.
// Messages for other handlers that it drains are enqueued for them.
func (v *PVM) Nrecv(src, tag int) (rsrc, rtag int, ok bool) {
	data, rsrc, rtag, ok := v.mb.Poll(src, tag)
	if ok {
		v.recvBuf = &Buffer{bytes: data}
	}
	return rsrc, rtag, ok
}

// Probe reports whether a matching message is available without
// receiving it (pvm_probe).
func (v *PVM) Probe(src, tag int) bool {
	_, _, _, ok := v.mb.Probe(src, tag)
	return ok
}

// RecvBuf returns the active receive buffer (set by Recv/Nrecv).
func (v *PVM) RecvBuf() *Buffer {
	if v.recvBuf == nil {
		panic(fmt.Sprintf("pvmc: pe %d: no active receive buffer", v.p.MyPe()))
	}
	return v.recvBuf
}

// Barrier synchronizes all tasks (pvm_barrier on the global group): the
// core Barrier, an AllReduce over the two-level spanning tree. It
// serves the scheduler while it waits (PVM messages that arrive are
// parked) and leaves the active send and receive buffers untouched.
func (v *PVM) Barrier() { v.p.Barrier() }

// Buffer is a typed pack/unpack buffer (pvm's pkint/upkint family).
// Packing appends; unpacking reads sequentially from the front.
type Buffer struct {
	bytes []byte
	rpos  int
}

// Len reports the packed size in bytes.
func (b *Buffer) Len() int { return len(b.bytes) }

// PackInt appends 64-bit integers (pvm_pkint).
func (b *Buffer) PackInt(vals ...int64) *Buffer {
	for _, v := range vals {
		b.bytes = binary.LittleEndian.AppendUint64(b.bytes, uint64(v))
	}
	return b
}

// PackFloat64 appends doubles (pvm_pkdouble).
func (b *Buffer) PackFloat64(vals ...float64) *Buffer {
	for _, v := range vals {
		b.bytes = binary.LittleEndian.AppendUint64(b.bytes, math.Float64bits(v))
	}
	return b
}

// PackString appends a length-prefixed string (pvm_pkstr).
func (b *Buffer) PackString(s string) *Buffer {
	b.bytes = binary.LittleEndian.AppendUint32(b.bytes, uint32(len(s)))
	b.bytes = append(b.bytes, s...)
	return b
}

// PackBytes appends a length-prefixed byte block (pvm_pkbyte).
func (b *Buffer) PackBytes(p []byte) *Buffer {
	b.bytes = binary.LittleEndian.AppendUint32(b.bytes, uint32(len(p)))
	b.bytes = append(b.bytes, p...)
	return b
}

// UnpackInt reads one 64-bit integer (pvm_upkint).
func (b *Buffer) UnpackInt() int64 {
	b.need(8)
	v := int64(binary.LittleEndian.Uint64(b.bytes[b.rpos:]))
	b.rpos += 8
	return v
}

// UnpackFloat64 reads one double (pvm_upkdouble).
func (b *Buffer) UnpackFloat64() float64 {
	b.need(8)
	v := math.Float64frombits(binary.LittleEndian.Uint64(b.bytes[b.rpos:]))
	b.rpos += 8
	return v
}

// UnpackString reads a length-prefixed string (pvm_upkstr).
func (b *Buffer) UnpackString() string {
	return string(b.UnpackBytes())
}

// UnpackBytes reads a length-prefixed byte block (pvm_upkbyte).
func (b *Buffer) UnpackBytes() []byte {
	b.need(4)
	n := int(binary.LittleEndian.Uint32(b.bytes[b.rpos:]))
	b.rpos += 4
	b.need(n)
	out := b.bytes[b.rpos : b.rpos+n]
	b.rpos += n
	return out
}

func (b *Buffer) need(n int) {
	if b.rpos+n > len(b.bytes) {
		panic(fmt.Sprintf("pvmc: unpack of %d bytes past end of %d-byte buffer (pos %d)", n, len(b.bytes), b.rpos))
	}
}
