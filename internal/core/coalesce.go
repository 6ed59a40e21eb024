package core

import (
	"encoding/binary"
	"fmt"

	"converse/internal/machine"
)

// Send coalescing: the sender-side half of the communication fast path.
//
// Small messages bound for the same destination on another node within
// one scheduler iteration are packed into a single machine-level
// packet, so the per-packet costs (send overhead, wire latency, receive
// overhead; on TCP the link frame, its header and CRC, the reader's
// parse and the inbox wake) are paid once per pack instead of once per
// message; see netmodel.OneWayCoalesced for the cost model. The network
// machine always coalesces (NewMachineOn); on the simulated machine it
// is the Config.Coalesce ablation knob. Sends within a node are never
// staged: they keep the pointer handoff, which a pack would only slow
// down with two copies and a flush delay. Packs are flushed by the
// progress engine (Progress, hence every scheduler iteration), when a
// peer's pack fills its batch or byte window, when a driver returns,
// and always before this processor blocks waiting for the network — a
// staged message can never be the one a blocked receive is waiting
// for. A driver that waits outside Converse (a Go channel, a sleep)
// must call Progress first.
//
// Ordering: messages to one destination stay in send order inside a
// pack, and a direct (uncoalesced) send to a destination first flushes
// that destination's pack, so per-pair FIFO delivery is preserved
// exactly as without coalescing. Immediate messages are never staged.
//
// Pack wire format: a normal 8-byte Converse header whose handler index
// is the built-in packHandler, followed by one length-prefixed segment
// per message: u32 little-endian total length, then the message bytes
// (header included).

// CoalesceConfig switches sender-side message coalescing on the
// simulated machine. The zero value disables it, preserving
// one-packet-per-message behaviour. The network machine ignores it and
// always coalesces. The limits are the same on every machine.
type CoalesceConfig struct {
	// Enabled turns coalescing on.
	Enabled bool
}

// Coalescing limits: a message of at most coalesceMaxMsg bytes (header
// included) is staged rather than sent directly; a peer's pack is
// flushed once it holds coalesceMaxBatch messages; and a pack spans at
// most coalesceMaxBytes — one pool class, so pack buffers recycle
// perfectly — so a message that does not fit flushes the pack first.
// Every staged message fits in an empty pack.
const (
	coalesceMaxMsg   = 512
	coalesceMaxBatch = 32
	coalesceMaxBytes = 4096
)

// pack is the per-destination staging buffer.
type pack struct {
	buf   []byte // pool buffer of len coalesceMaxBytes; nil when nothing staged
	n     int    // bytes filled (including the pack header)
	count int    // messages staged
}

// coalescable reports whether msg to dst takes the staging path: small,
// not immediate, and bound for another node.
func (p *Proc) coalescable(dst int, msg []byte) bool {
	return p.co.Enabled && len(msg) <= coalesceMaxMsg && !IsImmediate(msg) &&
		(dst < p.nodeLo || dst >= p.nodeHi)
}

// stageMsg copies msg into dst's pack, flushing first when the pack is
// out of room and after when the batch window fills.
//
//converse:hotpath
func (p *Proc) stageMsg(dst int, msg []byte) {
	if p.stage == nil {
		p.stage = make([]pack, p.NumPes())
	}
	pk := &p.stage[dst]
	need := 4 + len(msg)
	if pk.buf != nil && pk.n+need > coalesceMaxBytes {
		p.flushPeer(dst)
	}
	if pk.buf == nil {
		pk.buf = p.Alloc(coalesceMaxBytes - HeaderSize)
		SetHandler(pk.buf, p.packHandler)
		pk.n = HeaderSize
	}
	binary.LittleEndian.PutUint32(pk.buf[pk.n:], uint32(len(msg)))
	copy(pk.buf[pk.n+4:], msg)
	pk.n += need
	pk.count++
	p.staged++
	if p.met != nil {
		p.met.CoalesceStaged()
	}
	if pk.count >= coalesceMaxBatch {
		p.flushPeer(dst)
	}
}

// flushPeer transmits dst's staged pack, if any, as one packet.
//
//converse:hotpath
func (p *Proc) flushPeer(dst int) {
	if p.stage == nil {
		return
	}
	pk := &p.stage[dst]
	if pk.buf == nil {
		return
	}
	buf, n, count := pk.buf, pk.n, pk.count
	pk.buf, pk.n, pk.count = nil, 0, 0
	p.staged -= count
	mcSend(buf)
	p.pe.SendOwned(dst, buf[:n])
	if p.met != nil {
		p.met.CoalesceFlush()
	}
}

// flushAll transmits every staged pack. It is called by Progress and
// before every blocking network wait.
func (p *Proc) flushAll() {
	if p.staged == 0 {
		return
	}
	for dst := range p.stage {
		p.flushPeer(dst)
	}
}

// --- inbound side: the network ingestion queue ---

// netMsg is one inbound Converse message after ingestion: packs have
// been split back into their constituent messages.
type netMsg struct {
	data []byte
	src  int
}

// pullNet returns the next inbound network message without blocking,
// ingesting machine packets until one yields a message.
func (p *Proc) pullNet() (netMsg, bool) {
	for {
		if m, ok := p.netq.PopFront(); ok {
			return m, true
		}
		pkt, ok := p.pe.TryRecv()
		if !ok {
			return netMsg{}, false
		}
		p.ingest(pkt)
	}
}

// ingest turns one machine-level packet into queued Converse messages,
// unpacking coalesced packs. Unpacked segments are copied into pool
// buffers so the buffer-ownership protocol (grab or recycle) works
// unchanged for coalesced and direct messages alike.
func (p *Proc) ingest(pkt machine.Packet) {
	data := pkt.Data
	// Adopt before the first header read: under msgcheck a transferred
	// buffer arrives retired by the sender's mcSend, and ownership
	// passes to this processor here.
	mcAdopt(data)
	if len(data) >= HeaderSize && HandlerOf(data) == p.packHandler {
		p.unpack(data, pkt.Src)
		return
	}
	p.netq.PushBack(netMsg{data: data, src: pkt.Src})
}

// packSeg returns the message segment starting at offset off of a pack
// and the offset of the following one. It validates the length prefix
// against the pack's bounds: truncated, corrupt, or oversized input
// yields an error — never a panic, an out-of-range access, or an
// allocation (the segment aliases the pack; FuzzUnpack exercises this).
// It is a plain function rather than a closure-based iterator so the
// unpack path stays allocation-free in the steady state.
//
//converse:hotpath
func packSeg(data []byte, off int) (seg []byte, next int, err error) {
	if off+4 > len(data) {
		return nil, 0, fmt.Errorf("truncated length prefix at offset %d of %d", off, len(data))
	}
	n := int(binary.LittleEndian.Uint32(data[off:]))
	off += 4
	if n < HeaderSize || n > len(data)-off {
		return nil, 0, fmt.Errorf("segment of %d bytes at offset %d overruns pack of %d", n, off, len(data))
	}
	return data[off : off+n : off+n], off + n, nil
}

// unpack splits a pack into its messages, charging the per-message
// unpack cost, and releases the pack buffer. A malformed pack is a
// runtime-integrity failure (the sender staged it, so it was well
// formed when it left): unpack fails the processor loudly.
//
// The spent pack goes straight to the substrate's depot rather than
// this processor's pool: on a network substrate packs are read by link
// readers, which draw from the depot, and on either substrate this
// processor allocates pack-sized buffers only to stage its own sends.
// Pooling them here would park up to a class's worth of 4 KB buffers
// per receiving PE.
func (p *Proc) unpack(data []byte, src int) {
	for off := HeaderSize; off < len(data); {
		seg, next, err := packSeg(data, off)
		if err != nil {
			panic(fmt.Sprintf("core: pe %d: bad coalesced pack from %d: %v", p.MyPe(), src, err))
		}
		buf := p.Alloc(len(seg) - HeaderSize)
		copy(buf, seg)
		off = next
		p.chargeUnpack()
		if p.met != nil {
			p.met.CoalesceUnpacked()
		}
		p.netq.PushBack(netMsg{data: buf, src: src})
	}
	if ci := machine.RecycleClass(cap(data)); ci >= 0 {
		mcSpill(p.pool.depot, ci, data[:cap(data)])
		return
	}
	p.recycle(data)
}

// chargeUnpack bills the receive-side cost of splitting one message out
// of a pack.
func (p *Proc) chargeUnpack() {
	if p.unpackOv > 0 {
		p.pe.Charge(p.unpackOv)
	}
}

// onPack is the built-in handler for coalesced packs. Packs are
// normally split during ingestion and never dispatched; this handler
// exists so a pack that reaches dispatch anyway (for example one
// grabbed and re-enqueued by diagnostic code) still delivers its
// messages.
func onPack(p *Proc, msg []byte) {
	for off := HeaderSize; off < len(msg); {
		seg, next, err := packSeg(msg, off)
		if err != nil {
			panic(fmt.Sprintf("core: pe %d: bad coalesced pack in dispatch: %v", p.MyPe(), err))
		}
		buf := p.Alloc(len(seg) - HeaderSize)
		copy(buf, seg)
		off = next
		p.dispatch(buf)
	}
}
