package msgmgr

import (
	"encoding/binary"
	"fmt"

	"converse/internal/core"
)

// Mailbox is the tagged receive engine the messaging languages share
// (SM, NX, PVM, MPI, DP, tSM, MDT): a message manager bound to one
// registered handler on one processor, plus the CMI retrieval loops
// around it (§3.2: a language is its calls composed from the message
// manager and CMI retrieval). Every payload is [tag u32][src u32][data].
//
// Each language attaches its own Mailbox, hence its own handler, so
// modules written in different languages never see each other's tags.
// Like M, a Mailbox is processor-local.
type Mailbox struct {
	p      *core.Proc
	h      int
	mm     *M
	name   string
	onPark func(tag int)
	coll   int // collective tags reserved so far
	cat    int // the Gather combiner's index
}

// TagLimit bounds user tags: they lie in [0, TagLimit). Tags from
// TagLimit up to 1<<32 are reserved for a language's own collectives
// (CollTag), so user sends cannot reach them.
const TagLimit = 1 << 30

// header is the size of a mailbox payload's [tag u32][src u32] prefix.
const header = 8

// NewMailbox registers a mailbox's handler on p; every processor must
// create its mailboxes at the same point of startup. name prefixes the
// mailbox's panics. onPark, if non-nil, runs with a message's tag each
// time one is parked — where posted receives complete and blocked
// threads wake.
func NewMailbox(p *core.Proc, name string, onPark func(tag int)) *Mailbox {
	b := &Mailbox{p: p, mm: New(), name: name, onPark: onPark}
	b.h = p.RegisterHandler(func(p *core.Proc, msg []byte) {
		// Dispatched while the scheduler serves (a collective's wait, a
		// thread blocked in its receive): park it for a later receive.
		b.park(core.Payload(p.GrabBuffer()))
	})
	b.cat = p.RegisterCombiner(concat)
	return b
}

// Message builds a message for this mailbox's handler carrying data
// under tag from this processor; it panics unless tag is a user tag.
// The data is copied.
func (b *Mailbox) Message(tag int, data []byte) []byte {
	if tag < 0 || tag >= TagLimit {
		panic(fmt.Sprintf("%s: pe %d: tag %d outside the user range [0, 1<<30)", b.name, b.p.MyPe(), tag))
	}
	return b.message(tag, data)
}

func (b *Mailbox) message(tag int, data []byte) []byte {
	msg := core.NewMsg(b.h, header+len(data))
	pl := core.Payload(msg)
	binary.LittleEndian.PutUint32(pl[0:], uint32(tag))
	binary.LittleEndian.PutUint32(pl[4:], uint32(b.p.MyPe()))
	copy(pl[header:], data)
	return msg
}

// Send transmits data under a user tag to the same language's mailbox
// on processor dst. The data is copied; the caller may reuse it.
func (b *Mailbox) Send(dst, tag int, data []byte) {
	b.p.SyncSendAndFree(dst, b.Message(tag, data))
}

// CollTag reserves the next collective tag, above the user range. Every
// processor must reserve in the same order, as it calls the language's
// collectives in the same order.
func (b *Mailbox) CollTag() int {
	b.coll++
	return TagLimit + b.coll
}

// SendColl transmits data under a collective tag from CollTag.
func (b *Mailbox) SendColl(dst, ctag int, data []byte) {
	b.p.SyncSendAndFree(dst, b.message(ctag, data))
}

// Bcast distributes data from root to every processor under a fresh
// collective tag and returns this processor's copy (data itself on the
// root). The root sends one message through the core Broadcast; the
// others serve the scheduler — relaying the tree's envelopes — until
// their copy is parked. Collective.
func (b *Mailbox) Bcast(root int, data []byte) []byte {
	ctag := b.CollTag()
	if b.p.MyPe() == root {
		b.p.Broadcast(b.message(ctag, data), core.ExcludeSelf, core.Transfer)
		return data
	}
	b.p.ServeUntil(func() bool {
		_, _, _, ok := b.parked(Wildcard, ctag)
		return ok
	})
	data, _, _, _ = b.TryRecv(Wildcard, ctag)
	return data
}

// Gather collects one record from every processor on root: each passes
// its data under a key — its rank, or the offset its block belongs at —
// and root's place runs once per record, its own included, in no
// particular order; place is unused elsewhere. The records merge up the
// core's machine tree, rooted at root, in one ReduceTree: intra-node
// first, then along the binomial tree of node representatives, each
// representative forwarding its whole subtree's records in one message.
// A non-root returns once its subtree's records have gone up.
// Collective.
func (b *Mailbox) Gather(root, key int, data []byte, place func(key int, data []byte)) {
	const recHdr = 8
	rec := make([]byte, recHdr+len(data))
	binary.LittleEndian.PutUint32(rec[0:], uint32(key))
	binary.LittleEndian.PutUint32(rec[4:], uint32(len(data)))
	copy(rec[recHdr:], data)
	recs := b.p.ReduceTree(nil, root, b.cat, rec)
	for len(recs) > 0 {
		n := recHdr + int(binary.LittleEndian.Uint32(recs[4:]))
		place(int(binary.LittleEndian.Uint32(recs[0:])), recs[recHdr:n])
		recs = recs[n:]
	}
}

// concat is Gather's combiner: it appends one stream of [key u32][len
// u32][data] records to another. That is associative, and commutative
// up to record order — the merged stream holds every record exactly
// once, in an order that depends on arrival — so the root places records
// by key, never by position.
func concat(a, b []byte) []byte { return append(a, b...) }

// Recv blocks until a message matching (src, tag) — either may be
// Wildcard — is available and returns its data, actual source and
// actual tag. Matching is FIFO among candidates, so pairwise order is
// preserved. Recv is a single-process-module wait (§2.1): no handler
// runs meanwhile; this mailbox's other arrivals are parked and other
// handlers' messages stay set aside in the CMI.
func (b *Mailbox) Recv(src, tag int) (data []byte, rsrc, rtag int) {
	for {
		if data, rsrc, rtag, ok := b.TryRecv(src, tag); ok {
			return data, rsrc, rtag
		}
		pl := b.next()
		rtag, rsrc = tagSrc(pl)
		if (tag == Wildcard || rtag == tag) && (src == Wildcard || rsrc == src) {
			return pl[header:], rsrc, rtag
		}
		b.park(pl)
	}
}

// TryRecv takes the oldest parked message matching (src, tag), without
// looking at the network.
func (b *Mailbox) TryRecv(src, tag int) (data []byte, rsrc, rtag int, ok bool) {
	msg, rtag, rsrc, ok := b.mm.Get2(tag, src)
	if !ok {
		return nil, 0, 0, false
	}
	return msg[header:], rsrc, rtag, true
}

// Poll is the non-blocking receive: it parks every arrival already
// available, then takes the oldest match.
func (b *Mailbox) Poll(src, tag int) (data []byte, rsrc, rtag int, ok bool) {
	b.drain()
	return b.TryRecv(src, tag)
}

// Probe parks every arrival already available and reports the oldest
// match's data size, source and tag, without receiving it.
func (b *Mailbox) Probe(src, tag int) (size, rsrc, rtag int, ok bool) {
	b.drain()
	return b.parked(src, tag)
}

// WaitProbe is the blocking Probe: it waits, as Recv does, until a
// match is parked.
func (b *Mailbox) WaitProbe(src, tag int) (size, rsrc, rtag int) {
	for {
		if size, rsrc, rtag, ok := b.parked(src, tag); ok {
			return size, rsrc, rtag
		}
		b.park(b.next())
	}
}

// Wait parks this mailbox's arrivals, waiting as Recv does, until done
// reports true; onPark is what makes it true.
func (b *Mailbox) Wait(done func() bool) {
	for !done() {
		b.park(b.next())
	}
}

// parked reports the oldest parked match without removing it.
func (b *Mailbox) parked(src, tag int) (size, rsrc, rtag int, ok bool) {
	size, rtag, rsrc, ok = b.mm.Probe2(tag, src)
	if !ok {
		return 0, 0, 0, false
	}
	return size - header, rsrc, rtag, true
}

// next blocks for this mailbox's next arrival and returns its payload,
// owned by the caller.
func (b *Mailbox) next() []byte {
	b.p.GetSpecificMsg(b.h)
	return core.Payload(b.p.GrabBuffer())
}

// drain parks every arrival already available, without blocking. Other
// handlers' messages are enqueued for the scheduler to dispatch as it
// would have: a probe is already an impatient call, and this keeps the
// processor live.
func (b *Mailbox) drain() {
	for {
		msg, ok := b.p.GetMsg()
		if !ok {
			return
		}
		b.p.GrabBuffer()
		if core.HandlerOf(msg) == b.h {
			b.park(core.Payload(msg))
		} else {
			b.p.Enqueue(msg)
		}
	}
}

// park stores an owned payload under its tag and source.
func (b *Mailbox) park(pl []byte) {
	tag, src := tagSrc(pl)
	b.mm.Put2(pl, tag, src)
	if b.onPark != nil {
		b.onPark(tag)
	}
}

func tagSrc(pl []byte) (tag, src int) {
	return int(binary.LittleEndian.Uint32(pl[0:])), int(binary.LittleEndian.Uint32(pl[4:]))
}
