// Package charm implements a Charm-flavoured runtime for message-driven
// concurrent objects ("chares") over Converse, standing in for the
// retargeted Charm runtime the paper reports ("The Charm runtime system
// itself has been retargeted for Converse").
//
// It exercises the Converse facilities the paper says such a runtime
// needs:
//
//   - Chare creation messages are seeds handed to the dynamic load
//     balancing module (§3.3.1); they float until they take root.
//   - Asynchronous method invocations are generalized messages. A
//     freshly received invocation is not executed immediately: its
//     handler grabs the buffer and enqueues it with its priority, using
//     the message's flags word to mark the replay — the exact
//     "second handler" technique of §3.3 for avoiding infinite regress.
//   - Priorities (integer or bit-vector, §2.3) order local execution.
//   - Quiescence detection (needed to terminate message-driven
//     programs) is built from counters and probe waves.
package charm

import (
	"encoding/binary"
	"fmt"

	"converse/internal/core"
	"converse/internal/ldb"
	"converse/internal/queue"
)

// ChareID names a chare instance: the processor it took root on and a
// processor-local index.
type ChareID struct {
	PE    int
	Local uint32
}

// Encode packs the id into 8 bytes.
func (id ChareID) Encode(dst []byte) {
	binary.LittleEndian.PutUint32(dst[0:], uint32(id.PE))
	binary.LittleEndian.PutUint32(dst[4:], id.Local)
}

// DecodeChareID unpacks an id encoded by Encode.
func DecodeChareID(src []byte) ChareID {
	return ChareID{
		PE:    int(binary.LittleEndian.Uint32(src[0:])),
		Local: binary.LittleEndian.Uint32(src[4:]),
	}
}

// ChareIDSize is the wire size of an encoded ChareID.
const ChareIDSize = 8

// Ctor builds a chare instance when its seed takes root. self is the
// identity the runtime assigned; msg is the creation payload.
type Ctor func(rt *RT, self ChareID, msg []byte) any

// Entry is an asynchronously invocable method of a chare type.
type Entry func(rt *RT, obj any, msg []byte)

// chareType is one registered chare class.
type chareType struct {
	ctor   Ctor
	eps    []Entry
	unpack Unpacker // non-nil for migratable types (migrate.go)
}

// chareRec is one anchored chare instance.
type chareRec struct {
	obj any
	typ int
}

// RT is the per-processor chare runtime.
type RT struct {
	p   *core.Proc
	bal *ldb.Balancer

	types  []chareType
	chares map[uint32]*chareRec
	next   uint32

	hCreate, hInvoke int

	// migration machinery (migrate.go)
	hMigrate, hMoved int
	inMove           map[uint32]*moveState
	forwards         map[uint32]ChareID
	migrations       uint64

	// quasi-dynamic load balancing (rebalance.go): the count combiner
	countSum int

	// chare arrays (array.go), groups among them (group.go)
	arrayTypes       []arrayType
	arrays           map[ArrayID]*arrayRec
	arrayPending     map[ArrayID][][]byte // invocations that outran the creation broadcast
	nextArray        uint32
	hArrNew, hArrInv int

	// quiescence machinery (quiesce.go)
	sent, processed     uint64
	hProbe, hReply, hQD int
	qdActive            bool
	qdRound             uint32
	qdGot               int
	qdSent, qdProc      uint64
	qdPrevSent          uint64
	qdPrevProc          uint64
	qdPrevBalanced      bool
	onQuiescence        func(rt *RT)
}

// extKey locates the chare runtime in a Proc.
const extKey = "converse.lang.charm"

// Attach creates (or returns) the processor's chare runtime, using the
// given load balancing policy for creation seeds. Call it on every
// processor at the same point of startup.
func Attach(p *core.Proc, pol ldb.Policy) *RT {
	if rt, ok := p.Ext(extKey).(*RT); ok {
		return rt
	}
	rt := &RT{
		p:            p,
		chares:       make(map[uint32]*chareRec),
		inMove:       make(map[uint32]*moveState),
		forwards:     make(map[uint32]ChareID),
		arrays:       make(map[ArrayID]*arrayRec),
		arrayPending: make(map[ArrayID][][]byte),
	}
	rt.bal = ldb.New(p, pol)
	rt.hCreate = p.RegisterHandler(rt.onCreate)
	rt.hInvoke = p.RegisterHandler(rt.onInvoke)
	rt.hProbe = p.RegisterHandler(rt.onProbe)
	rt.hReply = p.RegisterHandler(rt.onReply)
	rt.hQD = p.RegisterHandler(rt.onQD)
	rt.hMigrate = p.RegisterHandler(rt.onMigrate)
	rt.hMoved = p.RegisterHandler(rt.onMoved)
	rt.hArrNew = p.RegisterHandler(rt.onArrNew)
	rt.hArrInv = p.RegisterHandler(rt.onArrInv)
	rt.countSum = p.RegisterCombiner(sumCounts)
	p.SetExt(extKey, rt)
	return rt
}

// Get returns the processor's chare runtime, panicking if Attach has
// not been called.
func Get(p *core.Proc) *RT {
	rt, ok := p.Ext(extKey).(*RT)
	if !ok {
		panic(fmt.Sprintf("charm: pe %d: runtime not attached", p.MyPe()))
	}
	return rt
}

// Proc returns the runtime's processor.
func (rt *RT) Proc() *core.Proc { return rt.p }

// Register adds a chare type with its constructor and entry methods,
// returning the type id. Registration must happen in the same order on
// every processor.
func (rt *RT) Register(ctor Ctor, eps ...Entry) int {
	rt.types = append(rt.types, chareType{ctor: ctor, eps: eps})
	return len(rt.types) - 1
}

// Create asynchronously creates a chare of the given type. The creation
// message becomes a seed for the load balancer: the system, not the
// caller, picks the processor where it takes root (§3.3.1). The caller
// gets no id back — Charm-style, the new chare introduces itself via
// messages if needed.
func (rt *RT) Create(typeID int, payload []byte) {
	if typeID < 0 || typeID >= len(rt.types) {
		panic(fmt.Sprintf("charm: pe %d: Create of unregistered type %d", rt.p.MyPe(), typeID))
	}
	rt.sent++
	seed := core.NewMsg(rt.hCreate, 4+len(payload))
	pl := core.Payload(seed)
	binary.LittleEndian.PutUint32(pl[0:], uint32(typeID))
	copy(pl[4:], payload)
	rt.bal.Deposit(seed)
}

// CreateHere creates a chare on this processor immediately, bypassing
// the load balancer, and returns its id. Used for "anchored" chares
// like a main chare.
func (rt *RT) CreateHere(typeID int, payload []byte) ChareID {
	if typeID < 0 || typeID >= len(rt.types) {
		panic(fmt.Sprintf("charm: pe %d: CreateHere of unregistered type %d", rt.p.MyPe(), typeID))
	}
	return rt.instantiate(typeID, payload)
}

// onCreate roots a creation seed: the chare is instantiated here.
func (rt *RT) onCreate(p *core.Proc, msg []byte) {
	rt.processed++
	pl := core.Payload(msg)
	typeID := int(binary.LittleEndian.Uint32(pl[0:]))
	rt.instantiate(typeID, pl[4:])
}

func (rt *RT) instantiate(typeID int, payload []byte) ChareID {
	rt.next++
	id := ChareID{PE: rt.p.MyPe(), Local: rt.next}
	if tr := rt.p.Tracer(); tr != nil {
		tr.Event(core.TraceEvent{Kind: core.EvObjectCreate, T: rt.p.TimerUs(), PE: rt.p.MyPe(), Aux: int(id.Local)})
	}
	obj := rt.types[typeID].ctor(rt, id, payload)
	rt.chares[id.Local] = &chareRec{obj: obj, typ: typeID}
	return id
}

// invocation payload layout: [chare u64][type u32][ep u32][prio i32][data...]
const invHeader = ChareIDSize + 12

// Send asynchronously invokes entry method ep of the chare identified
// by (typeID, to) with the given data at default priority. The caller
// continues immediately — this is the asynchronous method invocation of
// §2.1's concurrent-object category.
func (rt *RT) Send(typeID int, to ChareID, ep int, data []byte) {
	rt.SendPrio(typeID, to, ep, data, 0)
}

// SendPrio is Send with an integer priority: smaller values execute
// first on the target processor (§2.3).
func (rt *RT) SendPrio(typeID int, to ChareID, ep int, data []byte, prio int32) {
	rt.sent++
	msg := rt.buildInvoke(typeID, to, ep, data, prio)
	if to.PE == rt.p.MyPe() {
		core.SetFlags(msg, 1) // already "replayed": straight to the queue
		rt.enqueueInvoke(msg, prio)
		return
	}
	rt.p.SyncSendAndFree(to.PE, msg)
}

func (rt *RT) buildInvoke(typeID int, to ChareID, ep int, data []byte, prio int32) []byte {
	msg := core.NewMsg(rt.hInvoke, invHeader+len(data))
	pl := core.Payload(msg)
	to.Encode(pl[0:])
	binary.LittleEndian.PutUint32(pl[8:], uint32(typeID))
	binary.LittleEndian.PutUint32(pl[12:], uint32(ep))
	binary.LittleEndian.PutUint32(pl[16:], uint32(prio))
	copy(pl[invHeader:], data)
	return msg
}

func (rt *RT) enqueueInvoke(msg []byte, prio int32) {
	if prio == 0 {
		rt.p.Enqueue(msg)
	} else {
		rt.p.EnqueuePrio(msg, prio)
	}
}

// deferred is phase one of §3.3's two-phase invocation: a fresh
// network message (flags 0) is grabbed and enqueued under the priority
// it carries at payload offset prioAt, with the flags word marking it
// as replayed. It reports whether msg was deferred; the replay is
// phase two, which actually invokes the entry method.
func (rt *RT) deferred(p *core.Proc, msg []byte, prioAt int) bool {
	if core.FlagsOf(msg) != 0 {
		return false
	}
	prio := int32(binary.LittleEndian.Uint32(core.Payload(msg)[prioAt:]))
	buf := p.GrabBuffer()
	core.SetFlags(buf, 1)
	rt.enqueueInvoke(buf, prio)
	return true
}

// onInvoke handles a chare invocation message in two phases (deferred).
func (rt *RT) onInvoke(p *core.Proc, msg []byte) {
	if rt.deferred(p, msg, 16) {
		return
	}
	pl := core.Payload(msg)
	rt.processed++
	id := DecodeChareID(pl[0:])
	typeID := int(binary.LittleEndian.Uint32(pl[8:]))
	ep := int(binary.LittleEndian.Uint32(pl[12:]))
	rec, ok := rt.chares[id.Local]
	if !ok {
		// The chare may have migrated away: hold or forward.
		if rt.redirectInvoke(p, msg, id.Local) {
			return
		}
		panic(fmt.Sprintf("charm: pe %d: invocation for unknown chare %v", p.MyPe(), id))
	}
	ct := rt.types[typeID]
	if ep < 0 || ep >= len(ct.eps) {
		panic(fmt.Sprintf("charm: pe %d: type %d has no entry method %d", p.MyPe(), typeID, ep))
	}
	ct.eps[ep](rt, rec.obj, pl[invHeader:])
}

// SendBitVec is Send with a bit-vector priority (local destinations
// only are prioritized exactly; remote destinations carry the first
// word as an integer priority, which preserves the ordering for the
// common one-word case).
func (rt *RT) SendBitVec(typeID int, to ChareID, ep int, data []byte, prio queue.BitVec) {
	if to.PE == rt.p.MyPe() {
		rt.sent++
		msg := rt.buildInvoke(typeID, to, ep, data, 0)
		core.SetFlags(msg, 1)
		rt.p.EnqueueBitVec(msg, prio)
		return
	}
	var head int32
	if len(prio) > 0 {
		head = int32(prio[0] ^ 0x80000000)
	}
	rt.SendPrio(typeID, to, ep, data, head)
}

// Stats reports the runtime's application-message counters.
func (rt *RT) Stats() (sent, processed uint64) { return rt.sent, rt.processed }

// Chare returns the chare instance anchored on this processor under the
// given id, or nil. It exists for driver code that anchors chares with
// CreateHere and needs to inspect them between scheduler sessions;
// remote chares are reachable only through Send.
func (rt *RT) Chare(id ChareID) any {
	if id.PE != rt.p.MyPe() {
		return nil
	}
	rec, ok := rt.chares[id.Local]
	if !ok {
		return nil
	}
	return rec.obj
}

// LocalChares returns the ids of the chares of the given type anchored
// on this processor, in unspecified order.
func (rt *RT) LocalChares(typeID int) []ChareID {
	var out []ChareID
	for local, rec := range rt.chares {
		if rec.typ == typeID {
			out = append(out, ChareID{PE: rt.p.MyPe(), Local: local})
		}
	}
	return out
}
