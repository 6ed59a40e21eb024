package charm

import (
	"encoding/binary"
	"fmt"

	"converse/internal/core"
)

// Chare arrays: indexed collections of message-driven objects,
// addressable by integer index rather than by (processor, local id).
// They are the natural next abstraction over this runtime's machinery —
// the Charm lineage's arrays — and compose the pieces the paper
// describes: creation broadcasts fan out over the spanning tree, element
// addressing routes through a fixed index→processor map, and
// invocations use the same two-phase prioritized dispatch as chares.
//
// Element i of an n-element array lives on processor i mod P (a static
// blockcyclic map keeps remote addressing computable without a
// directory; migration of array elements would reintroduce the
// forwarding machinery of migrate.go and is left out).

// ArrayID names a chare array; identical on every processor.
type ArrayID uint32

// ArrayCtor builds one element of an array: idx is the element's index
// in [0, n); msg is the creation payload shared by all elements.
type ArrayCtor func(rt *RT, aid ArrayID, idx int, msg []byte) any

// ArrayEntry is an invocable method of an array element.
type ArrayEntry func(rt *RT, elem any, idx int, msg []byte)

type arrayType struct {
	ctor ArrayCtor
	eps  []ArrayEntry
}

type arrayRec struct {
	typ   int
	n     int
	elems map[int]any
}

// RegisterArray adds an array chare type; call it in the same order on
// every processor.
func (rt *RT) RegisterArray(ctor ArrayCtor, eps ...ArrayEntry) int {
	rt.arrayTypes = append(rt.arrayTypes, arrayType{ctor: ctor, eps: eps})
	return len(rt.arrayTypes) - 1
}

// ArrayOwner returns the processor owning element idx of an array on
// this machine.
func (rt *RT) ArrayOwner(idx int) int { return idx % rt.p.NumPes() }

// CreateArray creates an n-element array of the given type: a creation
// broadcast makes every processor construct its owned elements.
// Invocations sent after CreateArray on the same processor are safe:
// the creation broadcast rides the two-level spanning tree, so a direct
// point-to-point invocation may overtake it, and any invocation
// arriving for a not-yet-known array is parked and replayed the moment
// its creation message lands.
func (rt *RT) CreateArray(typeID, n int, payload []byte) ArrayID {
	if typeID < 0 || typeID >= len(rt.arrayTypes) {
		panic(fmt.Sprintf("charm: pe %d: CreateArray of unregistered type %d", rt.p.MyPe(), typeID))
	}
	if n <= 0 {
		panic(fmt.Sprintf("charm: pe %d: CreateArray with %d elements", rt.p.MyPe(), n))
	}
	rt.nextArray++
	aid := ArrayID(uint32(rt.p.MyPe())<<20 | rt.nextArray)
	msg := core.NewMsg(rt.hArrNew, 16+len(payload))
	pl := core.Payload(msg)
	binary.LittleEndian.PutUint32(pl[0:], uint32(aid))
	binary.LittleEndian.PutUint32(pl[4:], uint32(typeID))
	binary.LittleEndian.PutUint32(pl[8:], uint32(n))
	binary.LittleEndian.PutUint32(pl[12:], uint32(len(payload)))
	copy(pl[16:], payload)
	rt.sent += uint64(rt.p.NumPes() - 1)
	rt.p.SyncBroadcast(msg)
	rt.buildElems(aid, typeID, n, payload)
	return aid
}

// buildElems constructs this processor's elements of the array.
func (rt *RT) buildElems(aid ArrayID, typeID, n int, payload []byte) {
	if _, dup := rt.arrays[aid]; dup {
		panic(fmt.Sprintf("charm: pe %d: duplicate array id %d", rt.p.MyPe(), aid))
	}
	rec := &arrayRec{typ: typeID, n: n, elems: make(map[int]any)}
	rt.arrays[aid] = rec
	for idx := rt.p.MyPe(); idx < n; idx += rt.p.NumPes() {
		if tr := rt.p.Tracer(); tr != nil {
			tr.Event(core.TraceEvent{Kind: core.EvObjectCreate, T: rt.p.TimerUs(), PE: rt.p.MyPe(), Aux: idx})
		}
		rec.elems[idx] = rt.arrayTypes[typeID].ctor(rt, aid, idx, payload)
	}
	// Replay invocations that overtook the creation broadcast, in
	// arrival order.
	if pending := rt.arrayPending[aid]; pending != nil {
		delete(rt.arrayPending, aid)
		for _, m := range pending {
			rt.invokeArrElem(rt.p, m)
		}
	}
}

func (rt *RT) onArrNew(p *core.Proc, msg []byte) {
	rt.processed++
	pl := core.Payload(msg)
	aid := ArrayID(binary.LittleEndian.Uint32(pl[0:]))
	typeID := int(binary.LittleEndian.Uint32(pl[4:]))
	n := int(binary.LittleEndian.Uint32(pl[8:]))
	plen := int(binary.LittleEndian.Uint32(pl[12:]))
	rt.buildElems(aid, typeID, n, pl[16:16+plen])
}

// Element returns the local element idx of the array, or nil if the
// element lives elsewhere (or the array is unknown here).
func (rt *RT) Element(aid ArrayID, idx int) any {
	rec, ok := rt.arrays[aid]
	if !ok {
		return nil
	}
	return rec.elems[idx]
}

// ArrayLen returns the element count of a locally known array, or 0.
func (rt *RT) ArrayLen(aid ArrayID) int {
	rec, ok := rt.arrays[aid]
	if !ok {
		return 0
	}
	return rec.n
}

// SendElem asynchronously invokes entry ep of element idx with the
// given data at default priority.
func (rt *RT) SendElem(aid ArrayID, idx, ep int, data []byte) {
	rt.SendElemPrio(aid, idx, ep, data, 0)
}

// SendElemPrio is SendElem with an integer priority (§2.3 semantics,
// identical to chare invocations).
func (rt *RT) SendElemPrio(aid ArrayID, idx, ep int, data []byte, prio int32) {
	rt.sent++
	msg := core.NewMsg(rt.hArrInv, 16+len(data))
	pl := core.Payload(msg)
	binary.LittleEndian.PutUint32(pl[0:], uint32(aid))
	binary.LittleEndian.PutUint32(pl[4:], uint32(idx))
	binary.LittleEndian.PutUint32(pl[8:], uint32(ep))
	binary.LittleEndian.PutUint32(pl[12:], uint32(prio))
	copy(pl[16:], data)
	owner := rt.ArrayOwner(idx)
	if owner == rt.p.MyPe() {
		core.SetFlags(msg, 1)
		rt.enqueueInvoke(msg, prio)
		return
	}
	rt.p.SyncSendAndFree(owner, msg)
}

// BroadcastArray invokes entry ep on every element of the array.
func (rt *RT) BroadcastArray(aid ArrayID, ep int, data []byte) {
	rec, ok := rt.arrays[aid]
	if !ok {
		panic(fmt.Sprintf("charm: pe %d: BroadcastArray of unknown array %d", rt.p.MyPe(), aid))
	}
	for idx := 0; idx < rec.n; idx++ {
		rt.SendElem(aid, idx, ep, data)
	}
}

// onArrInv is the two-phase array invocation handler (deferred).
func (rt *RT) onArrInv(p *core.Proc, msg []byte) {
	if rt.deferred(p, msg, 12) {
		return
	}
	aid := ArrayID(binary.LittleEndian.Uint32(core.Payload(msg)[0:]))
	if _, ok := rt.arrays[aid]; !ok {
		// The invocation overtook its creation broadcast (creations ride
		// the spanning tree through relay processors; invocations go
		// direct). Park a copy; buildElems replays it when the creation
		// lands.
		rt.arrayPending[aid] = append(rt.arrayPending[aid], append([]byte(nil), msg...))
		return
	}
	rt.invokeArrElem(p, msg)
}

// invokeArrElem delivers a phase-two array invocation to its element.
func (rt *RT) invokeArrElem(p *core.Proc, msg []byte) {
	rt.processed++
	pl := core.Payload(msg)
	aid := ArrayID(binary.LittleEndian.Uint32(pl[0:]))
	idx := int(binary.LittleEndian.Uint32(pl[4:]))
	ep := int(binary.LittleEndian.Uint32(pl[8:]))
	rec := rt.arrays[aid]
	elem, ok := rec.elems[idx]
	if !ok {
		panic(fmt.Sprintf("charm: pe %d: array %d has no local element %d", p.MyPe(), aid, idx))
	}
	at := rt.arrayTypes[rec.typ]
	if ep < 0 || ep >= len(at.eps) {
		panic(fmt.Sprintf("charm: pe %d: array type %d has no entry %d", p.MyPe(), rec.typ, ep))
	}
	at.eps[ep](rt, elem, idx, pl[16:])
}
