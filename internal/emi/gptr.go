package emi

import (
	"encoding/binary"
	"fmt"

	"converse/internal/core"
)

// GlobalPtr is an opaque handle naming a particular memory region on a
// particular processor (§3.1.3: "a global pointer is an opaque handler,
// which specifies a particular address on a particular processor").
// GlobalPtr values may be copied into messages (Encode/DecodeGlobalPtr)
// and used by any processor for Get/Put.
type GlobalPtr struct {
	PE int
	ID uint32
}

// GlobalPtrSize is the wire size of an encoded GlobalPtr.
const GlobalPtrSize = 8

// Encode serializes the pointer for embedding in a message payload.
func (g GlobalPtr) Encode(dst []byte) {
	binary.LittleEndian.PutUint32(dst[0:4], uint32(g.PE))
	binary.LittleEndian.PutUint32(dst[4:8], g.ID)
}

// DecodeGlobalPtr reads a pointer encoded by Encode.
func DecodeGlobalPtr(src []byte) GlobalPtr {
	return GlobalPtr{
		PE: int(binary.LittleEndian.Uint32(src[0:4])),
		ID: binary.LittleEndian.Uint32(src[4:8]),
	}
}

// Handle tracks the completion of an asynchronous Get or Put (the EMI
// CommHandle). Poll Done or block with State.Wait.
type Handle struct {
	done bool
	dst  []byte // Get destination, filled by the reply handler
}

// Done reports whether the operation has completed.
func (h *Handle) Done() bool { return h.done }

// State is the per-processor EMI runtime: global-pointer regions,
// pending one-sided operations, and the group-communication engine.
// Create it with Init on every processor at the same point of startup,
// so its handler indices agree machine-wide.
type State struct {
	p *core.Proc

	regions    map[uint32][]byte
	nextRegion uint32
	pending    map[uint32]*Handle
	nextReq    uint32

	hGetReq, hGetReply, hPutReq, hPutAck int

	// group communication (pgroup.go): the group id counter, AllGroup's
	// descriptor, the reduction combiner, its contribution scratch and
	// the encoded-tree scratch
	nextGrp uint32
	all     *Pgrp
	opComb  int
	op      [9]byte
	desc    []byte
}

// extKey locates the EMI state in a Proc.
const extKey = "converse.emi"

// Init creates (or returns) the processor's EMI state, registering its
// message handlers. Like all handler registration it must happen in the
// same order on every processor.
func Init(p *core.Proc) *State {
	if s, ok := p.Ext(extKey).(*State); ok {
		return s
	}
	if p.NumPes() > 256 {
		// Request ids pack the source PE into 8 bits of the wire word.
		panic("emi: machines larger than 256 PEs are not supported by the request encoding")
	}
	s := &State{
		p:       p,
		regions: make(map[uint32][]byte),
		pending: make(map[uint32]*Handle),
		nextGrp: allGroupID, // NewPgrp ids never collide with AllGroup's
	}
	s.hGetReq = p.RegisterHandler(s.onGetReq)
	s.hGetReply = p.RegisterHandler(s.onGetReply)
	s.hPutReq = p.RegisterHandler(s.onPutReq)
	s.hPutAck = p.RegisterHandler(s.onPutAck)
	s.opComb = p.RegisterCombiner(combineOp)
	p.SetExt(extKey, s)
	return s
}

// Get returns the processor's EMI state, panicking if Init was not
// called.
func Get(p *core.Proc) *State {
	s, ok := p.Ext(extKey).(*State)
	if !ok {
		panic(fmt.Sprintf("emi: pe %d: EMI not initialized (call emi.Init)", p.MyPe()))
	}
	return s
}

// Proc returns the state's processor.
func (s *State) Proc() *core.Proc { return s.p }

// Create registers mem as a globally addressable region and returns its
// global pointer (CmiGptrCreate). The memory stays owned by this
// processor; remote processors access it only through Get/Put.
func (s *State) Create(mem []byte) GlobalPtr {
	s.nextRegion++
	s.regions[s.nextRegion] = mem
	return GlobalPtr{PE: s.p.MyPe(), ID: s.nextRegion}
}

// Deref returns the local memory behind a global pointer (CmiGptrDref).
// It panics if g does not point at this processor.
func (s *State) Deref(g GlobalPtr) []byte {
	if g.PE != s.p.MyPe() {
		panic(fmt.Sprintf("emi: pe %d: Deref of remote global pointer (pe %d)", s.p.MyPe(), g.PE))
	}
	mem, ok := s.regions[g.ID]
	if !ok {
		panic(fmt.Sprintf("emi: pe %d: Deref of unknown region %d", s.p.MyPe(), g.ID))
	}
	return mem
}

// GetAt initiates copying len(dst) bytes from offset off of the region
// behind g into dst, returning a completion handle (CmiGet, with an
// explicit region offset). dst must stay valid until the handle is
// done.
func (s *State) GetAt(g GlobalPtr, off int, dst []byte) *Handle {
	if g.PE == s.p.MyPe() {
		mem := s.Deref(g)
		s.checkRange(g, mem, off, len(dst))
		copy(dst, mem[off:])
		return &Handle{done: true}
	}
	s.nextReq++
	h := &Handle{dst: dst}
	s.pending[s.nextReq] = h
	msg := core.NewMsg(s.hGetReq, 16)
	pl := core.Payload(msg)
	binary.LittleEndian.PutUint32(pl[0:], g.ID)
	binary.LittleEndian.PutUint32(pl[4:], uint32(off))
	binary.LittleEndian.PutUint32(pl[8:], uint32(len(dst)))
	binary.LittleEndian.PutUint32(pl[12:], s.nextReq<<8|uint32(s.p.MyPe()))
	s.p.SyncSendAndFree(g.PE, msg)
	return h
}

// GetPtr initiates copying the first len(dst) bytes of the region behind
// g into dst (CmiGet).
func (s *State) GetPtr(g GlobalPtr, dst []byte) *Handle { return s.GetAt(g, 0, dst) }

// SyncGet copies len(dst) bytes from the region behind g into dst,
// blocking — while continuing to serve incoming messages — until the
// data has arrived (CmiSyncGet).
func (s *State) SyncGet(g GlobalPtr, dst []byte) {
	s.Wait(s.GetPtr(g, dst))
}

// PutAt initiates copying src into the region behind g at offset off,
// returning a completion handle (CmiPut with an explicit offset). The
// data is captured at call time, so src may be reused immediately; the
// handle completes when the remote write is acknowledged.
func (s *State) PutAt(g GlobalPtr, off int, src []byte) *Handle {
	if g.PE == s.p.MyPe() {
		mem := s.Deref(g)
		s.checkRange(g, mem, off, len(src))
		copy(mem[off:], src)
		return &Handle{done: true}
	}
	s.nextReq++
	h := &Handle{}
	s.pending[s.nextReq] = h
	msg := core.NewMsg(s.hPutReq, 12+len(src))
	pl := core.Payload(msg)
	binary.LittleEndian.PutUint32(pl[0:], g.ID)
	binary.LittleEndian.PutUint32(pl[4:], uint32(off))
	binary.LittleEndian.PutUint32(pl[8:], s.nextReq<<8|uint32(s.p.MyPe()))
	copy(pl[12:], src)
	s.p.SyncSendAndFree(g.PE, msg)
	return h
}

// PutPtr initiates copying src to the start of the region behind g
// (CmiPut).
func (s *State) PutPtr(g GlobalPtr, src []byte) *Handle { return s.PutAt(g, 0, src) }

// SyncPut copies src into the region behind g, blocking — while serving
// incoming messages — until the remote processor acknowledges the write
// (CmiSyncPut; the paper's synchronous put).
func (s *State) SyncPut(g GlobalPtr, src []byte) {
	s.Wait(s.PutPtr(g, src))
}

// Wait blocks until h completes, serving incoming messages meanwhile, so
// that two processors Get-ing from each other cannot deadlock.
func (s *State) Wait(h *Handle) {
	s.p.ServeUntil(func() bool { return h.done })
}

func (s *State) checkRange(g GlobalPtr, mem []byte, off, n int) {
	if off < 0 || off+n > len(mem) {
		panic(fmt.Sprintf("emi: pe %d: access [%d:%d] outside %d-byte region %d@pe%d",
			s.p.MyPe(), off, off+n, len(mem), g.ID, g.PE))
	}
}

// --- handlers ---

func (s *State) onGetReq(p *core.Proc, msg []byte) {
	pl := core.Payload(msg)
	id := binary.LittleEndian.Uint32(pl[0:])
	off := int(binary.LittleEndian.Uint32(pl[4:]))
	n := int(binary.LittleEndian.Uint32(pl[8:]))
	req := binary.LittleEndian.Uint32(pl[12:])
	src := int(req & 0xff)
	g := GlobalPtr{PE: p.MyPe(), ID: id}
	mem := s.Deref(g)
	s.checkRange(g, mem, off, n)
	reply := core.NewMsg(s.hGetReply, 4+n)
	rp := core.Payload(reply)
	binary.LittleEndian.PutUint32(rp[0:], req)
	copy(rp[4:], mem[off:off+n])
	p.SyncSendAndFree(src, reply)
}

func (s *State) onGetReply(p *core.Proc, msg []byte) {
	pl := core.Payload(msg)
	req := binary.LittleEndian.Uint32(pl[0:]) >> 8
	h, ok := s.pending[req]
	if !ok {
		panic(fmt.Sprintf("emi: pe %d: get-reply for unknown request %d", p.MyPe(), req))
	}
	delete(s.pending, req)
	copy(h.dst, pl[4:])
	h.done = true
}

func (s *State) onPutReq(p *core.Proc, msg []byte) {
	pl := core.Payload(msg)
	id := binary.LittleEndian.Uint32(pl[0:])
	off := int(binary.LittleEndian.Uint32(pl[4:]))
	req := binary.LittleEndian.Uint32(pl[8:])
	src := int(req & 0xff)
	data := pl[12:]
	g := GlobalPtr{PE: p.MyPe(), ID: id}
	mem := s.Deref(g)
	s.checkRange(g, mem, off, len(data))
	copy(mem[off:], data)
	ack := core.NewMsg(s.hPutAck, 4)
	binary.LittleEndian.PutUint32(core.Payload(ack), req)
	p.SyncSendAndFree(src, ack)
}

func (s *State) onPutAck(p *core.Proc, msg []byte) {
	req := binary.LittleEndian.Uint32(core.Payload(msg)) >> 8
	h, ok := s.pending[req]
	if !ok {
		panic(fmt.Sprintf("emi: pe %d: put-ack for unknown request %d", p.MyPe(), req))
	}
	delete(s.pending, req)
	h.done = true
}
