//go:build msgcheck

package core

// The msgcheck build compiles in the dynamic half of the
// message-ownership tooling (the static half is cmd/converselint's
// msgownership analyzer). A global registry keyed by buffer base
// address tracks every message buffer the runtime has ever owned:
//
//   - Proc.Alloc stamps the buffer with a fresh generation and records
//     the allocation stack.
//   - recycle poisons the payload with 0xDD and records the free stack;
//     the next Alloc of that buffer verifies the poison canary, so a
//     write-after-free is caught even when it happens through a raw
//     index expression no checked accessor sees.
//   - An ownership-transfer send records the transfer stack before the
//     buffer is handed to the machine layer; the receiving processor
//     adopts it at network ingestion, starting a new generation.
//
// Every header accessor (SetHandler, HandlerOf, Payload, ...) calls
// mcCheck, so touching a freed or transferred buffer panics with three
// stacks: where the generation was allocated, where ownership was
// released, and where the violation happened.

import (
	"fmt"
	"runtime/debug"
	"sync"

	"converse/internal/machine"
)

// MsgCheckEnabled reports whether this binary was built with the
// msgcheck dynamic ownership checker.
const MsgCheckEnabled = true

// mcPoison fills freed payloads; reads of freed buffers return
// conspicuous garbage and the Alloc-time canary check detects writes.
const mcPoison = 0xDD

// mcState is a registered buffer's position in its ownership lifecycle.
type mcState uint8

const (
	mcLive  mcState = iota // owned by caller code or the dispatcher
	mcFreed                // recycled into the message pool
	mcSent                 // handed to the machine layer by a transfer
)

func (s mcState) String() string {
	switch s {
	case mcLive:
		return "live"
	case mcFreed:
		return "freed (recycled into the message pool)"
	case mcSent:
		return "transferred to the runtime (ownership-transfer send)"
	}
	return "in unknown state"
}

// mcRecord is one buffer's ownership history. allocStack is the stack
// that began the current generation; lossStack the one that ended it.
type mcRecord struct {
	gen        uint64
	state      mcState
	poisoned   bool
	allocStack []byte
	lossStack  []byte
}

// mcReg is the global buffer registry. Buffers cross processors (a
// transfer send hands the identical backing array to the destination
// PE), so the registry cannot be PE-local.
var mcReg = struct {
	sync.Mutex
	m map[*byte]*mcRecord
}{m: make(map[*byte]*mcRecord)}

// mcViolation builds the three-stack panic message.
func mcViolation(kind string, rec *mcRecord) string {
	alloc := rec.allocStack
	if alloc == nil {
		alloc = []byte("(buffer was not allocated through Proc.Alloc)\n")
	}
	return fmt.Sprintf(
		"core: msgcheck: %s: buffer is %s (generation %d)\n"+
			"buffer allocated at:\n%s\nownership released at:\n%s\nviolating access at:\n%s",
		kind, rec.state, rec.gen, alloc, rec.lossStack, debug.Stack())
}

// mcStamp begins a new generation for buf: Alloc and the oversized
// fallback call it on every buffer they return, before touching the
// header. If the buffer is coming back out of the pool, the poison
// canary is verified first.
func mcStamp(buf []byte) {
	if len(buf) == 0 {
		return
	}
	stack := debug.Stack()
	mcReg.Lock()
	defer mcReg.Unlock()
	rec := mcReg.m[&buf[0]]
	if rec == nil {
		rec = &mcRecord{}
		mcReg.m[&buf[0]] = rec
	}
	if rec.state == mcFreed && rec.poisoned {
		full := buf[:cap(buf)]
		for i := HeaderSize; i < len(full); i++ {
			if full[i] != mcPoison {
				panic(fmt.Sprintf(
					"core: msgcheck: pooled buffer modified after free (byte %d of generation %d)\n"+
						"buffer allocated at:\n%s\nbuffer freed at:\n%s\ndetected at next Alloc:\n%s",
					i, rec.gen, rec.allocStack, rec.lossStack, stack))
			}
		}
	}
	rec.gen++
	rec.state = mcLive
	rec.poisoned = false
	rec.allocStack = stack
	rec.lossStack = nil
}

// mcFree ends buf's generation at recycle time. When the pool retains
// the buffer the payload is poisoned and the record kept, so both
// use-after-free (checked accessors) and write-after-free (canary at
// next Alloc) are caught. When the pool drops the buffer the record is
// deleted: the memory returns to the garbage collector and a later
// unrelated allocation may reuse the address.
func mcFree(buf []byte, pooled bool) {
	if len(buf) == 0 {
		return
	}
	stack := debug.Stack()
	mcReg.Lock()
	defer mcReg.Unlock()
	rec := mcReg.m[&buf[0]]
	if rec != nil && rec.state != mcLive {
		panic(mcViolation("buffer released twice", rec))
	}
	if !pooled {
		delete(mcReg.m, &buf[0])
		return
	}
	if rec == nil {
		rec = &mcRecord{gen: 1}
		mcReg.m[&buf[0]] = rec
	}
	full := buf[:cap(buf)]
	for i := HeaderSize; i < len(full); i++ {
		full[i] = mcPoison
	}
	rec.state = mcFreed
	rec.poisoned = true
	rec.lossStack = stack
}

// mcSpill ends buf's generation as recycle spills it into the node's
// depot, and performs the spill. The buffer is marked freed, so a stale
// reference still panics on its next checked access, but it is not
// poisoned: the machine layer draws depot buffers too and legitimately
// writes them (a link reader fills one, then may hand it back after
// rejecting a damaged frame), so the write-after-free canary guards the
// PE-private tier only. The registry lock is held across the handoff:
// once the depot has the buffer another processor may draw it and
// stamp a new generation, which must not be overwritten by this one's
// end. A buffer the full depot turns away leaves every tier, and its
// record goes with it, as for a buffer the pool drops.
func mcSpill(d *machine.Depot, ci int, buf []byte) {
	if len(buf) == 0 {
		d.Put(ci, buf)
		return
	}
	stack := debug.Stack()
	mcReg.Lock()
	defer mcReg.Unlock()
	rec := mcReg.m[&buf[0]]
	if rec != nil && rec.state != mcLive {
		panic(mcViolation("buffer released twice", rec))
	}
	if !d.Put(ci, buf) {
		delete(mcReg.m, &buf[0])
		return
	}
	if rec == nil {
		rec = &mcRecord{gen: 1}
		mcReg.m[&buf[0]] = rec
	}
	rec.state = mcFreed
	rec.poisoned = false
	rec.lossStack = stack
}

// mcSend ends buf's generation just before the machine layer takes the
// backing array. No poisoning: the bytes are the message in flight. It
// must run before SendOwned — afterwards the destination processor may
// already have adopted the buffer.
func mcSend(buf []byte) {
	if len(buf) == 0 {
		return
	}
	stack := debug.Stack()
	mcReg.Lock()
	defer mcReg.Unlock()
	rec := mcReg.m[&buf[0]]
	if rec == nil {
		rec = &mcRecord{gen: 1}
		mcReg.m[&buf[0]] = rec
	}
	if rec.state != mcLive && rec.allocStack != nil {
		panic(mcViolation("buffer transferred twice", rec))
	}
	rec.state = mcSent
	rec.lossStack = stack
}

// mcAdopt starts a new generation for a buffer arriving from the
// machine layer: the sender retired it with mcSend (or it is a fresh
// network read), and from here on this processor owns it.
func mcAdopt(buf []byte) {
	if len(buf) == 0 {
		return
	}
	stack := debug.Stack()
	mcReg.Lock()
	defer mcReg.Unlock()
	rec := mcReg.m[&buf[0]]
	if rec == nil {
		rec = &mcRecord{}
		mcReg.m[&buf[0]] = rec
	}
	rec.gen++
	rec.state = mcLive
	rec.poisoned = false
	rec.allocStack = stack
	rec.lossStack = nil
}

// mcCheck panics if buf's ownership has been released. It is called by
// every header accessor; unregistered buffers (plain NewMsg output the
// runtime never recycled) pass freely.
func mcCheck(buf []byte) {
	if len(buf) == 0 {
		return
	}
	mcReg.Lock()
	rec := mcReg.m[&buf[0]]
	if rec == nil || rec.state == mcLive {
		mcReg.Unlock()
		return
	}
	mcReg.Unlock()
	panic(mcViolation("use of message buffer after ownership release", rec))
}

// MsgCheckGen returns buf's current generation and whether the buffer
// is live. It exists so tests (and debugging sessions) can capture a
// generation handle before a transfer and prove the buffer was reused.
func MsgCheckGen(buf []byte) (gen uint64, live bool) {
	if len(buf) == 0 {
		return 0, false
	}
	mcReg.Lock()
	defer mcReg.Unlock()
	rec := mcReg.m[&buf[0]]
	if rec == nil {
		return 0, false
	}
	return rec.gen, rec.state == mcLive
}

// MsgCheckAssertGen panics unless buf is live in exactly the given
// generation — the stale-handle check: a caller that stashed a buffer
// across a transfer sees either a retired state or a newer generation.
func MsgCheckAssertGen(buf []byte, gen uint64) {
	if len(buf) == 0 {
		panic("core: msgcheck: AssertGen of empty buffer")
	}
	mcReg.Lock()
	rec := mcReg.m[&buf[0]]
	mcReg.Unlock()
	if rec == nil {
		panic("core: msgcheck: AssertGen of untracked buffer")
	}
	if rec.state != mcLive {
		panic(mcViolation("stale generation handle", rec))
	}
	if rec.gen != gen {
		panic(fmt.Sprintf(
			"core: msgcheck: generation reuse: buffer is at generation %d, handle is for generation %d\n"+
				"current generation allocated at:\n%s\nstale handle checked at:\n%s",
			rec.gen, gen, rec.allocStack, debug.Stack()))
	}
}
