package core

// Peer-down notification (the failure-notification API). Converse is
// fail-stop by default, but under the FailRetry policy the network
// machine layer keeps the job alive through transient link faults; a
// link that stays down past the recovery window turns into a *peer
// death declaration* instead of job death. The machine layer delivers
// that declaration here as a generalized message to a built-in handler
// (registered uniformly on every processor, like the spanning-tree
// broadcast forwarder), so the upper layers — the load balancer
// re-homing seeds, a language runtime draining an object — observe it
// in ordinary scheduler context with no locking concerns.

import (
	"encoding/binary"
)

// makePeerDownMsg encodes a peer-death declaration as a generalized
// message: [u32 LE pe][reason bytes].
func makePeerDownMsg(handler, pe int, reason string) []byte {
	msg := NewMsg(handler, 4+len(reason))
	pl := Payload(msg)
	binary.LittleEndian.PutUint32(pl[:4], uint32(pe))
	copy(pl[4:], reason)
	return msg
}

// onPeerDown is the built-in handler for peer-death declarations. The
// first declaration for a given peer marks it dead and runs the
// registered callbacks; repeats (possible if the machine layer loses
// several links to the same dying peer) are dropped.
func onPeerDown(p *Proc, msg []byte) {
	pl := Payload(msg)
	if len(pl) < 4 {
		return
	}
	pe := int(binary.LittleEndian.Uint32(pl[:4]))
	if p.deadPEs == nil {
		p.deadPEs = make(map[int]bool)
	}
	if p.deadPEs[pe] {
		return
	}
	p.deadPEs[pe] = true
	reason := string(pl[4:])
	for _, f := range p.peerDownFns {
		f(pe, reason)
	}
}

// NotifyPeerDown registers f to run on this processor, in scheduler
// context, when the machine layer declares a peer dead (FailRetry
// policy, recovery window exhausted). Multiple callbacks run in
// registration order; each dead peer is announced exactly once.
// Register before Run, like handlers.
func (p *Proc) NotifyPeerDown(f func(pe int, reason string)) {
	if f == nil {
		panic("core: NotifyPeerDown(nil)")
	}
	p.peerDownFns = append(p.peerDownFns, f)
}

// PeerAlive reports whether processor pe has not been declared dead.
// Peers are live until the machine layer says otherwise; under the
// simulated substrate or FailFast every peer is always live.
func (p *Proc) PeerAlive(pe int) bool { return !p.deadPEs[pe] }

// PeerDownMsg decodes a peer-death declaration message (for tests and
// diagnostic handlers that re-dispatch it).
func PeerDownMsg(msg []byte) (pe int, reason string, ok bool) {
	pl := Payload(msg)
	if len(pl) < 4 {
		return 0, "", false
	}
	return int(binary.LittleEndian.Uint32(pl[:4])), string(pl[4:]), true
}
