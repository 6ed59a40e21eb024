// Package msgmgr implements the Converse message manager (§3.2.1,
// appendix §4): a container — an indexed mailbox — for messages that are
// yet to be processed. Messages are inserted with one or two integer
// identification tags and retrieved (or probed) by tag, with wildcard
// matching; among equal matches retrieval is FIFO. Message managers are
// the storage half of blocking-receive languages: Mailbox binds one to a
// handler and the CMI retrieval calls, and every tagged messaging
// language (SM, NX, PVM, MPI, DP, tSM, MDT) keeps its out-of-order
// arrivals in its own Mailbox.
//
// Per the paper, a manager instance can be customized to one or two tags
// "placed at arbitrary positions within the messages": NewAtOffset
// builds a manager that extracts tags from the message bytes themselves,
// while plain Put/Put2 pass tags explicitly.
package msgmgr

import "encoding/binary"

// Wildcard matches any tag value in Get and Probe calls (CmmWildcard).
const Wildcard = -1

// M is a message manager (MSG_MNGR). It is processor-local, like all
// Converse components, and not safe for concurrent use.
type M struct {
	entries []entry
	// tag extraction offsets for NewAtOffset managers; -1 = explicit.
	off1, off2 int
}

type entry struct {
	msg  []byte
	tag1 int
	tag2 int
	two  bool
}

// New returns an empty message manager whose tags are passed explicitly
// to Put/Put2 (CmmNew).
func New() *M { return &M{off1: -1, off2: -1} }

// NewAtOffset returns a manager that reads a message's tag(s) from the
// message bytes: tag1 as a little-endian uint32 at byte offset off1 and,
// if off2 >= 0, tag2 at off2. Use PutAuto to insert.
func NewAtOffset(off1, off2 int) *M {
	if off1 < 0 {
		panic("msgmgr: NewAtOffset requires off1 >= 0")
	}
	return &M{off1: off1, off2: off2}
}

// Len reports the number of stored messages.
func (m *M) Len() int { return len(m.entries) }

// Put inserts msg under a single tag (CmmPut). The manager keeps a
// reference to msg; the caller must own the buffer (CmiGrabBuffer it if
// it came from the network).
func (m *M) Put(msg []byte, tag int) {
	m.entries = append(m.entries, entry{msg: msg, tag1: tag})
}

// Put2 inserts msg under two tags (CmmPut2).
func (m *M) Put2(msg []byte, tag1, tag2 int) {
	m.entries = append(m.entries, entry{msg: msg, tag1: tag1, tag2: tag2, two: true})
}

// PutAuto inserts msg extracting its tag(s) at the offsets configured by
// NewAtOffset.
func (m *M) PutAuto(msg []byte) {
	if m.off1 < 0 {
		panic("msgmgr: PutAuto on a manager with explicit tags")
	}
	t1 := int(binary.LittleEndian.Uint32(msg[m.off1:]))
	if m.off2 >= 0 {
		t2 := int(binary.LittleEndian.Uint32(msg[m.off2:]))
		m.Put2(msg, t1, t2)
		return
	}
	m.Put(msg, t1)
}

// Probe reports whether a message matching tag (or Wildcard) is stored,
// returning its size and actual tag (CmmProbe; the C call returns the
// size or -1, with the actual tag through rettag).
func (m *M) Probe(tag int) (size, rettag int, ok bool) {
	for i := range m.entries {
		if m.match1(&m.entries[i], tag) {
			return len(m.entries[i].msg), m.entries[i].tag1, true
		}
	}
	return 0, 0, false
}

// Probe2 is Probe for two-tag messages; either tag may be Wildcard
// (CmmProbe2).
func (m *M) Probe2(tag1, tag2 int) (size, rettag1, rettag2 int, ok bool) {
	for i := range m.entries {
		e := &m.entries[i]
		if m.match2(e, tag1, tag2) {
			return len(e.msg), e.tag1, e.tag2, true
		}
	}
	return 0, 0, 0, false
}

// Get removes and returns the oldest message matching tag (or Wildcard),
// with its actual tag (CmmGetPtr; Go slices make the pointer form the
// natural primitive). ok is false if no match is stored.
func (m *M) Get(tag int) (msg []byte, rettag int, ok bool) {
	for i := range m.entries {
		if m.match1(&m.entries[i], tag) {
			e := m.remove(i)
			return e.msg, e.tag1, true
		}
	}
	return nil, 0, false
}

// Get2 removes and returns the oldest message matching both tags
// (CmmGetPtr2); either may be Wildcard.
func (m *M) Get2(tag1, tag2 int) (msg []byte, rettag1, rettag2 int, ok bool) {
	for i := range m.entries {
		if m.match2(&m.entries[i], tag1, tag2) {
			e := m.remove(i)
			return e.msg, e.tag1, e.tag2, true
		}
	}
	return nil, 0, 0, false
}

// GetInto copies at most len(dst) bytes of the oldest matching message
// into dst and removes it, returning the full message length and the
// actual tag (CmmGet). ok is false if no match is stored.
func (m *M) GetInto(dst []byte, tag int) (n, rettag int, ok bool) {
	msg, rettag, ok := m.Get(tag)
	if !ok {
		return 0, 0, false
	}
	copy(dst, msg)
	return len(msg), rettag, true
}

// match1 matches a single-tag query against an entry. A one-tag query
// matches both one- and two-tag entries on their first tag, mirroring
// the C interface where the manager is configured for one tag scheme.
func (m *M) match1(e *entry, tag int) bool {
	return tag == Wildcard || e.tag1 == tag
}

// match2 matches a two-tag query; only two-tag entries are candidates.
func (m *M) match2(e *entry, tag1, tag2 int) bool {
	if !e.two {
		return false
	}
	return (tag1 == Wildcard || e.tag1 == tag1) && (tag2 == Wildcard || e.tag2 == tag2)
}

// remove deletes entry i preserving order and returns it.
func (m *M) remove(i int) entry {
	e := m.entries[i]
	m.entries = append(m.entries[:i], m.entries[i+1:]...)
	return e
}
