// Package mnet is the TCP network machine layer: the port of the
// Converse machine interface where each node is an OS process and the
// machine is a full mesh of TCP connections, started and supervised by a
// charmrun-style launcher (Launch, used by cmd/converserun).
//
// The layering mirrors the paper's claim that the machine interface is
// the only machine-dependent part of the system: internal/core consumes
// the same narrow Substrate interface whether the machine is the
// in-process simulated multicomputer (internal/machine) or this one, and
// programs switch between them purely by configuration. Messages cross
// the wire in the exact byte format the core already produces — the
// 8-byte generalized-message header and PR 2's coalesced packs travel
// unchanged, so the sim-vs-TCP delta measures only the wire.
//
// Failure model: fail-fast by default — any peer death, handshake
// timeout, heartbeat loss, checksum error, or sequence gap kills the
// whole job loudly. Config.FailurePolicy = FailRetry turns on the
// reliability sub-layer: every frame carries a CRC32C checksum and data
// frames a per-link sequence number; senders keep unacked frames in a
// bounded retransmit ring and replay them on NACK, retransmit timeout,
// or session-resuming reconnection, so a transient fault becomes a
// counted stall instead of job death. When a link stays down past the
// recovery window the peer is declared dead through the peer-down
// notification hook (SetPeerDownHandler) instead.
package mnet

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"time"

	"converse/internal/machine"
	"converse/internal/wire"
)

// Wire framing, protocol version 4 (see internal/wire for the byte
// layout, shared with the monitor endpoints in internal/ccs): every
// frame is [u32 LE length][u8 kind][u32 LE crc32c][payload]. Control
// payloads are JSON (proto.go); data payloads are
// [u64 LE seq][u32 LE src PE][u32 LE dst PE][raw Converse message].
const (
	frameHdrLen = wire.HdrLen
	// dataHdrLen prefixes every data frame's payload: the per-link
	// sequence number the reliability layer orders and acks by, then the
	// PE route (global source and destination PE numbers).
	dataHdrLen = 16
	// maxFrame bounds the declared frame length, checked before any
	// allocation so a corrupt or hostile header cannot balloon memory.
	maxFrame = wire.MaxFrame
)

// errChecksum marks a frame whose checksum did not verify: the bytes
// were damaged in transit. The stream framing itself (the length
// prefix) is still intact, so under FailRetry the reader can skip the
// damaged frame and request a replay.
var errChecksum = wire.ErrChecksum

// kind tags a frame's role in the protocol.
type kind uint8

const (
	// worker <-> launcher (control connection)
	fHello   kind = iota + 1 // join a rendezvous round (helloMsg)
	fTable                   // node table for the round (tableMsg)
	fMeshOK                  // worker's mesh is fully connected (meshOKMsg)
	fGo                      // all meshes connected, run the driver (goMsg)
	fDone                    // worker's driver returned (doneMsg)
	fRelease                 // all drivers returned, tear down (releaseMsg)
	fConsole                 // CmiPrintf/CmiError output (consoleMsg)
	fFail                    // fatal local error, kill the job (failMsg)
	fPing                    // control-connection liveness

	// worker <-> worker (mesh connection)
	fPeerHello    // identify a mesh connection (peerHelloMsg)
	fData         // one machine packet ([u64 seq][u32 src PE][u32 dst PE][message])
	fHeartbeat    // link liveness while idle ([u64 cumulative ack])
	fAck          // cumulative receive ack ([u64 last in-order seq])
	fNack         // replay request ([u64 last in-order seq received])
	fPeerHelloAck // session-resume accept (peerHelloAckMsg)

	// worker -> launcher (control connection, appended in protocol v2
	// so earlier kinds keep their byte values)
	fMonitorAddr // worker's monitor endpoint address (monitorAddrMsg)
)

func (k kind) String() string {
	switch k {
	case fHello:
		return "hello"
	case fTable:
		return "table"
	case fMeshOK:
		return "meshok"
	case fGo:
		return "go"
	case fDone:
		return "done"
	case fRelease:
		return "release"
	case fConsole:
		return "console"
	case fFail:
		return "fail"
	case fPing:
		return "ping"
	case fPeerHello:
		return "peerhello"
	case fData:
		return "data"
	case fHeartbeat:
		return "heartbeat"
	case fAck:
		return "ack"
	case fNack:
		return "nack"
	case fPeerHelloAck:
		return "peerhelloack"
	case fMonitorAddr:
		return "monitoraddr"
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// writeFrameParts writes one frame whose payload is the concatenation
// of parts, computing the checksum incrementally so data frames need no
// staging copy. The caller provides any buffering and serialization.
//
//converse:hotpath
func writeFrameParts(w io.Writer, k kind, parts ...[]byte) error {
	return wire.WriteFrame(w, byte(k), parts...)
}

// writeFrame writes one frame with a single payload slice.
func writeFrame(w io.Writer, k kind, payload []byte) error {
	return writeFrameParts(w, k, payload)
}

// dataMsg is one inter-node message: its PE route and its bytes. The
// link queue and the retransmit ring carry it as is; the route becomes
// the data frame's header, so the message is never copied to prepend it.
type dataMsg struct {
	src, dst uint32 // global PE numbers
	data     []byte
}

// dataHdr is the scratch a data frame's header is encoded into, one per
// link writer: a local array would escape through the writer, costing
// an allocation per frame.
type dataHdr [dataHdrLen]byte

// writeDataFrame writes one sequenced, routed data frame: the header,
// encoded into the writer's scratch, and the message go out as two
// parts of one frame.
//
// Must stay free of heap escapes: `go build -gcflags=-m` must report no
// `moved to heap` here, because noallocinhot cannot see an escape
// through the io.Writer.
//
//converse:hotpath
func writeDataFrame(w io.Writer, hdr *dataHdr, seq uint64, m dataMsg) error {
	binary.LittleEndian.PutUint64(hdr[0:], seq)
	binary.LittleEndian.PutUint32(hdr[8:], m.src)
	binary.LittleEndian.PutUint32(hdr[12:], m.dst)
	return writeFrameParts(w, fData, hdr[:], m.data)
}

// encodeDataFrame renders a whole data frame to a fresh buffer. The
// fault injector corrupts the copy, leaving the retransmit ring's bytes
// pristine.
func encodeDataFrame(seq uint64, m dataMsg) []byte {
	var b bytes.Buffer
	b.Grow(frameHdrLen + dataHdrLen + len(m.data))
	writeDataFrame(&b, new(dataHdr), seq, m)
	return b.Bytes()
}

// decodeData splits a data payload into its sequence number and routed
// message, which aliases the payload. It rejects a payload too short for
// the header and a route that does not lead from a PE of node from to a
// PE of node to: a frame that names the wrong PEs is a protocol
// violation, not transit damage (the checksum has already passed).
//
// Must stay free of heap escapes (see writeDataFrame).
//
//converse:hotpath
func decodeData(payload []byte, topo *machine.Topology, from, to int) (uint64, dataMsg, error) {
	if len(payload) < dataHdrLen {
		return 0, dataMsg{}, fmt.Errorf("malformed data frame (%d bytes, shorter than the %d-byte sequence and route header)",
			len(payload), dataHdrLen)
	}
	seq := binary.LittleEndian.Uint64(payload[0:])
	m := dataMsg{
		src:  binary.LittleEndian.Uint32(payload[8:]),
		dst:  binary.LittleEndian.Uint32(payload[12:]),
		data: payload[dataHdrLen:],
	}
	npes := uint32(topo.NumPEs())
	if m.src >= npes || topo.NodeOf(int(m.src)) != from {
		return 0, dataMsg{}, fmt.Errorf("data frame %d routed from PE %d, which is not on sending node %d", seq, m.src, from)
	}
	if m.dst >= npes || topo.NodeOf(int(m.dst)) != to {
		return 0, dataMsg{}, fmt.Errorf("data frame %d routed to PE %d, which is not on receiving node %d", seq, m.dst, to)
	}
	return seq, m, nil
}

// frameError is a frame that passed its checksum but breaks the
// protocol (a bad route, a malformed header): the peer really sent it,
// so a replay would only repeat it.
type frameError struct{ err error }

func (e frameError) Error() string { return e.err.Error() }

// frameReader reads one mesh session's frames. A data frame, the hot
// path, costs no allocation: its headers land in the reader's scratch
// and its message is read straight into a buffer drawn from the node's
// depot, which the caller then owns (it is delivered to a PE, whose
// pool recycles it). The link's failure detector, the read deadline, is
// re-armed only before a read that may block.
type frameReader struct {
	r     *bufio.Reader
	conn  net.Conn // deadline target; nil reads without deadlines
	allow time.Duration
	depot *machine.Depot
	topo  *machine.Topology
	from  int // the sending node
	to    int // this node

	hdr [frameHdrLen + dataHdrLen]byte // header scratch
	// size is the last frame's wire size, header included.
	size int
}

// read reads len(p) bytes of the stream. When fewer are buffered the
// read may block on the connection, so the deadline is re-armed first:
// a live peer always sends within the allowance.
//
// Must stay free of heap escapes (see writeDataFrame).
//
//converse:hotpath
func (fr *frameReader) read(p []byte) error {
	if fr.conn != nil && fr.r.Buffered() < len(p) {
		fr.conn.SetReadDeadline(time.Now().Add(fr.allow))
	}
	_, err := io.ReadFull(fr.r, p)
	return err
}

// body reads the rest of a frame whose header has been read: a clean
// EOF there is a torn frame.
func (fr *frameReader) body(p []byte) error {
	err := fr.read(p)
	if err == io.EOF {
		err = io.ErrUnexpectedEOF
	}
	return err
}

// next reads one frame. A data frame comes back as its sequence number
// and routed message, whose bytes sit in a depot buffer the caller now
// owns. Any other frame comes back as its kind and, for the link's
// control frames (ack, heartbeat, nack), the cumulative sequence number
// it carries. A damaged frame (an error wrapping errChecksum) or a
// frameError has been consumed whole, leaving the stream at the next
// frame, and its buffer is back in the depot. Any other error is the
// connection's; the declared length is checked against maxFrame before
// any buffer is drawn.
//
// Must stay free of heap escapes (see writeDataFrame).
//
//converse:hotpath
func (fr *frameReader) next() (kind, uint64, dataMsg, error) {
	if err := fr.read(fr.hdr[:frameHdrLen]); err != nil {
		return 0, 0, dataMsg{}, err
	}
	h, err := wire.ParseHeader(fr.hdr[:frameHdrLen])
	if err != nil {
		return 0, 0, dataMsg{}, err
	}
	k := kind(h.Kind)
	fr.size = frameHdrLen + h.Len
	if k != fData || h.Len < dataHdrLen {
		v, err := fr.control(h)
		return k, v, dataMsg{}, err
	}
	dh := fr.hdr[frameHdrLen:]
	if err := fr.body(dh); err != nil {
		return k, 0, dataMsg{}, err
	}
	buf := depotBuf(fr.depot, h.Len-dataHdrLen)
	if err := fr.body(buf); err != nil {
		depotPut(fr.depot, buf)
		return k, 0, dataMsg{}, err
	}
	if wire.Checksum(h.Kind, dh, buf) != h.Sum {
		depotPut(fr.depot, buf)
		return k, 0, dataMsg{}, fmt.Errorf("%w: data frame of %d bytes", errChecksum, h.Len)
	}
	seq, m, err := decodeData(dh, fr.topo, fr.from, fr.to)
	if err != nil {
		depotPut(fr.depot, buf)
		return k, 0, dataMsg{}, frameError{err}
	}
	m.data = buf
	return k, seq, m, nil
}

// control reads and verifies the payload of a frame that is not a
// well-formed data frame, and decodes the 8-byte cumulative sequence
// number the link's control frames carry. Short payloads use the
// header scratch; anything longer (only damage or a misbehaving peer
// sends one) borrows a depot buffer for the length of the check.
func (fr *frameReader) control(h wire.Header) (uint64, error) {
	var p []byte
	if h.Len <= dataHdrLen {
		p = fr.hdr[frameHdrLen : frameHdrLen+h.Len]
	} else {
		p = depotBuf(fr.depot, h.Len)
		defer depotPut(fr.depot, p)
	}
	if err := fr.body(p); err != nil {
		return 0, err
	}
	k := kind(h.Kind)
	if wire.Checksum(h.Kind, p) != h.Sum {
		return 0, fmt.Errorf("%w: %v frame of %d bytes", errChecksum, k, h.Len)
	}
	switch k {
	case fData:
		_, _, err := decodeData(p, fr.topo, fr.from, fr.to)
		return 0, frameError{err}
	case fAck, fHeartbeat, fNack:
		if h.Len != 8 {
			return 0, frameError{fmt.Errorf("malformed %v frame (%d bytes, want 8)", k, h.Len)}
		}
		return binary.LittleEndian.Uint64(p), nil
	default:
		return 0, nil // the caller rejects kinds foreign to a mesh link
	}
}

// depotBuf draws an n-byte buffer from the depot, allocating at the
// full class capacity on a miss so the buffer recycles into the class
// it serves, and exactly n bytes past the largest class.
//
// Must stay free of heap escapes (see writeDataFrame).
//
//converse:hotpath
func depotBuf(d *machine.Depot, n int) []byte {
	ci := machine.AllocClass(n)
	if ci < 0 {
		return make([]byte, n)
	}
	if b := d.Get(ci); b != nil {
		return b[:n]
	}
	return make([]byte, machine.BufClassSizes[ci])[:n]
}

// depotPut returns a buffer nothing references any more to the depot.
//
// Must stay free of heap escapes (see writeDataFrame).
//
//converse:hotpath
func depotPut(d *machine.Depot, b []byte) {
	if ci := machine.RecycleClass(cap(b)); ci >= 0 {
		d.Put(ci, b[:cap(b)])
	}
}

// flipBit flips one bit of an encoded frame, skipping the 4-byte length
// prefix so the stream stays parseable and the checksum — not the
// framer — reports the damage.
func flipBit(frame []byte, bit int) {
	if len(frame) <= 4 {
		return
	}
	span := (len(frame) - 4) * 8
	bit = ((bit % span) + span) % span
	frame[4+bit/8] ^= 1 << (bit % 8)
}

// readFrame reads one control-plane frame (rendezvous, handshakes),
// returning its kind and a freshly allocated payload owned by the
// caller; mesh sessions read through frameReader instead. It reads
// exactly one frame, so a handshake connection can pass to a link
// afterwards. Truncated or oversized input yields an error; damaged
// bytes yield an error wrapping errChecksum after the frame has been
// fully consumed, so the caller may keep reading the stream. Never a
// panic, and never an allocation beyond maxFrame.
func readFrame(r io.Reader) (kind, []byte, error) {
	k, payload, err := wire.ReadFrame(r)
	if err != nil {
		return kind(k), nil, err
	}
	return kind(k), payload, nil
}
