// Package wire is the checksummed frame format shared by the machine
// layers that speak a byte stream: the TCP machine layer (internal/mnet)
// and the live-introspection monitor endpoints (internal/ccs). Every
// frame is
//
//	[u32 LE length][u8 kind][u32 LE crc32c][payload]
//
// where length covers the kind byte, the checksum, and the payload, and
// the checksum (CRC32-Castagnoli) covers the kind byte and the payload.
// The kind byte's meaning belongs to the caller: mnet and ccs each keep
// their own enum over disjoint ranges so a monitor client that dials a
// mesh port (or vice versa) fails loudly instead of misparsing.
//
// The header has one encoder (putHeader) and one parser (ParseHeader):
// WriteFrame and ReadFrame use them, and so does mnet's data path,
// which reads each message straight into a pooled buffer instead of
// calling ReadFrame.
package wire

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
)

const (
	// HdrLen is the fixed frame header size: length, kind, checksum.
	HdrLen = 9
	// MaxFrame bounds the declared frame length, checked before any
	// allocation so a corrupt or hostile header cannot balloon memory.
	// 32 MiB comfortably exceeds any message the examples or benchmarks
	// send, and any pprof capture the monitor streams.
	MaxFrame = 32 << 20
	// smallFrame sizes ReadFrame's first allocation: frames up to it
	// (every control frame in practice) cost one allocation, header and
	// payload together.
	smallFrame = 256
)

// crcTab is the Castagnoli table (hardware-accelerated on amd64/arm64).
var crcTab = crc32.MakeTable(crc32.Castagnoli)

// kindSums holds the checksum state after each possible kind byte, the
// seed every frame checksum starts from. Precomputing it keeps the
// one-byte kind out of crc32.Update, whose argument escapes.
var kindSums = func() (t [256]uint32) {
	for k := range t {
		t[k] = crc32.Update(0, crcTab, []byte{byte(k)})
	}
	return t
}()

// ErrChecksum marks a frame whose checksum did not verify: the bytes
// were damaged in transit. The stream framing itself (the length
// prefix) is still intact, so the reader may skip the damaged frame and
// keep reading the stream.
var ErrChecksum = errors.New("wire: frame checksum mismatch")

// Header is one frame's decoded header.
type Header struct {
	Kind byte
	Len  int    // payload bytes, after the kind byte and the checksum
	Sum  uint32 // CRC32-Castagnoli over the kind byte and the payload
}

// Checksum returns the frame checksum of a kind-k frame whose payload
// is the concatenation of parts.
//
// Like every per-frame helper here, it must stay free of heap escapes:
// `go build -gcflags=-m` must report no `moved to heap` in it, because
// noallocinhot cannot see an escape through an interface or a function
// value (crc32.Update reaches its implementation through one).
//
//converse:hotpath
func Checksum(k byte, parts ...[]byte) uint32 {
	sum := kindSums[k]
	for _, p := range parts {
		sum = crc32.Update(sum, crcTab, p)
	}
	return sum
}

// putHeader encodes h into b[:HdrLen].
//
// Must stay free of heap escapes (see Checksum).
//
//converse:hotpath
func putHeader(b []byte, h Header) {
	_ = b[HdrLen-1]
	binary.LittleEndian.PutUint32(b, uint32(h.Len+HdrLen-4))
	b[4] = h.Kind
	binary.LittleEndian.PutUint32(b[5:], h.Sum)
}

// parseLen decodes and validates a frame's length prefix, b[:4],
// returning the bytes that follow it: the kind, the checksum and the
// payload. It runs before anything is sized from the prefix.
func parseLen(b []byte) (int, error) {
	n := binary.LittleEndian.Uint32(b)
	if n < HdrLen-4 {
		return 0, fmt.Errorf("wire: frame length %d too short for kind and checksum", n)
	}
	if n > MaxFrame {
		return 0, fmt.Errorf("wire: frame length %d exceeds limit %d", n, MaxFrame)
	}
	return int(n), nil
}

// ParseHeader decodes b[:HdrLen]. A declared length too short for the
// kind and checksum, or beyond MaxFrame, is an error, so the caller
// never sizes a buffer from a corrupt or hostile header.
//
// Must stay free of heap escapes (see Checksum).
//
//converse:hotpath
func ParseHeader(b []byte) (Header, error) {
	_ = b[HdrLen-1]
	n, err := parseLen(b)
	if err != nil {
		return Header{}, err
	}
	return Header{Kind: b[4], Len: n - (HdrLen - 4), Sum: binary.LittleEndian.Uint32(b[5:])}, nil
}

// WriteFrame writes one frame whose payload is the concatenation of
// parts, checksummed incrementally so data frames need no staging copy.
// On a *bufio.Writer (the mesh data path) the header is encoded in
// place in the writer's free buffer space and nothing is allocated; any
// other writer gets the whole frame in one Write from one staging
// buffer, so an unbuffered connection or file sees one write per frame.
// The caller serializes writers.
//
// Must stay free of heap escapes (see Checksum).
//
//converse:hotpath
func WriteFrame(w io.Writer, kind byte, parts ...[]byte) error {
	psz := 0
	for _, p := range parts {
		psz += len(p)
	}
	if psz+HdrLen-4 > MaxFrame {
		return fmt.Errorf("wire: frame payload %d bytes exceeds limit %d", psz, MaxFrame-(HdrLen-4))
	}
	h := Header{Kind: kind, Len: psz, Sum: Checksum(kind, parts...)}
	bw, ok := w.(*bufio.Writer)
	if !ok || bw.Size() < HdrLen {
		return writeStaged(w, h, parts)
	}
	if bw.Available() < HdrLen {
		if err := bw.Flush(); err != nil {
			return err
		}
	}
	hdr := bw.AvailableBuffer()[:HdrLen]
	putHeader(hdr, h)
	if _, err := bw.Write(hdr); err != nil {
		return err
	}
	for _, p := range parts {
		if len(p) == 0 {
			continue
		}
		if _, err := bw.Write(p); err != nil {
			return err
		}
	}
	return nil
}

// writeStaged writes a frame to an unbuffered writer in one Write.
func writeStaged(w io.Writer, h Header, parts [][]byte) error {
	frame := make([]byte, HdrLen, HdrLen+h.Len)
	putHeader(frame, h)
	for _, p := range parts {
		frame = append(frame, p...)
	}
	_, err := w.Write(frame)
	return err
}

// ReadFrame reads one frame, returning its kind and payload. The
// payload is freshly allocated and owned by the caller. ReadFrame reads
// exactly one frame's bytes, never ahead, so a connection can change
// hands between frames. Truncated or oversized input yields an error;
// damaged bytes yield an error wrapping ErrChecksum after the frame has
// been fully consumed, so the caller may keep reading the stream. Never
// a panic, and never an allocation beyond MaxFrame.
func ReadFrame(r io.Reader) (byte, []byte, error) {
	frame := make([]byte, 4, smallFrame)
	if _, err := io.ReadFull(r, frame); err != nil {
		return 0, nil, err
	}
	n, err := parseLen(frame)
	if err != nil {
		return 0, nil, err
	}
	if 4+n > cap(frame) {
		frame = append(make([]byte, 0, 4+n), frame...)
	}
	frame = frame[:4+n]
	if _, err := io.ReadFull(r, frame[4:]); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return 0, nil, fmt.Errorf("wire: truncated frame (want %d bytes): %w", n, err)
	}
	h, _ := ParseHeader(frame) // the length already checked out
	payload := frame[HdrLen:]
	if got := Checksum(h.Kind, payload); got != h.Sum {
		return h.Kind, nil, fmt.Errorf("%w: kind %d frame of %d bytes (crc %08x, want %08x)", ErrChecksum, h.Kind, n, got, h.Sum)
	}
	return h.Kind, payload, nil
}
