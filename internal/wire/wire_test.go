package wire

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"strings"
	"testing"
)

// TestWriteFrameBufferedMatchesStaged: the in-place header path for a
// *bufio.Writer and the one-write staging path for any other writer
// must put identical bytes on the wire, including across a buffer
// boundary, and ReadFrame must read both back.
func TestWriteFrameBufferedMatchesStaged(t *testing.T) {
	parts := [][]byte{[]byte("route-hdr"), bytes.Repeat([]byte("m"), 300)}
	var staged bytes.Buffer
	if err := WriteFrame(&staged, 7, parts...); err != nil {
		t.Fatal(err)
	}
	for _, size := range []int{16, 64, 4096} {
		var out bytes.Buffer
		bw := bufio.NewWriterSize(&out, size)
		bw.Write(bytes.Repeat([]byte{0xaa}, size-3)) // less room left than a header
		if err := WriteFrame(bw, 7, parts...); err != nil {
			t.Fatal(err)
		}
		if err := bw.Flush(); err != nil {
			t.Fatal(err)
		}
		got := out.Bytes()[size-3:]
		if !bytes.Equal(got, staged.Bytes()) {
			t.Fatalf("buffer %d: buffered frame differs from staged frame", size)
		}
		k, payload, err := ReadFrame(bytes.NewReader(got))
		if err != nil || k != 7 || !bytes.Equal(payload, bytes.Join(parts, nil)) {
			t.Fatalf("buffer %d: read back kind %d, %d bytes, err %v", size, k, len(payload), err)
		}
	}
}

func TestWriteFrameToBufferedWriterAllocationFree(t *testing.T) {
	bw := bufio.NewWriterSize(io.Discard, 1<<10)
	hdr := make([]byte, 16)
	msg := make([]byte, 240)
	if allocs := testing.AllocsPerRun(100, func() { WriteFrame(bw, 3, hdr, msg) }); allocs != 0 {
		t.Errorf("WriteFrame to a *bufio.Writer: %v allocs, want 0", allocs)
	}
}

func TestParseHeaderBounds(t *testing.T) {
	var b [HdrLen]byte
	for _, tc := range []struct {
		n    uint32
		want string
	}{
		{0, "too short"},
		{HdrLen - 5, "too short"},
		{MaxFrame + 1, "exceeds limit"},
	} {
		binary.LittleEndian.PutUint32(b[:], tc.n)
		if _, err := ParseHeader(b[:]); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("length %d: err=%v, want %q", tc.n, err, tc.want)
		}
	}
	putHeader(b[:], Header{Kind: 9, Len: 3, Sum: 0xdeadbeef})
	if h, err := ParseHeader(b[:]); err != nil || h != (Header{Kind: 9, Len: 3, Sum: 0xdeadbeef}) {
		t.Errorf("round trip: %+v, %v", h, err)
	}
}

func TestReadFrameLargeAndDamaged(t *testing.T) {
	big := bytes.Repeat([]byte("0123456789"), 100) // past the first allocation
	var buf bytes.Buffer
	WriteFrame(&buf, 4, big)
	WriteFrame(&buf, 5, []byte("next"))
	frame := buf.Bytes()
	frame[HdrLen+500] ^= 1
	r := bytes.NewReader(frame)
	if _, _, err := ReadFrame(r); !errors.Is(err, ErrChecksum) {
		t.Fatalf("damaged frame: err=%v, want ErrChecksum", err)
	}
	if k, p, err := ReadFrame(r); err != nil || k != 5 || string(p) != "next" {
		t.Fatalf("frame after damage: kind %d %q err %v", k, p, err)
	}
	if _, _, err := ReadFrame(r); err != io.EOF {
		t.Fatalf("at end: err=%v, want io.EOF", err)
	}
}
