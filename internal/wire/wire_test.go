package wire

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"reflect"
	"runtime"
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

const (
	testReq byte = 200
	testErr byte = 201
)

type testMsg struct {
	V     int      `json:"v"`
	Token string   `json:"token,omitempty"`
	IDs   []string `json:"ids"`
}

func TestJSONRoundTrip(t *testing.T) {
	in := testMsg{V: 2, Token: "t", IDs: []string{"a", "b"}}
	var buf bytes.Buffer
	if err := WriteJSON(&buf, testReq, in); err != nil {
		t.Fatal(err)
	}
	// The frame is exactly the marshalled message under WriteFrame.
	var want bytes.Buffer
	WriteFrame(&want, testReq, []byte(`{"v":2,"token":"t","ids":["a","b"]}`))
	if !bytes.Equal(buf.Bytes(), want.Bytes()) {
		t.Fatalf("WriteJSON frame %q, want %q", buf.Bytes(), want.Bytes())
	}
	var out testMsg
	if err := ReadJSON(&buf, testReq, testErr, &out); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(in, out) {
		t.Fatalf("round trip: got %+v, want %+v", out, in)
	}
}

func TestReadJSONErrorReply(t *testing.T) {
	var buf bytes.Buffer
	WriteJSON(&buf, testErr, Error{Text: "svc: bad or missing token"})
	if got, want := buf.String()[HdrLen:], `{"error":"svc: bad or missing token"}`; got != want {
		t.Fatalf("error reply payload %s, want %s", got, want)
	}
	var out testMsg
	err := ReadJSON(&buf, testReq, testErr, &out)
	var remote Error
	if !errors.As(err, &remote) || err.Error() != "svc: bad or missing token" {
		t.Fatalf("error reply: err = %v, want an Error with the remote text", err)
	}
	buf.Reset()
	WriteFrame(&buf, testErr, []byte("not json"))
	if err := ReadJSON(&buf, testReq, testErr, &out); err == nil || !strings.Contains(err.Error(), "decoding kind 201 frame") {
		t.Fatalf("garbled error reply: err = %v", err)
	}
}

func TestReadJSONWrongKind(t *testing.T) {
	var buf bytes.Buffer
	WriteJSON(&buf, 7, testMsg{})
	var out testMsg
	err := ReadJSON(&buf, testReq, testErr, &out)
	if err == nil || !strings.Contains(err.Error(), "kind 7") || !strings.Contains(err.Error(), "want 200") {
		t.Fatalf("wrong kind: err = %v, want one naming kinds 7 and 200", err)
	}
}

// TestReadJSONOversizeBeforeAlloc: a header declaring more than
// MaxFrame is refused from its first four bytes, before any buffer is
// sized from it.
func TestReadJSONOversizeBeforeAlloc(t *testing.T) {
	var hdr [HdrLen]byte
	binary.LittleEndian.PutUint32(hdr[:], MaxFrame+1)
	var out testMsg
	var err error
	grew := allocated(func() { err = ReadJSON(bytes.NewReader(hdr[:]), testReq, testErr, &out) })
	if err == nil || !strings.Contains(err.Error(), "exceeds limit") {
		t.Fatalf("oversize frame: err = %v, want a limit error", err)
	}
	if grew > 1<<20 {
		t.Fatalf("oversize frame allocated %d bytes before rejecting", grew)
	}
}

// allocated reports the bytes fn allocated on the heap.
func allocated(fn func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// FuzzReadJSON: on any byte stream ReadJSON returns an error or a
// value, never panics, and never allocates beyond MaxFrame plus what
// decoding the bytes actually present costs; whatever it accepts,
// WriteJSON writes back as a frame ReadJSON reads to the same value.
func FuzzReadJSON(f *testing.F) {
	for _, msg := range []any{testMsg{V: 2, IDs: []string{"x"}}, map[string]any{"n": 1.5}, "s", nil} {
		var buf bytes.Buffer
		WriteJSON(&buf, testReq, msg)
		f.Add(buf.Bytes())
	}
	var buf bytes.Buffer
	WriteJSON(&buf, testErr, Error{Text: "remote"})
	f.Add(buf.Bytes())
	buf.Reset()
	WriteJSON(&buf, 9, 1)
	f.Add(buf.Bytes())
	f.Add([]byte{0xff, 0xff, 0xff, 0x7f, byte(testReq), 0, 0, 0, 0})
	f.Add([]byte{5, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		var v any
		var err error
		grew := allocated(func() { err = ReadJSON(bytes.NewReader(data), testReq, testErr, &v) })
		if limit := uint64(MaxFrame) + 64*uint64(len(data)) + 1<<16; grew > limit {
			t.Fatalf("%d-byte input allocated %d bytes (limit %d)", len(data), grew, limit)
		}
		if err != nil {
			return
		}
		var out bytes.Buffer
		if err := WriteJSON(&out, testReq, v); err != nil {
			t.Fatalf("re-encoding an accepted value: %v", err)
		}
		var back any
		if err := ReadJSON(&out, testReq, testErr, &back); err != nil {
			t.Fatalf("reading back a WriteJSON frame: %v", err)
		}
		if !reflect.DeepEqual(v, back) {
			t.Fatalf("round trip changed the value: %#v -> %#v", v, back)
		}
	})
}
