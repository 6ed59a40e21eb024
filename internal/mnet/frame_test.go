package mnet

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"strings"
	"testing"

	"converse/internal/machine"
)

func TestFrameRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	payloads := [][]byte{nil, {}, []byte("x"), bytes.Repeat([]byte("abc"), 1000)}
	kinds := []kind{fHello, fData, fHeartbeat, fConsole}
	for i, p := range payloads {
		if err := writeFrame(&buf, kinds[i], p); err != nil {
			t.Fatalf("writeFrame: %v", err)
		}
	}
	for i, p := range payloads {
		k, got, err := readFrame(&buf)
		if err != nil {
			t.Fatalf("readFrame %d: %v", i, err)
		}
		if k != kinds[i] {
			t.Fatalf("frame %d: kind %v, want %v", i, k, kinds[i])
		}
		if !bytes.Equal(got, p) && !(len(got) == 0 && len(p) == 0) {
			t.Fatalf("frame %d: payload %q, want %q", i, got, p)
		}
	}
	if _, _, err := readFrame(&buf); err != io.EOF {
		t.Fatalf("read past end: %v, want io.EOF", err)
	}
}

func TestFrameRejectsOversized(t *testing.T) {
	// A header declaring a length beyond maxFrame must error before
	// allocating the claimed amount.
	var hdr [4]byte
	binary.LittleEndian.PutUint32(hdr[:], uint32(maxFrame+1))
	_, _, err := readFrame(bytes.NewReader(hdr[:]))
	if err == nil || !strings.Contains(err.Error(), "exceeds limit") {
		t.Fatalf("oversized frame: err=%v, want limit error", err)
	}
	if err := writeFrame(io.Discard, fData, make([]byte, maxFrame)); err == nil {
		t.Fatal("writeFrame accepted an oversized payload")
	}
}

func TestFrameRejectsZeroLength(t *testing.T) {
	_, _, err := readFrame(bytes.NewReader(make([]byte, 4)))
	if err == nil {
		t.Fatal("zero-length frame accepted")
	}
}

func TestFrameTruncated(t *testing.T) {
	var buf bytes.Buffer
	if err := writeFrame(&buf, fData, []byte("hello world")); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	for cut := 0; cut < len(full); cut++ {
		_, _, err := readFrame(bytes.NewReader(full[:cut]))
		if err == nil {
			t.Fatalf("truncation at %d/%d bytes accepted", cut, len(full))
		}
	}
}

// FuzzFrameDecode feeds the frame decoder arbitrary byte streams:
// truncated, corrupt, or oversized input must produce an error — never
// a panic, and never an allocation beyond the declared-length cap.
func FuzzFrameDecode(f *testing.F) {
	seed := func(k kind, payload []byte) {
		var buf bytes.Buffer
		writeFrame(&buf, k, payload)
		f.Add(buf.Bytes())
	}
	seed(fData, []byte("converse message bytes"))
	seed(fHeartbeat, nil)
	seed(fHello, []byte(`{"magic":"CONVERSE-MNET","version":2}`))
	// Checksummed-header cases: a valid sequenced data frame, the same
	// frame with one payload bit flipped (checksum must catch it), and a
	// frame whose declared length covers the kind byte but not the
	// 4-byte checksum.
	df := encodeDataFrame(7, dataMsg{src: 3, dst: 4, data: []byte("sequenced payload")})
	f.Add(df)
	flipped := append([]byte(nil), df...)
	flipBit(flipped, 99)
	f.Add(flipped)
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0, 0})
	f.Add([]byte{255, 255, 255, 255, 1})
	f.Add([]byte{1, 0, 0, 0, byte(fData)})
	f.Fuzz(func(t *testing.T, data []byte) {
		r := bytes.NewReader(data)
		for {
			k, payload, err := readFrame(r)
			if err != nil {
				return // errors are the expected outcome for garbage
			}
			if len(payload)+1 > maxFrame {
				t.Fatalf("decoded payload of %d bytes past the %d cap", len(payload), maxFrame)
			}
			_ = k
		}
	})
}

func TestFrameChecksumDetectsCorruption(t *testing.T) {
	var buf bytes.Buffer
	if err := writeFrame(&buf, fData, []byte("precious payload bytes")); err != nil {
		t.Fatal(err)
	}
	if err := writeFrame(&buf, fHeartbeat, []byte{1, 2, 3, 4, 5, 6, 7, 8}); err != nil {
		t.Fatal(err)
	}
	clean := buf.Bytes()
	// Flip every bit past the length prefix of the first frame in turn:
	// each damaged stream must yield a checksum error for frame one and
	// still decode frame two, because the framing survives the damage.
	frameLen := 4 + int(binary.LittleEndian.Uint32(clean[:4]))
	for bit := 0; bit < (frameLen-4)*8; bit++ {
		damaged := append([]byte(nil), clean...)
		flipBit(damaged[:frameLen], bit)
		r := bytes.NewReader(damaged)
		_, _, err := readFrame(r)
		if !errors.Is(err, errChecksum) {
			t.Fatalf("bit %d: err=%v, want errChecksum", bit, err)
		}
		k, pl, err := readFrame(r)
		if err != nil || k != fHeartbeat || len(pl) != 8 {
			t.Fatalf("bit %d: frame after damage: k=%v len=%d err=%v", bit, k, len(pl), err)
		}
	}
}

// dataTopo is the node map the data-payload tests decode against: four
// nodes of two PEs, the frame travelling from node 1 (PEs 2-3) to node 2
// (PEs 4-5).
var dataTopo = machine.UniformTopology(8, 2)

const dataFrom, dataTo = 1, 2

// dataPayload renders a data frame's payload (the frame minus its
// header), as readFrame would return it.
func dataPayload(seq uint64, m dataMsg) []byte {
	return encodeDataFrame(seq, m)[frameHdrLen:]
}

func TestDataFrameRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	m := dataMsg{src: 3, dst: 4, data: []byte("one converse message")}
	if err := writeDataFrame(&buf, new(dataHdr), 42, m); err != nil {
		t.Fatal(err)
	}
	// encodeDataFrame must render the identical bytes.
	if enc := encodeDataFrame(42, m); !bytes.Equal(enc, buf.Bytes()) {
		t.Fatal("encodeDataFrame and writeDataFrame disagree")
	}
	k, pl, err := readFrame(&buf)
	if err != nil || k != fData {
		t.Fatalf("k=%v err=%v", k, err)
	}
	seq, got, err := decodeData(pl, dataTopo, dataFrom, dataTo)
	if err != nil {
		t.Fatal(err)
	}
	if seq != 42 || got.src != 3 || got.dst != 4 || !bytes.Equal(got.data, m.data) {
		t.Fatalf("decoded seq=%d route %d->%d payload %q, want 42, 3->4, %q", seq, got.src, got.dst, got.data, m.data)
	}
}

func TestDecodeDataRejectsBadRoutes(t *testing.T) {
	for _, tc := range []struct {
		name    string
		payload []byte
		want    string
	}{
		{"short", make([]byte, dataHdrLen-1), "shorter than"},
		{"src off the sending node", dataPayload(1, dataMsg{src: 4, dst: 4}), "not on sending node 1"},
		{"src beyond the machine", dataPayload(1, dataMsg{src: 1 << 31, dst: 4}), "not on sending node 1"},
		{"dst off this node", dataPayload(1, dataMsg{src: 2, dst: 3}), "not on receiving node 2"},
		{"dst beyond the machine", dataPayload(1, dataMsg{src: 2, dst: 8}), "not on receiving node 2"},
	} {
		if _, _, err := decodeData(tc.payload, dataTopo, dataFrom, dataTo); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err=%v, want %q", tc.name, err, tc.want)
		}
	}
}

// FuzzDataPayload feeds the data-payload decoder arbitrary bytes as node
// 2 receiving from node 1: it must never panic, must accept only routes
// from a PE of node 1 to a PE of node 2, and anything it accepts must
// re-encode through encodeDataFrame to exactly the payload it came from.
func FuzzDataPayload(f *testing.F) {
	f.Add(dataPayload(7, dataMsg{src: 2, dst: 5, data: []byte("routed message")}))
	f.Add(dataPayload(1, dataMsg{src: 3, dst: 4}))
	f.Add(dataPayload(1, dataMsg{src: 0, dst: 4, data: []byte("wrong source node")}))
	f.Add(dataPayload(1, dataMsg{src: 2, dst: 0xffffffff}))
	f.Add([]byte{})
	f.Add(make([]byte, dataHdrLen-1))
	f.Fuzz(func(t *testing.T, payload []byte) {
		seq, m, err := decodeData(payload, dataTopo, dataFrom, dataTo)
		if err != nil {
			return
		}
		if dataTopo.NodeOf(int(m.src)) != dataFrom || dataTopo.NodeOf(int(m.dst)) != dataTo {
			t.Fatalf("accepted route %d->%d, not node %d to node %d", m.src, m.dst, dataFrom, dataTo)
		}
		if got := dataPayload(seq, m); !bytes.Equal(got, payload) {
			t.Fatalf("round trip: re-encoded payload %x, decoded from %x", got, payload)
		}
	})
}

// FuzzFrameReader drives the mesh link's buffer-supplying read path,
// as node 2 receiving from node 1, over arbitrary byte streams. It must
// never panic, never accept a bad route, and never hand out a message
// past maxFrame; and a frame it rejects (bad checksum, bad route,
// malformed header, torn stream) must give its depot buffer back. The
// depot starts with one buffer per class, so every draw within the
// classes hits it and a buffer not returned shows as a shortfall.
func FuzzFrameReader(f *testing.F) {
	valid := encodeDataFrame(7, dataMsg{src: 2, dst: 5, data: []byte("routed message")})
	f.Add(valid)
	flipped := append([]byte(nil), valid...)
	flipBit(flipped, 200)
	f.Add(flipped)
	f.Add(encodeDataFrame(8, dataMsg{src: 0, dst: 5, data: []byte("wrong source node")}))
	f.Add(encodeDataFrame(9, dataMsg{src: 2, dst: 5, data: bytes.Repeat([]byte("large "), 100)}))
	var ctl bytes.Buffer
	writeFrame(&ctl, fAck, []byte{1, 0, 0, 0, 0, 0, 0, 0})
	writeFrame(&ctl, fHeartbeat, []byte{2, 0, 0, 0, 0, 0, 0, 0})
	writeFrame(&ctl, fNack, []byte{3})
	f.Add(append(ctl.Bytes(), valid...))
	var short bytes.Buffer
	writeFrame(&short, fData, []byte("too short"))
	f.Add(short.Bytes())
	f.Add(append(append([]byte(nil), valid...), valid[:20]...))
	f.Add([]byte{255, 255, 255, 255, byte(fData)})
	f.Fuzz(func(t *testing.T, data []byte) {
		var d machine.Depot
		for ci, sz := range machine.BufClassSizes {
			d.Put(ci, make([]byte, sz))
		}
		fr := &frameReader{r: bufio.NewReader(bytes.NewReader(data)), depot: &d, topo: dataTopo, from: dataFrom, to: dataTo}
		for {
			before := d.Len()
			k, _, m, err := fr.next()
			if err != nil {
				if d.Len() < before {
					t.Fatalf("rejected %v frame (%v) kept its depot buffer", k, err)
				}
				_, bad := err.(frameError)
				if errors.Is(err, errChecksum) || bad {
					continue // consumed whole: the stream goes on
				}
				return
			}
			if k == fData {
				if len(m.data) > maxFrame {
					t.Fatalf("message of %d bytes past the %d cap", len(m.data), maxFrame)
				}
				if dataTopo.NodeOf(int(m.src)) != dataFrom || dataTopo.NodeOf(int(m.dst)) != dataTo {
					t.Fatalf("accepted route %d->%d, not node %d to node %d", m.src, m.dst, dataFrom, dataTo)
				}
				depotPut(&d, m.data) // the caller's release
			}
			if d.Len() < before {
				t.Fatalf("%v frame leaked a depot buffer", k)
			}
		}
	})
}

func TestFrameReaderDataPathAllocationFree(t *testing.T) {
	var stream bytes.Buffer
	for i := 0; i < 100; i++ {
		stream.Write(encodeDataFrame(uint64(i+1), dataMsg{src: 2, dst: 5, data: make([]byte, 248)}))
	}
	var d machine.Depot
	src := bytes.NewReader(stream.Bytes())
	fr := &frameReader{r: bufio.NewReader(src), depot: &d, topo: dataTopo, from: dataFrom, to: dataTo}
	allocs := testing.AllocsPerRun(50, func() {
		src.Reset(stream.Bytes())
		fr.r.Reset(src)
		for i := 0; i < 100; i++ {
			k, seq, m, err := fr.next()
			if err != nil || k != fData || seq != uint64(i+1) {
				t.Fatalf("frame %d: kind %v seq %d err %v", i, k, seq, err)
			}
			depotPut(&d, m.data)
		}
	})
	if allocs != 0 {
		t.Errorf("reading 100 data frames: %v allocs, want 0", allocs)
	}
}
