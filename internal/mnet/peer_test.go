package mnet

import (
	"bufio"
	"bytes"
	"fmt"
	"testing"
	"time"
)

// TestJitterSequenceUnchanged pins the backoff sleeps a seeded dial and
// a recovering link take, so making the jitter source on the first
// retry cannot change what sleeps a given seed produces.
func TestJitterSequenceUnchanged(t *testing.T) {
	for _, c := range []struct {
		rank      int
		key       string
		first, to time.Duration
		want      []time.Duration
	}{
		{3, "127.0.0.1:7000", 10 * time.Millisecond, 500 * time.Millisecond,
			[]time.Duration{13848694, 25881165, 55212095, 111852069, 198395937, 391480425, 674073669, 605874378}},
		{2, fmt.Sprintf("peer:%d", 1), time.Millisecond, 250 * time.Millisecond,
			[]time.Duration{1294422, 2392046, 4113078, 10194812, 17224783, 36673438, 78011290, 168353505}},
	} {
		j := jitter{seed: dialSeed(c.rank, c.key)}
		if j.spread(0) != 0 || j.rng != nil {
			t.Fatalf("%s: a zero step must neither sleep nor seed the source", c.key)
		}
		b := c.first
		for i, want := range c.want {
			if got := j.spread(b); got != want {
				t.Fatalf("%s: retry %d slept %v, want %v", c.key, i, got, want)
			}
			if b *= 2; b > c.to {
				b = c.to
			}
		}
	}
}

// TestLinkWriterGrowsOnDemand drives the writer growth rule: a session
// keeps its small writer while each data frame fits behind what is
// buffered, and the first one that does not flushes the small writer
// and moves the session to the large one for good.
func TestLinkWriterGrowsOnDemand(t *testing.T) {
	var conn bytes.Buffer
	w := bufio.NewWriterSize(&conn, linkWriterMin)
	pack := dataMsg{data: make([]byte, 4096)}
	var hdr dataHdr
	write := func(m dataMsg) {
		t.Helper()
		var err error
		if w, err = growWriter(w, &conn, m); err == nil {
			err = writeDataFrame(w, &hdr, 1, m)
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	frame := frameHdrLen + dataHdrLen + len(pack.data)

	// Batches of one maximal pack, flushed in between, never grow.
	for i := 0; i < 100; i++ {
		write(pack)
		if err := w.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	if w.Size() != linkWriterMin {
		t.Fatalf("single-pack batches grew the writer to %d", w.Size())
	}
	// A batch's second pack does not fit: the first is flushed and the
	// second is buffered in the large writer.
	conn.Reset()
	write(pack)
	write(pack)
	if w.Size() != linkWriterMax || conn.Len() != frame || w.Buffered() != frame {
		t.Fatalf("after a two-pack batch: size %d, on the wire %d, buffered %d; want %d, %d, %d",
			w.Size(), conn.Len(), w.Buffered(), linkWriterMax, frame, frame)
	}
	large := w
	for i := 0; i < 100; i++ {
		write(pack)
	}
	if w != large {
		t.Fatal("a grown session replaced its large writer")
	}

	// A frame larger than the small buffer grows a fresh session too.
	w = bufio.NewWriterSize(&conn, linkWriterMin)
	write(dataMsg{data: make([]byte, 3*linkWriterMin)})
	if w.Size() != linkWriterMax {
		t.Fatalf("a %d-byte frame left the writer at %d", 3*linkWriterMin, w.Size())
	}
}
