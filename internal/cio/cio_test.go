package cio

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"strings"
	"testing"
	"testing/iotest"
	"time"

	"converse/internal/core"
)

func newMachine(pes int) *core.Machine {
	return core.NewMachine(core.Config{PEs: pes, Watchdog: 15 * time.Second})
}

func TestWriteOrdered(t *testing.T) {
	const pes = 4
	cm := newMachine(pes)
	var out bytes.Buffer
	totals := make([]int, pes)
	err := cm.Run(func(p *core.Proc) {
		c := Attach(p)
		block := []byte(fmt.Sprintf("[block-%d]", p.MyPe()))
		var w *bytes.Buffer
		if p.MyPe() == 0 {
			w = &out
		}
		var werr error
		totals[p.MyPe()], werr = c.WriteOrdered(ioWriterOrNil(w), block)
		if werr != nil {
			t.Errorf("pe %d: %v", p.MyPe(), werr)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	want := "[block-0][block-1][block-2][block-3]"
	if out.String() != want {
		t.Fatalf("file = %q, want %q", out.String(), want)
	}
	for pe, n := range totals {
		if n != len(want) {
			t.Errorf("pe %d: total = %d, want %d", pe, n, len(want))
		}
	}
}

// ioWriterOrNil keeps the nil interface clean for non-root PEs.
func ioWriterOrNil(b *bytes.Buffer) *bytes.Buffer { return b }

func TestWriteOrderedEmptyBlocks(t *testing.T) {
	const pes = 3
	cm := newMachine(pes)
	var out bytes.Buffer
	err := cm.Run(func(p *core.Proc) {
		c := Attach(p)
		var block []byte
		if p.MyPe() == 1 {
			block = []byte("only-middle")
		}
		var w *bytes.Buffer
		if p.MyPe() == 0 {
			w = &out
		}
		if _, err := c.WriteOrdered(ioWriterOrNil(w), block); err != nil {
			t.Errorf("pe %d: %v", p.MyPe(), err)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if out.String() != "only-middle" {
		t.Fatalf("file = %q", out.String())
	}
}

func TestWriteOrderedRepeated(t *testing.T) {
	const pes = 2
	cm := newMachine(pes)
	var out bytes.Buffer
	err := cm.Run(func(p *core.Proc) {
		c := Attach(p)
		var w *bytes.Buffer
		if p.MyPe() == 0 {
			w = &out
		}
		for round := 0; round < 3; round++ {
			block := []byte(fmt.Sprintf("r%dp%d;", round, p.MyPe()))
			if _, err := c.WriteOrdered(ioWriterOrNil(w), block); err != nil {
				t.Errorf("%v", err)
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	want := "r0p0;r0p1;r1p0;r1p1;r2p0;r2p1;"
	if out.String() != want {
		t.Fatalf("file = %q, want %q", out.String(), want)
	}
}

func TestReadScatter(t *testing.T) {
	const pes = 4
	cm := newMachine(pes)
	input := "AAAABBBBCCCCDDDD"
	got := make([]string, pes)
	err := cm.Run(func(p *core.Proc) {
		c := Attach(p)
		var r *strings.Reader
		if p.MyPe() == 0 {
			r = strings.NewReader(input)
		}
		blk, err := c.ReadScatter(readerOrNil(r), 4)
		if err != nil {
			t.Errorf("pe %d: %v", p.MyPe(), err)
			return
		}
		got[p.MyPe()] = string(blk)
	})
	if err != nil {
		t.Fatal(err)
	}
	for pe, want := range []string{"AAAA", "BBBB", "CCCC", "DDDD"} {
		if got[pe] != want {
			t.Errorf("pe %d: block %q, want %q", pe, got[pe], want)
		}
	}
}

func readerOrNil(r *strings.Reader) *strings.Reader { return r }

func TestReadScatterShortFile(t *testing.T) {
	const pes = 3
	cm := newMachine(pes)
	got := make([]string, pes)
	err := cm.Run(func(p *core.Proc) {
		c := Attach(p)
		var r *strings.Reader
		if p.MyPe() == 0 {
			r = strings.NewReader("XXYY Z") // 1.5 blocks of 4
		}
		blk, err := c.ReadScatter(readerOrNil(r), 4)
		if err != nil {
			t.Errorf("pe %d: %v", p.MyPe(), err)
			return
		}
		got[p.MyPe()] = string(blk)
	})
	if err != nil {
		t.Fatal(err)
	}
	if got[0] != "XXYY" || got[1] != " Z" || got[2] != "" {
		t.Fatalf("blocks = %q", got)
	}
}

func TestScatterThenOrderedWriteRoundTrip(t *testing.T) {
	// read-scatter a file, transform blocks in parallel, write it back
	// ordered: the composition must preserve order.
	const pes = 4
	cm := newMachine(pes)
	input := "abcdEFGHijklMNOP"
	var out bytes.Buffer
	err := cm.Run(func(p *core.Proc) {
		c := Attach(p)
		var r *strings.Reader
		var w *bytes.Buffer
		if p.MyPe() == 0 {
			r = strings.NewReader(input)
			w = &out
		}
		blk, err := c.ReadScatter(readerOrNil(r), 4)
		if err != nil {
			t.Errorf("%v", err)
			return
		}
		upper := bytes.ToUpper(blk)
		if _, err := c.WriteOrdered(ioWriterOrNil(w), upper); err != nil {
			t.Errorf("%v", err)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if out.String() != "ABCDEFGHIJKLMNOP" {
		t.Fatalf("round trip = %q", out.String())
	}
}

// failAfterWriter accepts its first write and fails every later one.
type failAfterWriter struct{ n int }

func (w *failAfterWriter) Write(b []byte) (int, error) {
	if w.n++; w.n > 1 {
		return 0, errors.New("disk full")
	}
	return len(b), nil
}

// A write that fails on processor 0 must release every processor with
// an error and the bytes written before the failure, well inside the
// watchdog, instead of leaving them waiting for an ack.
func TestWriteOrderedFailureReleasesAll(t *testing.T) {
	const pes = 4
	cm := core.NewMachine(core.Config{PEs: pes, Watchdog: 2 * time.Second})
	totals := make([]int, pes)
	errs := make([]error, pes)
	err := cm.Run(func(p *core.Proc) {
		c := Attach(p)
		var w io.Writer
		if p.MyPe() == 0 {
			w = &failAfterWriter{}
		}
		totals[p.MyPe()], errs[p.MyPe()] = c.WriteOrdered(w, []byte("blk"))
	})
	if err != nil {
		t.Fatal(err)
	}
	for pe := range errs {
		if errs[pe] == nil {
			t.Errorf("pe %d: no error after the write failed on pe 0", pe)
		}
		if totals[pe] != 3 {
			t.Errorf("pe %d: total = %d, want 3 (the block written before the failure)", pe, totals[pe])
		}
	}
}

// A read that fails on processor 0 must release every processor with
// an error, instead of leaving them waiting for their block.
func TestReadScatterFailureReleasesAll(t *testing.T) {
	const pes = 4
	cm := core.NewMachine(core.Config{PEs: pes, Watchdog: 2 * time.Second})
	errs := make([]error, pes)
	err := cm.Run(func(p *core.Proc) {
		c := Attach(p)
		var r io.Reader
		if p.MyPe() == 0 {
			r = io.MultiReader(strings.NewReader("AAAA"), iotest.ErrReader(errors.New("bad sector")))
		}
		_, errs[p.MyPe()] = c.ReadScatter(r, 4)
	})
	if err != nil {
		t.Fatal(err)
	}
	for pe, e := range errs {
		if e == nil {
			t.Errorf("pe %d: no error after the read failed on pe 0", pe)
		}
	}
}
