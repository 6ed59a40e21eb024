// Package cio provides elementary parallel file I/O primitives over
// Converse, a first cut at the §6 future-work item: "Design of
// appropriate primitives for parallel file I/O and their
// implementations on different machines will also be the subject of
// future research."
//
// Following the MMI's host-based I/O philosophy (CmiPrintf is
// "implemented on top of the messaging layer using asynchronous
// sends"), these primitives funnel data through processor 0, which owns
// the actual stream: WriteOrdered performs a collective rank-ordered
// write (every processor contributes a block; the file sees block 0,
// block 1, ... regardless of arrival order), and ReadScatter performs
// the dual collective read (processor 0 reads fixed-size blocks and
// deals them out by rank).
//
// Both ride a msgmgr.Mailbox, the collective engine the messaging
// languages share: the blocks travel up its Gather tree and out as
// collective-tagged sends, and processor 0 always tells every other
// processor whether the stream failed, so a failed write or read
// returns an error everywhere instead of stranding the other
// processors in their wait.
package cio

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	"converse/internal/core"
	"converse/internal/msgmgr"
)

// IO is the per-processor parallel-I/O runtime.
type IO struct {
	p  *core.Proc
	mb *msgmgr.Mailbox
}

// extKey locates the IO state in a Proc.
const extKey = "converse.cio"

// errRoot is what a processor other than 0 returns when processor 0's
// stream failed.
var errRoot = errors.New("stream failed on processor 0")

// Attach creates (or returns) the processor's parallel-I/O runtime.
func Attach(p *core.Proc) *IO {
	if c, ok := p.Ext(extKey).(*IO); ok {
		return c
	}
	c := &IO{p: p, mb: msgmgr.NewMailbox(p, "cio", nil)}
	p.SetExt(extKey, c)
	return c
}

// WriteOrdered is a collective rank-ordered write: every processor
// passes its block (possibly empty); processor 0 — the only one whose w
// is used — writes the blocks in rank order and announces the outcome
// to everyone as [ok u8][total u32]. It returns the total bytes written
// (on every processor) once the write is durable in w, or, if a write
// failed, the bytes written before it and an error on every processor.
func (c *IO) WriteOrdered(w io.Writer, block []byte) (int, error) {
	// place runs on processor 0 only. The gathered records are valid
	// only until the next blocking reduction: copy them out.
	blocks := make([][]byte, c.p.NumPes())
	c.mb.Gather(0, c.p.MyPe(), block, func(rank int, data []byte) {
		blocks[rank] = append([]byte(nil), data...)
	})
	var status [5]byte // [ok u8][total u32]; all zero (failed) unless sent
	var werr error
	if c.p.MyPe() == 0 {
		status[0] = 1
		total := 0
		for _, blk := range blocks {
			n, err := w.Write(blk)
			total += n
			if err != nil {
				status[0], werr = 0, fmt.Errorf("cio: ordered write: %w", err)
				break
			}
		}
		binary.LittleEndian.PutUint32(status[1:], uint32(total))
	}
	copy(status[:], c.mb.Bcast(0, status[:]))
	total := int(binary.LittleEndian.Uint32(status[1:]))
	if werr == nil && status[0] == 0 {
		werr = fmt.Errorf("cio: ordered write: %w", errRoot)
	}
	return total, werr
}

// ReadScatter is the collective dual: processor 0 reads one
// blockSize-byte block per processor from r (short final blocks are
// allowed at EOF) and deals block i to rank i, prefixed by a status
// byte. Every processor returns its own block; a rank beyond EOF
// receives an empty block. If a read fails, every processor returns an
// error.
func (c *IO) ReadScatter(r io.Reader, blockSize int) ([]byte, error) {
	ctag := c.mb.CollTag()
	if c.p.MyPe() == 0 {
		blocks := make([][]byte, c.p.NumPes())
		var rerr error
		for pe := range blocks {
			blk := make([]byte, 1+blockSize)
			n, err := io.ReadFull(r, blk[1:])
			if err != nil && err != io.EOF && err != io.ErrUnexpectedEOF {
				rerr = fmt.Errorf("cio: scatter read: %w", err)
				break
			}
			blk[0] = 1
			blocks[pe] = blk[:1+n]
		}
		for pe := 1; pe < len(blocks); pe++ {
			if rerr != nil {
				blocks[pe] = []byte{0}
			}
			c.mb.SendColl(pe, ctag, blocks[pe])
		}
		if rerr != nil {
			return nil, rerr
		}
		return blocks[0][1:], nil
	}
	var msg []byte
	c.p.ServeUntil(func() bool {
		var ok bool
		msg, _, _, ok = c.mb.TryRecv(0, ctag)
		return ok
	})
	if len(msg) == 0 || msg[0] == 0 {
		return nil, fmt.Errorf("cio: scatter read: %w", errRoot)
	}
	return msg[1:], nil
}
