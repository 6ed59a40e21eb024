package mnet

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"math/rand"
	"net"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"converse/internal/faultnet"
	"converse/internal/wire"
)

const (
	// linkQueueCap is the per-peer outbound queue depth. A full queue
	// makes SendOwned block (counted as a backpressure stall) — the wire
	// analogue of the simulated machine's bounded packet ring. Most
	// frames are coalesced packs of up to 4 KiB, so 128 of them still
	// queue 512 KiB ahead of a slow writer.
	linkQueueCap = 128
	// A session's writer starts at linkWriterMin, one maximal 4 KiB
	// coalesced pack with room to spare, and grows once, to
	// linkWriterMax, when its traffic needs it (see growWriter).
	linkWriterMin = 8 << 10
	linkWriterMax = 64 << 10
	// linkReaderSize is a session reader's buffer. Frames larger than
	// what is buffered are read straight from the connection into
	// their depot buffer, so the size bounds only how many small
	// frames one read syscall picks up.
	linkReaderSize = 16 << 10
	// ringCap bounds the retransmit ring: the frames sent but not yet
	// cumulatively acked by the peer. A full ring pauses new traffic
	// (backpressure) while acks, NACK replays, and heartbeats keep
	// flowing, so a lossy link degrades instead of ballooning memory.
	ringCap = 1024
)

// relFrame is one staged data frame: its per-link sequence number, the
// routed message, and, under FailRetry, the time of its most recent
// transmission (the retransmit-timeout clock).
type relFrame struct {
	dataMsg
	seq  uint64
	sent time.Time
}

// offeredConn is a replacement connection handed to a recovering link
// by handleAccept, carrying the redialing peer's cumulative ack.
type offeredConn struct {
	conn net.Conn
	ack  uint64
}

// peerLink is one mesh link to a peer worker, potentially spanning
// several TCP connections over its life. A supervisor goroutine (run)
// owns the current connection and restarts the per-session writer and
// reader around faults; under FailFast the first session error kills
// the job, preserving the original fail-stop behavior.
//
// The writer goroutine is the only one that touches the connection's
// write side: acks and NACKs requested by the reader arrive over kick
// channels, never as direct writes, so a control frame can never tear
// through the middle of a buffered data frame.
type peerLink struct {
	n    *Node
	rank int
	out  chan dataMsg

	rel    bool   // reliability on (FailRetry)
	dialer bool   // this side dials (and redials) the connection
	addr   string // peer's mesh address, for recovery redials

	inj *faultnet.LinkInjector // nil when no fault plan

	connMu sync.Mutex
	conn   net.Conn

	connCh chan offeredConn // acceptor side: replacement conns

	// Sender reliability state.
	relMu   sync.Mutex
	txSeq   uint64     // last staged sequence number
	txAcked uint64     // highest cumulative ack received from the peer
	ring    []relFrame // staged-but-unacked frames, ascending seq

	// Receiver reliability state: the last in-order sequence delivered.
	rxDelivered atomic.Uint64

	// writeLoop kicks. All lossy with capacity 1: a pending kick already
	// covers any number of triggers behind it.
	ackKick    chan struct{}
	nackKick   chan struct{}
	remoteNack chan uint64
	spaceCh    chan struct{}

	held *relFrame // reorder-injection stash (writeLoop only)

	// Buffer recycling. A sent message's buffer goes back to the node's
	// depot once nothing can write it again: under FailFast when the
	// writer has consumed the frame; under FailRetry when the peer's ack
	// prunes it from the ring. ackSeq collects pruned buffers in acked
	// (under relMu), and the writer returns them between batches
	// (reclaim), because the replay snapshots unacked and retransmit
	// take are written after relMu is released and may still hold them.
	acked [][]byte
	spare [][]byte // writeLoop only: the emptied list acked swaps with

	txHdr dataHdr // frame header scratch (writeLoop only)

	jitter jitter // recovery-redial backoff jitter (supervisor only)

	dead atomic.Bool // peer declared down; sends are dropped
}

func newPeerLink(n *Node, rank int, conn net.Conn) *peerLink {
	if tc, ok := conn.(*net.TCPConn); ok {
		// Frames are already batched by the writer's flush-on-idle; let
		// them hit the wire when flushed.
		tc.SetNoDelay(true)
	}
	pl := &peerLink{
		n: n, rank: rank, conn: conn,
		out:        make(chan dataMsg, linkQueueCap),
		rel:        n.rel(),
		dialer:     n.cfg.Rank > rank,
		connCh:     make(chan offeredConn, 1),
		ackKick:    make(chan struct{}, 1),
		nackKick:   make(chan struct{}, 1),
		remoteNack: make(chan uint64, 1),
		spaceCh:    make(chan struct{}, 1),
		jitter:     jitter{seed: dialSeed(n.cfg.Rank, fmt.Sprintf("peer:%d", rank))},
	}
	if n.inj != nil {
		pl.inj = n.inj.Link(rank)
	}
	return pl
}

// start launches the link's supervisor goroutine.
func (pl *peerLink) start() {
	go pl.run()
}

// send queues m for transmission, blocking when the link is
// backlogged. It never blocks past node teardown. Sends to a peer
// declared down are silently dropped — the peer-down notification
// already told the upper layers to stop addressing it.
func (pl *peerLink) send(m dataMsg) {
	if pl.dead.Load() {
		return
	}
	select {
	case pl.out <- m:
		return
	default:
	}
	// Queue full: backpressure. Block, but stay interruptible so a
	// stopped node cannot wedge its driver.
	pl.n.noteStall()
	select {
	case pl.out <- m:
	case <-pl.n.stopCh:
	}
}

// run supervises the link across connection sessions. Each iteration
// runs one session (a writer and a reader on the current connection)
// until it errors or the node stops; under FailRetry a session error
// starts bounded recovery — reestablish the connection, exchange
// cumulative acks, replay the unacked tail — and only an exhausted
// recovery window escalates to the peer-down notification.
func (pl *peerLink) run() {
	for {
		pl.connMu.Lock()
		conn := pl.conn
		pl.connMu.Unlock()

		errCh := make(chan error, 2)
		stop := make(chan struct{})
		replay := pl.unacked()
		var wg sync.WaitGroup
		wg.Add(2)
		go func() { defer wg.Done(); pl.writeLoop(conn, replay, stop, errCh) }()
		go func() { defer wg.Done(); pl.readLoop(conn, stop, errCh) }()

		var err error
		stopped := false
		select {
		case err = <-errCh:
		case <-pl.n.stopCh:
			stopped = true
		}
		close(stop)
		conn.SetDeadline(time.Now()) // kick blocked I/O loose before Close
		conn.Close()
		wg.Wait()

		if stopped || pl.n.closing.Load() && !pl.pending() {
			// Winding down with nothing left to deliver: peers that
			// got the release first close their ends, so the loss is
			// expected. A link still holding frames keeps recovering
			// until the release, or they would be stranded.
			return
		}
		if !pl.rel {
			pl.n.Fail(fmt.Errorf("mnet: rank %d: link to peer %d lost: %v", pl.n.cfg.Rank, pl.rank, err))
			return
		}
		pl.n.noteLinkDown(pl.rank)
		nc, peerAck, rerr := pl.reestablish()
		if rerr != nil {
			if errors.Is(rerr, errLinkStopped) || pl.n.closing.Load() {
				return
			}
			pl.dead.Store(true)
			pl.n.peerDown(pl.rank, fmt.Sprintf("link lost (%v); not recovered within %v: %v",
				err, pl.n.recoveryWindow(), rerr))
			return
		}
		pl.resume(nc, peerAck)
		pl.n.noteRecovered(pl.rank)
	}
}

// pending reports whether the link still holds frames the peer has not
// acked: staged in the retransmit ring, or queued behind it. Only
// FailRetry links can still deliver them.
func (pl *peerLink) pending() bool {
	if !pl.rel {
		return false
	}
	pl.relMu.Lock()
	defer pl.relMu.Unlock()
	return len(pl.ring) > 0 || len(pl.out) > 0
}

// unacked snapshots the retransmit ring for session-start replay.
func (pl *peerLink) unacked() []relFrame {
	if !pl.rel {
		return nil
	}
	pl.relMu.Lock()
	defer pl.relMu.Unlock()
	return append([]relFrame(nil), pl.ring...)
}

// resume installs a replacement connection, pruning frames the peer's
// resume ack confirms it already delivered.
func (pl *peerLink) resume(nc net.Conn, peerAck uint64) {
	if tc, ok := nc.(*net.TCPConn); ok {
		tc.SetNoDelay(true)
	}
	pl.ackSeq(peerAck)
	pl.connMu.Lock()
	pl.conn = nc
	pl.connMu.Unlock()
}

// closeConn closes the current session's connection (teardown path).
func (pl *peerLink) closeConn() {
	pl.connMu.Lock()
	if pl.conn != nil {
		pl.conn.Close()
	}
	pl.connMu.Unlock()
}

// ackSeq advances the cumulative ack and prunes the retransmit ring,
// waking a writer blocked on a full ring.
func (pl *peerLink) ackSeq(a uint64) {
	pl.relMu.Lock()
	if a <= pl.txAcked {
		pl.relMu.Unlock()
		return
	}
	pl.txAcked = a
	drop := 0
	for drop < len(pl.ring) && pl.ring[drop].seq <= a {
		pl.acked = append(pl.acked, pl.ring[drop].data)
		drop++
	}
	if drop > 0 {
		n := copy(pl.ring, pl.ring[drop:])
		clear(pl.ring[n:])
		pl.ring = pl.ring[:n]
	}
	pl.relMu.Unlock()
	pl.kick(pl.spaceCh)
}

// reclaim returns the buffers of acked frames to the node's depot. It
// runs on the writer goroutine between batches, never while a replay
// snapshot is being written.
func (pl *peerLink) reclaim() {
	pl.relMu.Lock()
	acked := pl.acked
	pl.acked = pl.spare
	pl.relMu.Unlock()
	for i, b := range acked {
		depotPut(&pl.n.depot, b)
		acked[i] = nil
	}
	pl.spare = acked[:0]
}

// consumed releases a data frame the writer is done with: its buffer
// goes back to the depot under FailFast, and stays in the retransmit
// ring until acked under FailRetry.
func (pl *peerLink) consumed(f relFrame) {
	if !pl.rel {
		depotPut(&pl.n.depot, f.data)
	}
}

// stage assigns the next sequence number and, under FailRetry, parks
// the frame in the retransmit ring until the peer acks it, stamped for
// the retransmit timeout.
func (pl *peerLink) stage(m dataMsg) relFrame {
	pl.relMu.Lock()
	pl.txSeq++
	f := relFrame{dataMsg: m, seq: pl.txSeq}
	if pl.rel {
		f.sent = time.Now()
		pl.ring = append(pl.ring, f)
	}
	pl.relMu.Unlock()
	return f
}

func (pl *peerLink) ringFull() bool {
	if !pl.rel {
		return false
	}
	pl.relMu.Lock()
	defer pl.relMu.Unlock()
	return len(pl.ring) >= ringCap
}

// kick delivers a lossy wake-up.
func (pl *peerLink) kick(ch chan struct{}) {
	select {
	case ch <- struct{}{}:
	default:
	}
}

// writeLoop drains the outbound queue into one session's connection.
// Write coalescing falls out of the two-level loop: frames are staged
// into the bufio.Writer while more sends are immediately available, and
// the buffer is flushed the moment the queue goes empty — the
// scheduler-idle flush of the machine layer. Idle links carry a
// heartbeat every interval (piggybacking the cumulative ack) so the
// peer's reader can tell "quiet" from "dead".
func (pl *peerLink) writeLoop(conn net.Conn, replay []relFrame, stop <-chan struct{}, errCh chan<- error) {
	w := bufio.NewWriterSize(conn, linkWriterMin)
	// A frame held back by a reorder fault when the last session died
	// is in the ring (FailRetry: the replay below covers it) or lost
	// with the job (FailFast).
	pl.held = nil
	fail := func(err error) {
		pl.n.noteWireErr(pl.rank)
		select {
		case errCh <- fmt.Errorf("write failed (%s): %v", classifyLinkErr(err), err):
		default:
		}
	}
	if len(replay) > 0 {
		for _, f := range replay {
			var err error
			if w, err = growWriter(w, conn, f.dataMsg); err == nil {
				err = pl.writeData(w, f, true)
			}
			if err != nil {
				fail(err)
				return
			}
		}
		if err := w.Flush(); err != nil {
			fail(err)
			return
		}
	}
	hb := pl.n.heartbeat()
	tick := hb / 2
	if tick <= 0 {
		tick = hb
	}
	ticker := time.NewTicker(tick)
	defer ticker.Stop()
	lastTx := time.Now()
	for {
		if pl.rel {
			pl.reclaim()
		}
		if pl.ringFull() {
			// Sender window exhausted: accept no new frames, but keep
			// servicing acks, replay requests, and heartbeats — blocking
			// those here would deadlock both sides of a lossy link.
			select {
			case <-pl.spaceCh:
			case <-pl.ackKick:
				if err := pl.writeCum(w, fAck); err != nil {
					fail(err)
					return
				}
				lastTx = time.Now()
			case <-pl.nackKick:
				if err := pl.writeCum(w, fNack); err != nil {
					fail(err)
					return
				}
				lastTx = time.Now()
			case from := <-pl.remoteNack:
				if err := pl.retransmit(w, from); err != nil {
					fail(err)
					return
				}
				lastTx = time.Now()
			case <-ticker.C:
				if err := pl.onTick(w, &lastTx, hb); err != nil {
					fail(err)
					return
				}
			case <-stop:
				return
			}
			continue
		}
		select {
		case m := <-pl.out:
			for {
				// Stage before anything can fail: under FailRetry a
				// frame in the retransmit ring survives a dead session.
				f := pl.stage(m)
				var err error
				if w, err = growWriter(w, conn, m); err == nil {
					err = pl.writeData(w, f, false)
				}
				if err != nil {
					fail(err)
					return
				}
				if pl.ringFull() {
					break
				}
				select {
				case m = <-pl.out:
					continue
				default:
				}
				break
			}
			if err := pl.writeHeld(w); err != nil {
				fail(err)
				return
			}
			if err := w.Flush(); err != nil {
				fail(err)
				return
			}
			lastTx = time.Now()
		case <-pl.ackKick:
			if err := pl.writeCum(w, fAck); err != nil {
				fail(err)
				return
			}
			lastTx = time.Now()
		case <-pl.nackKick:
			if err := pl.writeCum(w, fNack); err != nil {
				fail(err)
				return
			}
			lastTx = time.Now()
		case from := <-pl.remoteNack:
			if err := pl.retransmit(w, from); err != nil {
				fail(err)
				return
			}
			lastTx = time.Now()
		case <-ticker.C:
			if err := pl.onTick(w, &lastTx, hb); err != nil {
				fail(err)
				return
			}
		case <-stop:
			w.Flush()
			return
		}
	}
}

// growWriter returns the writer data frame m goes through: w while m
// fits in what is left of it, or once w is already a linkWriterMax
// writer; otherwise it flushes w and returns a fresh linkWriterMax
// writer, which the session keeps from then on. The trigger is the
// traffic itself — a batch deeper than one pack, or a frame larger
// than the small buffer — so a link that only ever carries one small
// frame at a time never pays for the large buffer.
func growWriter(w *bufio.Writer, conn io.Writer, m dataMsg) (*bufio.Writer, error) {
	if w.Size() >= linkWriterMax || frameHdrLen+dataHdrLen+len(m.data) <= w.Available() {
		return w, nil
	}
	if err := w.Flush(); err != nil {
		return w, err
	}
	return bufio.NewWriterSize(conn, linkWriterMax), nil
}

// onTick services the writer's timer: retransmit-timeout recovery first
// (a dropped tail frame with no traffic behind it produces no NACK, so
// the sender must notice the silence itself), then idle heartbeats.
func (pl *peerLink) onTick(w *bufio.Writer, lastTx *time.Time, hb time.Duration) error {
	if pl.rel {
		if from, due := pl.rtoDue(); due {
			if err := pl.retransmit(w, from); err != nil {
				return err
			}
			*lastTx = time.Now()
			return nil
		}
	}
	if time.Since(*lastTx) < hb {
		return nil
	}
	if err := pl.writeCum(w, fHeartbeat); err != nil {
		return err
	}
	*lastTx = time.Now()
	return nil
}

// rtoDue reports whether the oldest unacked frame has outlived the
// retransmit timeout and, if so, the cumulative ack to replay from.
func (pl *peerLink) rtoDue() (uint64, bool) {
	rto := pl.n.rto()
	pl.relMu.Lock()
	defer pl.relMu.Unlock()
	if len(pl.ring) == 0 || time.Since(pl.ring[0].sent) < rto {
		return 0, false
	}
	return pl.txAcked, true
}

// retransmit replays every ring frame above the cumulative ack `from`,
// restamping their transmission times. The receiver's sequence check
// discards any duplicates.
func (pl *peerLink) retransmit(w *bufio.Writer, from uint64) error {
	pl.relMu.Lock()
	var frames []relFrame
	now := time.Now()
	for i := range pl.ring {
		if pl.ring[i].seq > from {
			pl.ring[i].sent = now
			frames = append(frames, pl.ring[i])
		}
	}
	pl.relMu.Unlock()
	for _, f := range frames {
		if err := pl.writeData(w, f, true); err != nil {
			return err
		}
	}
	return w.Flush()
}

// writeCum writes one frame carrying the cumulative receive ack (fAck,
// fNack or fHeartbeat) and flushes it.
func (pl *peerLink) writeCum(w *bufio.Writer, k kind) error {
	ab := pl.txHdr[:8]
	binary.LittleEndian.PutUint64(ab, pl.rxDelivered.Load())
	if err := writeFrameParts(w, k, ab); err != nil {
		return err
	}
	if err := w.Flush(); err != nil {
		return err
	}
	pl.n.noteTx(pl.rank, frameHdrLen+8)
	return nil
}

// writeData writes one sequenced data frame, applying the fault plan
// when one is loaded. Injection happens here — below the retransmit
// ring — so an injected drop or corruption is repaired by the
// reliability layer under FailRetry and detected fatally under
// FailFast, exactly like a real wire fault.
func (pl *peerLink) writeData(w *bufio.Writer, f relFrame, isReplay bool) error {
	if isReplay {
		pl.n.noteRetransmit(pl.rank)
	}
	if pl.inj != nil {
		fault := pl.inj.Tx()
		if fault.Crash {
			pl.n.scriptedCrash()
		}
		if fault.Delay > 0 {
			// Stalls block the writer with the frame unsent; the bytes
			// already buffered still go out first.
			w.Flush()
			time.Sleep(fault.Delay)
		}
		if fault.Kill {
			w.Flush()
			return fmt.Errorf("scripted link kill (fault plan)")
		}
		if fault.Hold && pl.held == nil && !isReplay {
			held := f
			pl.held = &held
			return nil
		}
		if fault.Drop {
			// The frame stays in the retransmit ring; under FailFast the
			// receiver's sequence gap kills the job instead.
			pl.consumed(f)
			return nil
		}
		if fault.Corrupt {
			buf := encodeDataFrame(f.seq, f.dataMsg)
			flipBit(buf, fault.CorruptBit)
			if _, err := w.Write(buf); err != nil {
				return err
			}
			pl.n.noteTx(pl.rank, len(buf))
			pl.consumed(f)
			return pl.writeHeld(w)
		}
		if fault.Dup {
			if err := writeDataFrame(w, &pl.txHdr, f.seq, f.dataMsg); err != nil {
				return err
			}
			pl.n.noteTx(pl.rank, frameHdrLen+dataHdrLen+len(f.data))
		}
	}
	if err := writeDataFrame(w, &pl.txHdr, f.seq, f.dataMsg); err != nil {
		return err
	}
	pl.n.noteTx(pl.rank, frameHdrLen+dataHdrLen+len(f.data))
	pl.consumed(f)
	return pl.writeHeld(w)
}

// writeHeld releases a reorder-injected frame after its successor.
func (pl *peerLink) writeHeld(w *bufio.Writer) error {
	if pl.held == nil {
		return nil
	}
	h := *pl.held
	pl.held = nil
	if err := writeDataFrame(w, &pl.txHdr, h.seq, h.dataMsg); err != nil {
		return err
	}
	pl.n.noteTx(pl.rank, frameHdrLen+dataHdrLen+len(h.data))
	pl.consumed(h)
	return nil
}

// readLoop receives one session's frames. The rolling read deadline of
// heartbeatMissFactor intervals is the failure detector: a live peer
// always produces either data or heartbeats within one interval, so a
// deadline miss means the peer is dead or wedged. An EOF while the job
// is running means the peer's process exited — the fastest death
// signal of all.
//
// Under FailRetry the sequence numbers drive exactly-once in-order
// delivery: in-order frames are delivered and (on stream idle) acked;
// duplicates are counted and dropped; a gap or checksum error requests
// a replay via NACK instead of killing anything.
func (pl *peerLink) readLoop(conn net.Conn, stop <-chan struct{}, errCh chan<- error) {
	fr := &frameReader{
		r:     bufio.NewReaderSize(conn, linkReaderSize),
		conn:  conn,
		allow: time.Duration(heartbeatMissFactor) * pl.n.heartbeat(),
		depot: &pl.n.depot,
		topo:  pl.n.topo,
		from:  pl.rank,
		to:    pl.n.cfg.Rank,
	}
	fail := func(err error) {
		select {
		case errCh <- err:
		default:
		}
	}
	lastNacked := ^uint64(0)
	for {
		k, seq, m, err := fr.next()
		if err != nil {
			select {
			case <-stop:
				return
			default:
			}
			_, bad := err.(frameError)
			switch {
			case errors.Is(err, errChecksum):
				pl.n.noteCrcError(pl.rank)
				if pl.rel {
					// The frame was consumed and the length framing is
					// intact: skip the damage and request a replay.
					pl.kick(pl.nackKick)
					continue
				}
			case bad:
				// The checksum passed, so the peer really sent this: fail
				// the job under either policy (a replay would repeat it).
				pl.n.Fail(fmt.Errorf("mnet: rank %d: bad %v frame from rank %d: %v", pl.n.cfg.Rank, k, pl.rank, err))
				return
			case errors.Is(err, io.EOF), errors.Is(err, io.ErrUnexpectedEOF):
				err = errors.New("peer process exited (connection closed)")
			case isTimeout(err):
				err = fmt.Errorf("no traffic for %v (peer wedged or network dead)", fr.allow)
			default:
				pl.n.noteWireErr(pl.rank)
				err = fmt.Errorf("read failed (%s): %v", classifyLinkErr(err), err)
			}
			fail(err)
			return
		}
		pl.n.noteRx(pl.rank, fr.size)
		switch k {
		case fData:
			cur := pl.rxDelivered.Load()
			switch {
			case seq <= cur:
				// Replay overlap (or injected duplicate): already
				// delivered, drop it.
				pl.n.noteDupDrop(pl.rank)
				depotPut(fr.depot, m.data)
			case seq == cur+1:
				pl.rxDelivered.Store(seq)
				pl.n.deliverLocal(int(m.src), int(m.dst), m.data)
				if pl.rel && fr.r.Buffered() == 0 {
					pl.kick(pl.ackKick)
				}
			default:
				depotPut(fr.depot, m.data)
				// Sequence gap: frames vanished on the wire.
				if !pl.rel {
					fail(fmt.Errorf("sequence gap (got frame %d, want %d: frames lost on the wire)", seq, cur+1))
					return
				}
				// NACK once per stuck position; if the replay is lost
				// too, the sender's retransmit timeout recovers.
				if cur != lastNacked {
					pl.kick(pl.nackKick)
					lastNacked = cur
				}
			}
		case fAck, fHeartbeat:
			if pl.rel {
				pl.ackSeq(seq)
			}
		case fNack:
			if pl.rel {
				select {
				case pl.remoteNack <- seq:
				default:
				}
			}
		default:
			fail(fmt.Errorf("unexpected %v frame on mesh link", k))
			return
		}
	}
}

// errLinkStopped marks recovery abandoned because the node stopped.
var errLinkStopped = errors.New("node stopped during link recovery")

// reestablish obtains a replacement connection within the recovery
// window: the dialing side redials the peer's mesh address, the
// accepting side waits for handleAccept to deliver the peer's redial.
// It returns the new connection and the peer's cumulative receive ack.
func (pl *peerLink) reestablish() (net.Conn, uint64, error) {
	window := pl.n.recoveryWindow()
	deadline := time.Now().Add(window)
	if pl.dialer {
		return pl.redial(deadline)
	}
	remain := time.Until(deadline)
	if remain <= 0 {
		remain = time.Millisecond
	}
	t := time.NewTimer(remain)
	defer t.Stop()
	select {
	case oc := <-pl.connCh:
		pl.n.noteReconnect()
		return oc.conn, oc.ack, nil
	case <-t.C:
		return nil, 0, fmt.Errorf("peer %d did not redial within %v", pl.rank, window)
	case <-pl.n.stopCh:
		return nil, 0, errLinkStopped
	}
}

// redial reconnects to the peer's mesh listener with jittered
// exponential backoff. Recovery starts at 1ms (the listener was up
// moments ago) rather than dialPeer's cold-start 10ms.
func (pl *peerLink) redial(deadline time.Time) (net.Conn, uint64, error) {
	backoff := time.Millisecond
	const backoffCap = 250 * time.Millisecond
	lastErr := errors.New("recovery window exhausted before the first dial")
	for {
		select {
		case <-pl.n.stopCh:
			return nil, 0, errLinkStopped
		default:
		}
		if !time.Now().Before(deadline) {
			return nil, 0, lastErr
		}
		conn, err := net.DialTimeout("tcp", pl.addr, time.Until(deadline))
		if err == nil {
			var ack uint64
			if ack, err = pl.resumeHello(conn); err == nil {
				pl.n.noteReconnect()
				return conn, ack, nil
			}
			conn.Close()
		}
		lastErr = err
		time.Sleep(pl.jitter.spread(backoff))
		if backoff *= 2; backoff > backoffCap {
			backoff = backoffCap
		}
	}
}

// resumeHello runs the session-resume handshake on a fresh connection:
// present the round, rank, and our cumulative receive ack; the peer
// answers with its own ack so both sides prune their rings and replay
// only the tail the other never delivered.
func (pl *peerLink) resumeHello(conn net.Conn) (uint64, error) {
	conn.SetDeadline(time.Now().Add(5 * time.Second))
	defer conn.SetDeadline(time.Time{})
	err := wire.WriteJSON(conn, byte(fPeerHello), peerHelloMsg{
		Token: pl.n.cfg.Token, Round: pl.n.round, From: pl.n.cfg.Rank,
		Resume: true, Ack: pl.rxDelivered.Load(),
	})
	if err != nil {
		return 0, err
	}
	k, payload, err := readFrame(conn)
	if err != nil {
		return 0, err
	}
	if k != fPeerHelloAck {
		return 0, fmt.Errorf("unexpected %v frame answering session resume", k)
	}
	var ack peerHelloAckMsg
	if err := wire.DecodeJSON(byte(k), payload, &ack); err != nil {
		return 0, err
	}
	return ack.Ack, nil
}

// offerConn hands a replacement connection to the recovering link,
// displacing any staler offer already waiting.
func (pl *peerLink) offerConn(conn net.Conn, ack uint64) {
	for {
		select {
		case pl.connCh <- offeredConn{conn, ack}:
			return
		default:
		}
		select {
		case old := <-pl.connCh:
			old.conn.Close()
		default:
		}
	}
}

// classifyLinkErr names a link I/O error's failure mode, so metrics and
// failure reports distinguish a half-written frame (short write: the
// kernel accepted part of a frame before the link died, which matters
// for session resume) from clean closes, resets, and timeouts, instead
// of folding everything into "peer dead".
func classifyLinkErr(err error) string {
	switch {
	case err == nil:
		return "ok"
	case errors.Is(err, errChecksum):
		return "checksum"
	case errors.Is(err, io.ErrShortWrite):
		return "short-write"
	case errors.Is(err, io.EOF), errors.Is(err, io.ErrUnexpectedEOF):
		return "eof"
	case errors.Is(err, syscall.EPIPE):
		return "broken-pipe"
	case errors.Is(err, syscall.ECONNRESET):
		return "connection-reset"
	case isTimeout(err):
		return "timeout"
	default:
		return "io-error"
	}
}

func isTimeout(err error) bool {
	ne, ok := err.(net.Error)
	if ok {
		return ne.Timeout()
	}
	if unwrapped, ok := err.(interface{ Unwrap() error }); ok {
		return isTimeout(unwrapped.Unwrap())
	}
	return false
}

// jitter spreads retry sleeps so a full mesh of ranks retrying in
// lockstep desynchronizes. Its source is seeded (see dialSeed), which
// keeps test runs deterministic, and is made on the first retry: a
// seeded math/rand source is ~5 KB and costly to seed, and most dials
// and links never retry.
type jitter struct {
	seed int64
	rng  *rand.Rand
}

// spread returns d plus a uniform random extra of up to d/2.
func (j *jitter) spread(d time.Duration) time.Duration {
	if d <= 0 {
		return d
	}
	if j.rng == nil {
		j.rng = rand.New(rand.NewSource(j.seed))
	}
	return d + time.Duration(j.rng.Int63n(int64(d)/2+1))
}

// dialSeed derives a per-(rank, target) jitter seed.
func dialSeed(rank int, addr string) int64 {
	h := fnv.New64a()
	io.WriteString(h, addr)
	return int64(h.Sum64()) ^ int64(rank+1)<<32
}

// dialPeer connects to addr with jittered exponential backoff (10ms
// doubling to a 500ms cap) until the handshake deadline: during job
// startup peers bind their listeners at slightly different times, so
// early refusals are expected and retried; past the deadline the job
// fails loudly.
func dialPeer(n *Node, addr string, deadline time.Time) (net.Conn, error) {
	backoff := 10 * time.Millisecond
	const backoffCap = 500 * time.Millisecond
	jit := jitter{seed: dialSeed(n.cfg.Rank, addr)}
	for {
		conn, err := net.DialTimeout("tcp", addr, time.Until(deadline))
		if err == nil {
			return conn, nil
		}
		if time.Now().Add(backoff).After(deadline) {
			return nil, fmt.Errorf("mnet: dialing peer %s: handshake deadline exceeded: %w", addr, err)
		}
		n.noteReconnect()
		// A stopped node will never want this link: its job failed (the
		// peer may be gone for good, refusing connects until the
		// deadline), so give up now instead of retrying out the clock.
		select {
		case <-n.stopCh:
			return nil, fmt.Errorf("mnet: dialing peer %s: node stopped: %w", addr, err)
		case <-time.After(jit.spread(backoff)):
		}
		if backoff *= 2; backoff > backoffCap {
			backoff = backoffCap
		}
	}
}
