package main

import (
	"bufio"
	"fmt"
	"os"
	"sort"
	"sync"
	"time"
)

// Span names: one per layer call the benchmark wraps, plus spOp, the
// whole operation that parents them.
const (
	spOp uint16 = iota
	spAlloc
	spSend
	spServeWait
	spJoin
	spCoreBcast
	spCoreReduce
	spCoreBarrier
	spMPIAllreduce
	spMPIBarrier
	spSubmit
	spLogs
	spStatus
	spDaemonStart
	numSpanNames
)

var spanNames = [numSpanNames]string{
	spOp:           "op",
	spAlloc:        "core.Proc.Alloc",
	spSend:         "core.Proc.SyncSendAndFree",
	spServeWait:    "core.Proc.ServeUntil",
	spJoin:         "mnet.Join",
	spCoreBcast:    "core.Proc.Broadcast",
	spCoreReduce:   "core.Proc.Reduce",
	spCoreBarrier:  "core.Proc.Barrier",
	spMPIAllreduce: "mpi.MPI.Allreduce",
	spMPIBarrier:   "mpi.MPI.Barrier",
	spSubmit:       "service.Client.Submit",
	spLogs:         "service.Client.Logs",
	spStatus:       "service.Client.Status",
	spDaemonStart:  "service.StartDaemon",
}

// setupOp is the operation id of spans recorded during bring-up.
const setupOp = ^uint64(0)

// Span is one timed call into a layer, recorded by the benchmark around
// the call. Parent indexes the enclosing span in the same lane (-1 for
// a root); every span of one operation carries that operation's Op.
type Span struct {
	Start, End int64 // ns since the recorder's epoch
	Op         uint64
	Parent     int32
	Name       uint16
}

// Recorder keeps spans in memory, one lane per recording goroutine,
// until the run ends. A nil *Recorder hands out nil lanes and a nil
// lane records nothing, so untraced runs execute the same code with
// tracing reduced to a nil check.
type Recorder struct {
	epoch time.Time
	every uint64 // record one operation in every

	mu    sync.Mutex
	lanes []*Lane
}

// NewRecorder returns a recorder that samples one operation in every.
func NewRecorder(every uint64) *Recorder {
	return &Recorder{epoch: time.Now(), every: max(every, 1)}
}

// Lane returns a new lane holding up to room spans. Each goroutine
// records into its own lane.
func (r *Recorder) Lane(room int) *Lane {
	if r == nil {
		return nil
	}
	l := &Lane{rec: r, spans: make([]Span, 0, room)}
	r.mu.Lock()
	r.lanes = append(r.lanes, l)
	r.mu.Unlock()
	return l
}

// Lane is one goroutine's span buffer. It never grows: once full it
// stops recording and counts the spans it dropped.
type Lane struct {
	rec     *Recorder
	spans   []Span
	ops     uint64 // operations started on this lane
	op      uint64 // id of the current operation
	on      bool
	dropped int
}

// Op starts the lane's next operation; its spans are recorded when it
// falls on the recorder's sampling interval.
func (l *Lane) Op() {
	if l == nil {
		return
	}
	l.op = l.ops
	l.ops++
	l.on = l.op%l.rec.every == 0
}

// Begin opens a span under parent and returns its id, or -1 when the
// current operation is not being recorded.
func (l *Lane) Begin(name uint16, parent int32) int32 {
	if l == nil || !l.on {
		return -1
	}
	if len(l.spans) == cap(l.spans) {
		l.dropped++
		return -1
	}
	l.spans = append(l.spans, Span{Start: int64(time.Since(l.rec.epoch)), Op: l.op, Parent: parent, Name: name})
	return int32(len(l.spans) - 1)
}

// End closes span id; -1 is a no-op.
func (l *Lane) End(id int32) {
	if id >= 0 {
		l.spans[id].End = int64(time.Since(l.rec.epoch))
	}
}

// Add records an already-timed bring-up call as a root span, outside
// operation sampling.
func (l *Lane) Add(name uint16, start, end time.Time) {
	if l == nil {
		return
	}
	if len(l.spans) == cap(l.spans) {
		l.dropped++
		return
	}
	l.spans = append(l.spans, Span{
		Start: int64(start.Sub(l.rec.epoch)), End: int64(end.Sub(l.rec.epoch)),
		Op: setupOp, Parent: -1, Name: name,
	})
}

// SelfTimes returns each span's self time: its duration minus the part
// of its interval covered by its child spans. Parent indexes must refer
// into spans itself (one lane).
func SelfTimes(spans []Span) []int64 {
	kids := map[int32][][2]int64{}
	for _, s := range spans {
		if s.Parent >= 0 {
			kids[s.Parent] = append(kids[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		self[i] = s.End - s.Start - covered(s.Start, s.End, kids[int32(i)])
	}
	return self
}

// covered is the length of the union of ivs clipped to [lo, hi].
func covered(lo, hi int64, ivs [][2]int64) int64 {
	sort.Slice(ivs, func(a, b int) bool { return ivs[a][0] < ivs[b][0] })
	var total int64
	reach := lo
	for _, iv := range ivs {
		a, b := max(iv[0], reach), min(iv[1], hi)
		if b > a {
			total += b - a
			reach = b
		}
	}
	return total
}

// spanStat collects the durations and self times of one span name, in
// nanoseconds.
type spanStat struct {
	dur, self []float64
}

// spanStats is indexed by span name.
type spanStats [numSpanNames]spanStat

// Stats gathers every lane's spans by name.
func (r *Recorder) Stats() *spanStats {
	st := &spanStats{}
	if r == nil {
		return st
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, l := range r.lanes {
		self := SelfTimes(l.spans)
		for i, s := range l.spans {
			x := &st[s.Name]
			x.dur = append(x.dur, float64(s.End-s.Start))
			x.self = append(x.self, float64(self[i]))
		}
	}
	return st
}

// median is the median duration of span name in nanoseconds (NaN when
// none was recorded).
func (st *spanStats) median(name uint16) float64 { return Median(st[name].dur) }

// Counts reports the spans kept and dropped across all lanes.
func (r *Recorder) Counts() (kept, dropped int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, l := range r.lanes {
		kept += len(l.spans)
		dropped += l.dropped
	}
	return kept, dropped
}

// WriteSpans writes every recorded span as one JSON object per line:
// lane, operation (-1 for bring-up), name, parent, start and end in
// nanoseconds since the recorder's epoch, and self time.
func (r *Recorder) WriteSpans(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	r.mu.Lock()
	for li, l := range r.lanes {
		self := SelfTimes(l.spans)
		for i, s := range l.spans {
			fmt.Fprintf(w, "{\"lane\":%d,\"op\":%d,\"name\":%q,\"parent\":%d,\"start_ns\":%d,\"end_ns\":%d,\"self_ns\":%d}\n",
				li, int64(s.Op), spanNames[s.Name], s.Parent, s.Start, s.End, self[i])
		}
	}
	r.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("writing spans: %w", err)
	}
	return f.Close()
}
