package main

import (
	"bytes"
	"hash/crc32"
	"math/rand"

	"converse/internal/metrics"
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// variants are the seed-derived payloads a workload sends: operation i
// carries variant i mod 256, so the seed fixes every byte on the wire
// while the work per operation stays the same from seed to seed.
type variants struct {
	data [][]byte
	sum  []uint32 // CRC-32C of each variant
}

func newVariants(seed int64, size int) *variants {
	rng := rand.New(rand.NewSource(seed))
	v := &variants{data: make([][]byte, 256), sum: make([]uint32, 256)}
	for i := range v.data {
		b := make([]byte, size)
		rng.Read(b)
		v.data[i], v.sum[i] = b, crc32.Checksum(b, castagnoli)
	}
	return v
}

func (v *variants) pick(i uint64) int          { return int(i % uint64(len(v.data))) }
func (v *variants) fill(dst []byte, k int)     { copy(dst, v.data[k]) }
func (v *variants) equal(k int, b []byte) bool { return bytes.Equal(v.data[k], b) }

// coreLayers derives the core metrics of a traced pass: median time
// inside the wrapped core calls, allocations per operation, and from
// the metrics registry the message-pool hit ratio and the scheduler
// queue's high-water mark.
func coreLayers(st *spanStats, res *passResult, snap metrics.Snapshot) map[string]float64 {
	var hits, misses, hwm uint64
	for _, pe := range snap.PEs {
		hits += pe.PoolHits
		misses += pe.PoolMisses
		hwm = max(hwm, pe.QueueHWM)
	}
	m := map[string]float64{
		"proc.allocs_per_op":  float64(res.mallocs) / float64(res.ops),
		"core.pool_hit_ratio": float64(hits) / float64(hits+misses),
		"core.queue_hwm":      float64(hwm),
	}
	if len(st[spSend].dur) > 0 {
		m["core.send_ns"] = st.median(spSend)
		m["core.alloc_ns"] = st.median(spAlloc)
		m["core.serve_wait_us"] = st.median(spServeWait) / 1e3
	}
	return m
}

func sum(v []uint64) uint64 {
	var t uint64
	for _, x := range v {
		t += x
	}
	return t
}
