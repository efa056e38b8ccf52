package hub

import (
	"math/bits"
	"sync/atomic"
	"time"
)

// Latency buckets are log-linear: durations below 2·latSub ns get one bucket
// per nanosecond, and every power of two above that is split into latSub
// equal sub-buckets, so a bucket's width is at most 1/latSub of its lower
// bound. Durations clamp at 2^latMaxBits-1 ns (about 68.7 s), far past any
// service time, which keeps a tenant's window (512 two-byte slots plus
// latBuckets four-byte counts) under 4 KB.
const (
	latSubBits = 4
	latSub     = 1 << latSubBits
	latMaxBits = 36
	latMax     = 1<<latMaxBits - 1
	latBuckets = (latMaxBits - latSubBits + 1) << latSubBits
)

// Service-time sampling: runBatch times one event in latSampleEvery that a
// tenant serves, chosen by latSampled from the tenant's served-event
// counter alone.
const (
	latSampleBits  = 6
	latSampleEvery = 1 << latSampleBits
	// latSampleMul is 2^64 divided by the golden ratio, rounded down (odd).
	latSampleMul = 0x9E3779B97F4A7C15
)

// latSampled reports whether the tenant's n-th served event (from 0) is
// timed: whether n·latSampleMul, wrapped to 64 bits, falls in the lowest
// 1/latSampleEvery of the range. Event 0 always is, and any long run times
// one event in latSampleEvery (exactly 512 of the first 32,768). The timed
// events are 34, 55 or 89 apart rather than every 64th: a plain n%64 would
// time only the first event of every full 64-event batch, the one that
// pays the batch's cache misses, and so read service times high.
func latSampled(n uint64) bool { return n*latSampleMul>>(64-latSampleBits) == 0 }

// latBucket maps a duration to its bucket index, monotone in d. Durations
// below 1 ns (an interval shorter than the clock's resolution) count as
// 1 ns; durations above the clamp land in the last bucket.
func latBucket(d time.Duration) int {
	if d < 1 {
		d = 1
	}
	v := uint64(d)
	if v > latMax {
		return latBuckets - 1
	}
	e := bits.Len64(v) - (latSubBits + 1)
	if e < 0 {
		e = 0
	}
	return e<<latSubBits + int(v>>uint(e))
}

// latPoint is the duration reported for bucket i: the midpoint of the
// bucket's range, within 1/(2·latSub) of every duration mapped to it, and
// never 0.
func latPoint(i int) time.Duration {
	if i < 2*latSub {
		return time.Duration(max(i, 1)) // one bucket per nanosecond
	}
	e := uint(i>>latSubBits - 1)
	lo := uint64(i&(latSub-1)|latSub) << e
	return time.Duration(lo + 1<<e/2)
}

// latencyWindow holds one tenant's most recent len(ring) service-time
// samples as bucket indices, with one count per bucket. Records
// are serialized by the tenant's procMu (single writer), which alone owns
// ring and next; Stats reads only the atomic counts, concurrently.
type latencyWindow struct {
	ring   []uint16
	next   int // slot the next record overwrites
	held   int // samples in the ring, up to len(ring)
	counts [latBuckets]atomic.Uint32
}

func newLatencyWindow(size int) *latencyWindow {
	return &latencyWindow{ring: make([]uint16, size)}
}

// record adds one service time to the window, evicting the oldest sample
// once the window is full.
func (w *latencyWindow) record(d time.Duration) {
	b := uint16(latBucket(d))
	if w.held < len(w.ring) {
		w.held++
		w.counts[b].Add(1)
	} else if old := w.ring[w.next]; old != b {
		w.counts[old].Add(^uint32(0))
		w.counts[b].Add(1)
	}
	w.ring[w.next] = b
	if w.next++; w.next == len(w.ring) {
		w.next = 0
	}
}

// latHist is a snapshot of bucket counts: one window's, or the sum of many.
type latHist [latBuckets]uint64

// load overwrites h with the window's counts.
func (h *latHist) load(w *latencyWindow) {
	for i := range h {
		h[i] = uint64(w.counts[i].Load())
	}
}

// add sums o into h.
func (h *latHist) add(o *latHist) {
	for i, c := range o {
		h[i] += c
	}
}

// percentiles returns the nearest-rank p50 and p99 of the counted samples
// (the smallest bucket holding at least q% of them), each reported as its
// bucket's latPoint; both are zero when nothing was counted.
func (h *latHist) percentiles() (p50, p99 time.Duration) {
	var n uint64
	for _, c := range h {
		n += c
	}
	if n == 0 {
		return 0, 0
	}
	r50, r99 := (50*n+99)/100, (99*n+99)/100
	var cum uint64
	for i, c := range h {
		cum += c
		if p50 == 0 && cum >= r50 {
			p50 = latPoint(i)
		}
		if cum >= r99 {
			p99 = latPoint(i)
			break
		}
	}
	return p50, p99
}
