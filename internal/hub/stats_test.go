package hub

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"sync"
	"testing"
	"time"
)

// TestLatencyBucketMath pins the bucket mapping: the index is monotone in
// the duration, each bucket's reported point (its midpoint) is within 1/32
// of every duration mapped to it from 1 ns to the clamp, and durations past
// the clamp land in the last bucket.
func TestLatencyBucketMath(t *testing.T) {
	var ds []time.Duration
	for d := time.Duration(1); d <= 4096; d++ {
		ds = append(ds, d)
	}
	// Every sub-bucket edge of every power of two, and its neighbours.
	for e := 5; e < latMaxBits; e++ {
		for k := uint64(0); k < latSub; k++ {
			edge := time.Duration((latSub + k) << uint(e-latSubBits))
			ds = append(ds, edge-1, edge, edge+1)
		}
	}
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 100000; i++ {
		ds = append(ds, time.Duration(rng.Int63n(latMax)+1))
	}
	ds = append(ds, latMax)
	sort.Slice(ds, func(i, j int) bool { return ds[i] < ds[j] })

	prev := -1
	for _, d := range ds {
		b := latBucket(d)
		if b < prev {
			t.Fatalf("latBucket(%d) = %d < %d for a shorter duration", d, b, prev)
		}
		prev = b
		if b < 0 || b >= latBuckets {
			t.Fatalf("latBucket(%d) = %d out of [0, %d)", d, b, latBuckets)
		}
		if p := latPoint(b); math.Abs(float64(p-d)) > float64(d)/32 {
			t.Fatalf("duration %d reports as %d: more than 1/32 off", d, p)
		}
	}
	if latBucket(latMax) != latBuckets-1 {
		t.Errorf("clamp %d maps to %d, want the last bucket %d", latMax, latBucket(latMax), latBuckets-1)
	}

	for _, c := range []struct {
		name string
		d    time.Duration
		want int
	}{
		{"zero reads as 1ns", 0, latBucket(1)},
		{"negative reads as 1ns", -5, latBucket(1)},
		{"just past the clamp", latMax + 1, latBuckets - 1},
		{"an hour", time.Hour, latBuckets - 1},
		{"max duration", math.MaxInt64, latBuckets - 1},
	} {
		if got := latBucket(c.d); got != c.want {
			t.Errorf("%s: latBucket(%d) = %d, want %d", c.name, c.d, got, c.want)
		}
		if latPoint(latBucket(c.d)) <= 0 {
			t.Errorf("%s: reported point %v, want > 0", c.name, latPoint(latBucket(c.d)))
		}
	}
}

// within reports whether got is within 1/16 of want.
func within(got, want time.Duration) bool {
	return math.Abs(float64(got-want)) <= float64(want)/16
}

// TestLatencyWindowPercentiles drives one tenant's window directly: the
// window forgets samples older than its size, and its percentiles are the
// nearest-rank order statistics of what it holds.
func TestLatencyWindowPercentiles(t *testing.T) {
	type run struct {
		d time.Duration
		n int
	}
	for _, c := range []struct {
		name     string
		size     int
		runs     []run
		p50, p99 time.Duration
	}{
		{"empty", 512, nil, 0, 0},
		{"one sample", 512, []run{{3 * time.Microsecond, 1}}, 3 * time.Microsecond, 3 * time.Microsecond},
		{"forgets slow after a full window of fast", 512,
			[]run{{10 * time.Millisecond, 512}, {time.Microsecond, 512}}, time.Microsecond, time.Microsecond},
		{"keeps the slow tail still in the window", 512,
			[]run{{10 * time.Millisecond, 512}, {time.Microsecond, 500}}, time.Microsecond, 10 * time.Millisecond},
		{"p99 at the nearest rank", 100,
			[]run{{time.Microsecond, 98}, {time.Millisecond, 2}}, time.Microsecond, time.Millisecond},
		{"p99 below the top 1%", 100,
			[]run{{time.Microsecond, 99}, {time.Millisecond, 1}}, time.Microsecond, time.Microsecond},
		{"window smaller than one run", 16,
			[]run{{time.Second, 1000}, {50 * time.Nanosecond, 15}}, 50 * time.Nanosecond, time.Second},
	} {
		t.Run(c.name, func(t *testing.T) {
			w := newLatencyWindow(c.size)
			recorded := 0
			for _, r := range c.runs {
				for i := 0; i < r.n; i++ {
					w.record(r.d)
				}
				recorded += r.n
			}
			var h latHist
			h.load(w)
			var n uint64
			for _, k := range h {
				n += k
			}
			if want := min(recorded, c.size); n != uint64(want) {
				t.Fatalf("window counts %d samples, want %d", n, want)
			}
			p50, p99 := h.percentiles()
			if c.p50 == 0 {
				if p50 != 0 || p99 != 0 {
					t.Fatalf("empty window reads p50=%v p99=%v, want 0", p50, p99)
				}
				return
			}
			if !within(p50, c.p50) || !within(p99, c.p99) {
				t.Fatalf("p50=%v p99=%v, want about %v and %v", p50, p99, c.p50, c.p99)
			}
		})
	}
}

// TestStatsTotalMergesTenants pins Total's percentiles to those of the
// merged bucket counts, not to the largest tenant percentile: a tenant
// with a slow tail does not set the total's p99 when it is a small share
// of the union.
func TestStatsTotalMergesTenants(t *testing.T) {
	type samples map[time.Duration]int
	for _, c := range []struct {
		name             string
		tenants          []samples
		total50, total99 time.Duration
	}{
		{"slow tail outweighed", []samples{{time.Microsecond: 200}, {time.Millisecond: 1}},
			time.Microsecond, time.Microsecond},
		{"slow tail past 1%", []samples{{time.Microsecond: 200}, {time.Millisecond: 3}},
			time.Microsecond, time.Millisecond},
		{"median from the larger tenant", []samples{{2 * time.Microsecond: 30}, {40 * time.Microsecond: 70}},
			40 * time.Microsecond, 40 * time.Microsecond},
		{"one empty tenant", []samples{{}, {5 * time.Microsecond: 10}},
			5 * time.Microsecond, 5 * time.Microsecond},
	} {
		t.Run(c.name, func(t *testing.T) {
			h := newHub(Config{})
			for i, ss := range c.tenants {
				name := fmt.Sprintf("home-%d", i)
				if err := h.Register(name, &keyedProc{}, TenantConfig{}); err != nil {
					t.Fatal(err)
				}
				tn, _ := h.lookup(name)
				for d, n := range ss {
					for j := 0; j < n; j++ {
						tn.lat.record(d)
					}
				}
			}
			s := h.Stats()
			if !within(s.Total.P50, c.total50) || !within(s.Total.P99, c.total99) {
				t.Fatalf("total p50=%v p99=%v, want about %v and %v", s.Total.P50, s.Total.P99, c.total50, c.total99)
			}
		})
	}
}

// TestStatsRacesRunBatch reads Stats and TenantStats while workers serve a
// busy stream (run under -race): the window's single writer and its
// lock-free readers never conflict, and every served event is counted.
func TestStatsRacesRunBatch(t *testing.T) {
	h := New(Config{Workers: 2, QueueSize: 64, BatchSize: 8, LatencySamples: 32})
	const tenants, events = 4, 2000
	for i := 0; i < tenants; i++ {
		if err := h.Register(fmt.Sprintf("home-%d", i), &recorder{}, TenantConfig{}); err != nil {
			t.Fatal(err)
		}
	}
	stop := make(chan struct{})
	var readers sync.WaitGroup
	readers.Add(1)
	go func() {
		defer readers.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			s := h.Stats()
			if s.Total.P50 > s.Total.P99 {
				t.Errorf("total p50 %v above p99 %v", s.Total.P50, s.Total.P99)
			}
			if _, err := h.TenantStats("home-0"); err != nil {
				t.Error(err)
			}
		}
	}()
	var producers sync.WaitGroup
	for i := 0; i < tenants; i++ {
		producers.Add(1)
		go func(name string) {
			defer producers.Done()
			for j := 0; j < events; j++ {
				if err := h.Submit(name, Event{Value: float64(j)}); err != nil {
					t.Error(err)
					return
				}
			}
		}(fmt.Sprintf("home-%d", i))
	}
	producers.Wait()
	if err := h.Close(); err != nil {
		t.Fatal(err)
	}
	close(stop)
	readers.Wait()
	s := h.Stats()
	if s.Total.Processed != tenants*events {
		t.Fatalf("processed %d, want %d", s.Total.Processed, tenants*events)
	}
	for _, ts := range s.Tenants {
		if ts.P50 <= 0 || ts.P99 < ts.P50 {
			t.Errorf("%s: p50=%v p99=%v", ts.Tenant, ts.P50, ts.P99)
		}
	}
}

// TestStatsAllocsFlat pins Stats' allocations to the tenant count: they
// grow neither with LatencySamples nor with the samples recorded.
func TestStatsAllocsFlat(t *testing.T) {
	measure := func(size, recorded int) float64 {
		h := newHub(Config{LatencySamples: size})
		for i := 0; i < 8; i++ {
			name := fmt.Sprintf("home-%d", i)
			if err := h.Register(name, &keyedProc{}, TenantConfig{}); err != nil {
				t.Fatal(err)
			}
			tn, _ := h.lookup(name)
			for j := 0; j < recorded; j++ {
				tn.lat.record(time.Duration(j%1000+1) * time.Microsecond)
			}
		}
		return testing.AllocsPerRun(50, func() { h.Stats() })
	}
	base := measure(16, 0)
	for _, c := range []struct{ size, recorded int }{{16, 16}, {4096, 0}, {4096, 4096}, {4096, 10000}} {
		if got := measure(c.size, c.recorded); got != base {
			t.Errorf("Stats with LatencySamples=%d and %d samples recorded: %.0f allocs, want %.0f as when empty",
				c.size, c.recorded, got, base)
		}
	}
}

// statsSink keeps BenchmarkHubStats' calls from being optimized away.
var statsSink Stats

// BenchmarkHubStats times one Stats call over 64 tenants with full latency
// windows.
func BenchmarkHubStats(b *testing.B) {
	h := newHub(Config{})
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 64; i++ {
		name := fmt.Sprintf("home-%02d", i)
		if err := h.Register(name, &keyedProc{}, TenantConfig{}); err != nil {
			b.Fatal(err)
		}
		tn, _ := h.lookup(name)
		for j := 0; j < h.cfg.LatencySamples; j++ {
			tn.lat.record(time.Duration(200 + rng.Intn(5000)))
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		statsSink = h.Stats()
	}
}
