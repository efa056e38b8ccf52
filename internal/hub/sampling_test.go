package hub_test

import (
	"math/rand"
	"slices"
	"testing"
	"time"

	"github.com/causaliot/causaliot/internal/faults"
	"github.com/causaliot/causaliot/internal/hub"
)

// clockProc advances a fake clock by a scripted service time inside each
// Handle, so the hub's sampled reading of the call sees exactly that time.
type clockProc struct {
	clk   *faults.Clock
	steps []time.Duration
	next  int
}

func (p *clockProc) Handle(hub.Event) (bool, error) {
	p.clk.Advance(p.steps[p.next])
	p.next++
	return false, nil
}

// serviceTimes draws n service times, each within 1% of its mode: near 1ms
// for the events slow picks, near 2µs for the rest.
func serviceTimes(rng *rand.Rand, n int, slow func(i int) bool) []time.Duration {
	near := func(d time.Duration) time.Duration {
		return d + time.Duration((rng.Float64()*2-1)*float64(d)/100)
	}
	out := make([]time.Duration, n)
	for i := range out {
		out[i] = near(2 * time.Microsecond)
		if slow(i) {
			out[i] = near(time.Millisecond)
		}
	}
	return out
}

// exactPercentiles returns the nearest-rank p50 and p99 of ds.
func exactPercentiles(ds []time.Duration) (p50, p99 time.Duration) {
	s := slices.Clone(ds)
	slices.Sort(s)
	rank := func(q int) time.Duration { return s[(q*len(s)+99)/100-1] }
	return rank(50), rank(99)
}

// TestSampledLatencyTracksExact serves known service-time distributions
// through a hub whose Clock is a fake the processor advances inside Handle.
// Each of three tenants serves LatSampleEvery×512 events, so its 512-sample
// window spans its whole stream; the sampled tenant and Total p50/p99 must
// land within one bucket of the exact percentiles of every event served. A
// tenant that served a single event reads that event's service time.
//
//   - iid: 4% of the events, drawn at random, are slow. The share is 4%,
//     not just above 1%, because p99 over 512 samples rests on the ~5
//     slowest: it reads the slow mode only when at least 6 of the 512 are
//     slow, which a 2% tail misses about one draw in seven and a 4% tail
//     about one in ten thousand.
//   - slow-early: the slow draws (8%) fall in the first half of the
//     stream only, so a window of the most recent events would miss them.
//   - batch-phase: every 64th event is slow, as the first event of a full
//     batch is when it pays the batch's cache misses; a sampler that timed
//     every 64th event would read them all as slow.
func TestSampledLatencyTracksExact(t *testing.T) {
	clk := faults.NewClock(time.Date(2026, 8, 1, 0, 0, 0, 0, time.UTC))
	// One worker: Handle calls never overlap, so no tenant's reading spans
	// another tenant's clock advance.
	h := hub.New(hub.Config{Workers: 1, QueueSize: 4096, LatencySamples: 512, Clock: clk.Now})
	const events = hub.LatSampleEvery * 512
	rng := rand.New(rand.NewSource(26))
	procs := map[string]*clockProc{
		"iid": {clk: clk, steps: serviceTimes(rng, events, func(int) bool { return rng.Float64() < 0.04 })},
		"slow-early": {clk: clk, steps: serviceTimes(rng, events, func(i int) bool {
			return i < events/2 && rng.Float64() < 0.08
		})},
		"batch-phase": {clk: clk, steps: serviceTimes(rng, events, func(i int) bool { return i%hub.LatSampleEvery == 0 })},
		"single-shot": {clk: clk, steps: []time.Duration{3 * time.Microsecond}},
	}
	var all []time.Duration
	for name, p := range procs {
		if err := h.Register(name, p, hub.TenantConfig{}); err != nil {
			t.Fatal(err)
		}
		all = append(all, p.steps...)
	}
	for name, p := range procs {
		evs := make([]hub.Event, len(p.steps))
		if _, err := h.SubmitBatch(name, evs); err != nil {
			t.Fatal(err)
		}
	}
	if err := h.Close(); err != nil {
		t.Fatal(err)
	}

	sameBucket := func(what string, got, want time.Duration) {
		t.Helper()
		if d := hub.LatBucket(got) - hub.LatBucket(want); d < -1 || d > 1 {
			t.Errorf("%s = %v, exact %v: %d buckets apart, want at most 1", what, got, want, d)
		}
	}
	s := h.Stats()
	for _, ts := range s.Tenants {
		p := procs[ts.Tenant]
		if ts.Processed != uint64(len(p.steps)) {
			t.Fatalf("%s processed %d of %d events", ts.Tenant, ts.Processed, len(p.steps))
		}
		if ts.P50 <= 0 {
			t.Errorf("%s p50 = %v after serving %d events, want > 0", ts.Tenant, ts.P50, ts.Processed)
		}
		want50, want99 := exactPercentiles(p.steps)
		sameBucket(ts.Tenant+" p50", ts.P50, want50)
		sameBucket(ts.Tenant+" p99", ts.P99, want99)
	}
	want50, want99 := exactPercentiles(all)
	sameBucket("total p50", s.Total.P50, want50)
	sameBucket("total p99", s.Total.P99, want99)
	if want99 < 500*time.Microsecond {
		t.Fatalf("exact p99 %v: the distribution's slow tail is under 1%%, so p99 checks nothing", want99)
	}
}
