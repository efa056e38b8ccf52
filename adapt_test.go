package causaliot

import (
	"bytes"
	"math"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"github.com/causaliot/causaliot/internal/sim"
)

// driftedLog synthesizes the same home as trainingLog after a behavior
// change: presence activation is now followed by the light staying OFF and
// the light turns on while the room is empty — the trained
// presence→light CPT is inverted.
func driftedLog(n int, seed int64) []Event {
	rng := rand.New(rand.NewSource(seed))
	var log []Event
	ts := t0.Add(240 * time.Hour)
	for i := 0; i < n; i++ {
		ts = ts.Add(time.Duration(20+rng.Intn(20)) * time.Second)
		log = append(log, Event{Time: ts, Device: "presence", Value: 1})
		ts = ts.Add(time.Duration(60+rng.Intn(60)) * time.Second)
		log = append(log, Event{Time: ts, Device: "presence", Value: 0})
		ts = ts.Add(4 * time.Second)
		log = append(log, Event{Time: ts, Device: "light", Value: 1})
		ts = ts.Add(time.Duration(30+rng.Intn(30)) * time.Second)
		log = append(log, Event{Time: ts, Device: "light", Value: 0})
		if rng.Float64() < 0.3 {
			ts = ts.Add(10 * time.Second)
			log = append(log, Event{Time: ts, Device: "meter", Value: float64(rng.Intn(2)) * 30})
		}
	}
	return log
}

func mustAdaptiveMonitor(t *testing.T, sys *System, cfg AdaptConfig) *Monitor {
	t.Helper()
	mon, err := sys.NewMonitor()
	if err != nil {
		t.Fatal(err)
	}
	if err := mon.EnableAdaptive(cfg); err != nil {
		t.Fatal(err)
	}
	return mon
}

func TestEnableAdaptiveValidation(t *testing.T) {
	sys := mustTrain(t, Config{Tau: 2})
	mon := mustAdaptiveMonitor(t, sys, AdaptConfig{})
	if err := mon.EnableAdaptive(AdaptConfig{}); err == nil {
		t.Error("double enable accepted")
	}
	if !mon.Adaptive() {
		t.Error("Adaptive() false after enable")
	}
	bad := []AdaptConfig{
		{ScanEvery: -1},
		{DriftAlpha: 2},
		{DriftAlpha: math.NaN()},
		{MinEvidence: -1},
		{RefitWindow: maxRefitWindow + 1},
		{RefitWindow: -1},
		{StructuralFraction: math.NaN()},
	}
	for i, cfg := range bad {
		m2, err := sys.NewMonitor()
		if err != nil {
			t.Fatal(err)
		}
		if err := m2.EnableAdaptive(cfg); err == nil {
			t.Errorf("bad config %d accepted: %+v", i, cfg)
		}
	}
}

// TestAdaptiveObserveZeroAlloc enforces the acceptance criterion:
// steady-state evidence accumulation adds 0 allocs/op to the observation
// hot path. Alarms may allocate on either path, so the test measures a
// plain monitor and an adaptive monitor over the same stream and requires
// the difference to be zero.
func TestAdaptiveObserveZeroAlloc(t *testing.T) {
	sys := mustTrain(t, Config{Tau: 2})

	measure := func(mon *Monitor) float64 {
		// Warm the sliding ring past capacity so eviction (the steady
		// state) is what gets measured.
		for _, e := range trainingLog(40, 3) {
			if _, err := mon.ObserveEvent(e); err != nil {
				t.Fatal(err)
			}
		}
		stream := trainingLog(50, 4)
		i := 0
		return testing.AllocsPerRun(500, func() {
			e := stream[i%len(stream)]
			i++
			if _, err := mon.ObserveEvent(e); err != nil {
				t.Fatal(err)
			}
		})
	}

	plain, err := sys.NewMonitor()
	if err != nil {
		t.Fatal(err)
	}
	base := measure(plain)

	adapt := mustAdaptiveMonitor(t, sys, AdaptConfig{ScanEvery: 1 << 30, RefitWindow: 64})
	got := measure(adapt)

	if got != base {
		t.Fatalf("adaptive ObserveEvent allocates %v per op, plain path %v: accumulation is not allocation-free", got, base)
	}
	st, _ := adapt.LifecycleStats()
	if st.Folded == 0 {
		t.Fatal("adaptive monitor folded no evidence; measurement was vacuous")
	}
}

// TestAdaptiveDriftTriggersSynchronousRefresh drives a drifted stream
// through a synchronous adaptive monitor and checks the full loop: drift
// detected, model refreshed from the sliding log, hot-swapped, evidence
// rebound.
func TestAdaptiveDriftTriggersSynchronousRefresh(t *testing.T) {
	sys := mustTrain(t, Config{Tau: 2})
	mon := mustAdaptiveMonitor(t, sys, AdaptConfig{
		ScanEvery:          400,
		MinEvidence:        256,
		RefitWindow:        4096,
		StructuralFraction: 2, // never re-mine: deterministic fast path
		Synchronous:        true,
	})
	for _, e := range driftedLog(400, 5) {
		if _, err := mon.ObserveEvent(e); err != nil {
			t.Fatal(err)
		}
	}
	st, ok := mon.LifecycleStats()
	if !ok {
		t.Fatal("lifecycle stats unavailable")
	}
	if st.Scans == 0 {
		t.Fatalf("no drift scan ran: %+v", st)
	}
	if st.DriftScans == 0 || st.Swaps == 0 || st.Refits == 0 {
		t.Fatalf("drifted stream did not trigger a refresh: %+v", st)
	}
	if st.Remines != 0 {
		t.Fatalf("structural fraction 2 re-mined anyway: %+v", st)
	}
	if st.RefreshErrors != 0 {
		t.Fatalf("refresh errors: %+v", st)
	}
	// Post-swap evidence was rebound: folded restarted from the swap point.
	if st.Folded == 0 {
		t.Fatalf("no evidence after swap: %+v", st)
	}
}

// TestAdaptiveRefreshMatchesManualRefit: the automatic refresh must be
// bit-identical to the manual path — Refit over the same raw log, then
// scoring the same subsequent events.
func TestAdaptiveRefreshMatchesManualRefit(t *testing.T) {
	sys := mustTrain(t, Config{Tau: 2})

	phase1 := driftedLog(300, 6)
	phase2 := driftedLog(120, 8)

	// Count the events the monitor will accept (non-duplicate, validated)
	// so ScanEvery fires exactly on the last phase-1 event.
	shadow, err := sys.NewMonitor()
	if err != nil {
		t.Fatal(err)
	}
	accepted := 0
	for _, e := range phase1 {
		det, err := shadow.ObserveEvent(e)
		if err != nil {
			t.Fatal(err)
		}
		if !det.Duplicate {
			accepted++
		}
	}

	auto := mustAdaptiveMonitor(t, sys, AdaptConfig{
		ScanEvery:          accepted,
		MinEvidence:        1,
		MinObsPerDOF:       1,
		RefitWindow:        accepted,
		StructuralFraction: 2,
		Synchronous:        true,
	})
	var autoDets []Detection
	for _, e := range phase1 {
		if _, err := auto.ObserveEvent(e); err != nil {
			t.Fatal(err)
		}
	}
	st, _ := auto.LifecycleStats()
	if st.Swaps != 1 {
		t.Fatalf("expected exactly one swap after phase 1, got %+v", st)
	}
	for _, e := range phase2 {
		det, err := auto.ObserveEvent(e)
		if err != nil {
			t.Fatal(err)
		}
		autoDets = append(autoDets, det)
	}

	// Manual path: observe phase 1 on a plain monitor, Refit offline over
	// the same raw log, hot-swap by hand, then score phase 2.
	manual, err := sys.NewMonitor()
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range phase1 {
		if _, err := manual.ObserveEvent(e); err != nil {
			t.Fatal(err)
		}
	}
	retrained, err := sys.Refit(phase1)
	if err != nil {
		t.Fatal(err)
	}
	if err := manual.Swap(retrained); err != nil {
		t.Fatal(err)
	}
	var manualDets []Detection
	for _, e := range phase2 {
		det, err := manual.ObserveEvent(e)
		if err != nil {
			t.Fatal(err)
		}
		manualDets = append(manualDets, det)
	}

	if !reflect.DeepEqual(autoDets, manualDets) {
		for i := range autoDets {
			if !reflect.DeepEqual(autoDets[i], manualDets[i]) {
				t.Fatalf("post-swap detection %d diverges:\nauto:   %+v\nmanual: %+v", i, autoDets[i], manualDets[i])
			}
		}
		t.Fatal("post-swap detections diverge")
	}
}

// TestAdaptiveCheckpointRoundTrip: lifecycle state rides the checkpoint
// envelope, and a restored adaptive monitor continues bit-identically —
// including the drift scan firing at the same stream position.
func TestAdaptiveCheckpointRoundTrip(t *testing.T) {
	sys := mustTrain(t, Config{Tau: 2})
	cfg := AdaptConfig{
		ScanEvery:          350,
		MinEvidence:        64,
		MinObsPerDOF:       1,
		RefitWindow:        2048,
		StructuralFraction: 2,
		Synchronous:        true,
	}
	stream := driftedLog(400, 9)
	cut := 180

	orig := mustAdaptiveMonitor(t, sys, cfg)
	for _, e := range stream[:cut] {
		if _, err := orig.ObserveEvent(e); err != nil {
			t.Fatal(err)
		}
	}
	var buf bytes.Buffer
	if err := orig.WriteCheckpoint(&buf); err != nil {
		t.Fatal(err)
	}
	restored, err := sys.RestoreMonitor(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if !restored.Adaptive() {
		t.Fatal("restored monitor lost adaptive mode")
	}
	gotStats, _ := restored.LifecycleStats()
	wantStats, _ := orig.LifecycleStats()
	if gotStats != wantStats {
		t.Fatalf("restored lifecycle stats %+v, want %+v", gotStats, wantStats)
	}

	// Both monitors finish the stream; every detection and every lifecycle
	// counter must match.
	for i, e := range stream[cut:] {
		a, err := orig.ObserveEvent(e)
		if err != nil {
			t.Fatal(err)
		}
		b, err := restored.ObserveEvent(e)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("detection %d diverges after restore:\norig:     %+v\nrestored: %+v", i, a, b)
		}
	}
	gotStats, _ = restored.LifecycleStats()
	wantStats, _ = orig.LifecycleStats()
	if gotStats != wantStats {
		t.Fatalf("final lifecycle stats %+v, want %+v", gotStats, wantStats)
	}
	if wantStats.Swaps == 0 {
		t.Fatalf("stream never swapped — checkpoint cut did not exercise the interesting path: %+v", wantStats)
	}
}

func TestRestoreLifecycleRejectsCorruptEnvelopes(t *testing.T) {
	sys := mustTrain(t, Config{Tau: 2})
	mon := mustAdaptiveMonitor(t, sys, AdaptConfig{ScanEvery: 1 << 20, RefitWindow: 512})
	for _, e := range trainingLog(60, 11) {
		if _, err := mon.ObserveEvent(e); err != nil {
			t.Fatal(err)
		}
	}
	var buf bytes.Buffer
	if err := mon.WriteCheckpoint(&buf); err != nil {
		t.Fatal(err)
	}
	valid := buf.Bytes()

	corrupt := func(name, from, to string) {
		t.Helper()
		data := bytes.Replace(valid, []byte(from), []byte(to), 1)
		if bytes.Equal(data, valid) {
			t.Fatalf("%s: pattern %q not found in checkpoint", name, from)
		}
		if _, err := sys.RestoreMonitor(bytes.NewReader(data)); err == nil {
			t.Errorf("%s: corrupt lifecycle accepted", name)
		}
	}
	corrupt("folded-mismatch", `"folded"`, `"folded_"`)
	corrupt("missing-base", `"base"`, `"base_"`)

	// A checkpoint without the lifecycle block restores as non-adaptive.
	plain, err := sys.NewMonitor()
	if err != nil {
		t.Fatal(err)
	}
	var pbuf bytes.Buffer
	if err := plain.WriteCheckpoint(&pbuf); err != nil {
		t.Fatal(err)
	}
	if bytes.Contains(pbuf.Bytes(), []byte(`"lifecycle"`)) {
		t.Fatal("non-adaptive checkpoint grew a lifecycle block")
	}
	restored, err := sys.RestoreMonitor(bytes.NewReader(pbuf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if restored.Adaptive() {
		t.Fatal("non-adaptive checkpoint restored adaptive")
	}
}

func TestRefitAndRemineValidation(t *testing.T) {
	sys := mustTrain(t, Config{Tau: 2})
	if _, err := sys.Refit(nil); err == nil {
		t.Error("empty refit log accepted")
	}
	if _, err := sys.Remine(trainingLog(1, 1)[:1]); err == nil {
		t.Error("too-short remine log accepted")
	}
	fresh, err := sys.Refit(trainingLog(200, 21))
	if err != nil {
		t.Fatal(err)
	}
	if fresh == sys {
		t.Fatal("Refit returned the receiver")
	}
	if got, want := len(fresh.Interactions()), len(sys.Interactions()); got != want {
		t.Fatalf("refit changed structure: %d interactions, want %d", got, want)
	}
	if fresh.Threshold() <= 0 || fresh.Threshold() > 1 {
		t.Fatalf("refit threshold %v", fresh.Threshold())
	}
}

// simHome trains a System on four simulated days of the ContextAct-like
// testbed (KMax 3) and returns it with the facade events it was trained on.
func simHome(tb testing.TB, seed int64) (*System, []Event) {
	tb.Helper()
	bed := sim.ContextActLike()
	s, err := sim.NewSimulator(bed, sim.Config{Seed: seed, Days: 4})
	if err != nil {
		tb.Fatal(err)
	}
	log, err := s.Run()
	if err != nil {
		tb.Fatal(err)
	}
	devices := make([]Device, len(bed.Devices))
	for i, d := range bed.Devices {
		typ, err := typeOfAttribute(d.Attribute)
		if err != nil {
			tb.Fatal(err)
		}
		devices[i] = Device{Name: d.Name, Type: typ, Location: d.Location}
	}
	events := make([]Event, len(log))
	for i, ev := range log {
		events[i] = Event{Time: ev.Timestamp, Device: ev.Device, Value: ev.Value}
	}
	sys, err := Train(devices, events, Config{KMax: 3})
	if err != nil {
		tb.Fatal(err)
	}
	return sys, events
}

// BenchmarkRefresh times the two lifecycle refresh paths over the same
// 8192-event sliding log: the counts-only refit against the full
// structural re-mine it replaces when drift is not structural.
func BenchmarkRefresh(b *testing.B) {
	sys, events := simHome(b, 7)
	window := events[:min(len(events), 8192)]
	for _, tc := range []struct {
		name    string
		refresh func([]Event) (*System, error)
	}{
		{"refit", sys.Refit},
		{"remine", sys.Remine},
	} {
		b.Run(tc.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := tc.refresh(window); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
