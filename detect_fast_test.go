package causaliot

import (
	"fmt"
	"reflect"
	"testing"
	"time"

	"github.com/causaliot/causaliot/internal/monitor"
	"github.com/causaliot/causaliot/internal/timeseries"
)

// newReferenceMonitor wraps a detector compiled afresh from the system's
// graph (not sys.compiled, nor a model cache's compilation, so a stale
// compile shows) in a Monitor. Feed it through observeReference, not
// ObserveEvent: the reference path must also resolve names independently
// of the NameIndex and Unifier the production path uses. The detector
// itself is held to the clone-window reference by the monitor package's
// differential tests.
func newReferenceMonitor(t *testing.T, sys *System) *Monitor {
	t.Helper()
	det, err := monitor.NewDetector(sys.graph, sys.threshold, sys.cfg.KMax, sys.initial)
	if err != nil {
		t.Fatal(err)
	}
	return &Monitor{sys: sys, det: det}
}

// observeReference is ObserveEvent on the reference path: the registry's
// map lookup and the preprocessor's name-keyed UnifyValue resolve the event
// before the detector scores it.
func observeReference(m *Monitor, e Event) (Detection, error) {
	idx, ok := m.sys.graph.Registry.Index(e.Device)
	if !ok {
		return Detection{}, fmt.Errorf("%w %q", ErrUnknownDevice, e.Device)
	}
	state, err := m.sys.pre.UnifyValue(e.Device, e.Value)
	if err != nil {
		return Detection{}, err
	}
	res, err := m.det.ProcessStep(timeseries.Step{Device: idx, Value: state, Time: e.Time})
	if err != nil {
		return Detection{}, err
	}
	return Detection{
		Alarm:     m.convertAlarm(res.Alarm, e.Seq, res.Score),
		Score:     res.Score,
		State:     state,
		Duplicate: res.Duplicate,
	}, nil
}

// TestReferenceMonitorMatchesMonitor holds the serving path bit-identical
// to the reference path through the public API: the same raw event stream
// must produce identical detections, alarms (including rendered context
// labels), and flushes.
func TestReferenceMonitorMatchesMonitor(t *testing.T) {
	sys := mustTrain(t, Config{Tau: 2, KMax: 3})
	fast, err := sys.NewMonitor()
	if err != nil {
		t.Fatal(err)
	}
	ref := newReferenceMonitor(t, sys)
	stream := trainingLog(30, 7)
	// Splice in anomalies: ghost light activations without presence, an
	// unknown device, and a glitched reading.
	stream = append(stream,
		Event{Time: t0.Add(5 * time.Hour), Device: "light", Value: 1},
		Event{Time: t0.Add(5*time.Hour + time.Second), Device: "ghost", Value: 1},
		Event{Time: t0.Add(5*time.Hour + 2*time.Second), Device: "light", Value: 0},
		Event{Time: t0.Add(5*time.Hour + 3*time.Second), Device: "light", Value: 1},
	)
	for i, e := range stream {
		fd, fErr := fast.ObserveEvent(e)
		rd, rErr := observeReference(ref, e)
		if (fErr == nil) != (rErr == nil) {
			t.Fatalf("event %d: fast err %v, reference err %v", i, fErr, rErr)
		}
		if fErr != nil {
			continue
		}
		if !reflect.DeepEqual(fd, rd) {
			t.Fatalf("event %d: fast detection %+v, reference %+v", i, fd, rd)
		}
	}
	if fast.Pending() != ref.Pending() {
		t.Fatalf("pending diverged: fast %d, reference %d", fast.Pending(), ref.Pending())
	}
	if !reflect.DeepEqual(fast.Flush(), ref.Flush()) {
		t.Error("Flush diverged between compiled and reference monitors")
	}
}

// TestCauseLabelsPrerendered pins the precomputed context-label table to the
// fmt.Sprintf rendering it replaces, including the fallback for lags beyond
// the current graph's window.
func TestCauseLabelsPrerendered(t *testing.T) {
	sys := mustTrain(t, Config{Tau: 2})
	reg := sys.graph.Registry
	for dev := 0; dev < reg.Len(); dev++ {
		for lag := 1; lag <= sys.graph.Tau; lag++ {
			want := fmt.Sprintf("%s@t-%d", reg.Name(dev), lag)
			if got := sys.causeLabel(dev, lag); got != want {
				t.Errorf("causeLabel(%d,%d) = %q, want %q", dev, lag, got, want)
			}
		}
		// Lag beyond the table (chain event recorded before a shrinking
		// hot-swap) must still render.
		beyond := sys.graph.Tau + 3
		want := fmt.Sprintf("%s@t-%d", reg.Name(dev), beyond)
		if got := sys.causeLabel(dev, beyond); got != want {
			t.Errorf("causeLabel(%d,%d) fallback = %q, want %q", dev, beyond, got, want)
		}
	}
}

// TestExtendRecompiles guards the in-place CPT refit against stale compiled
// score tables: Extend must rebuild the compiled graph it hands to new
// monitors.
func TestExtendRecompiles(t *testing.T) {
	sys := mustTrain(t, Config{Tau: 2})
	before := sys.compiled
	if before == nil {
		t.Fatal("trained system lacks a compiled graph")
	}
	if err := sys.Extend(trainingLog(80, 5)); err != nil {
		t.Fatal(err)
	}
	if sys.compiled == before {
		t.Error("Extend left the stale compiled graph in place")
	}
	// New monitors on both paths must still agree after the refit.
	fast, err := sys.NewMonitor()
	if err != nil {
		t.Fatal(err)
	}
	ref := newReferenceMonitor(t, sys)
	for i, e := range trainingLog(10, 11) {
		fd, fErr := fast.ObserveEvent(e)
		rd, rErr := observeReference(ref, e)
		if (fErr == nil) != (rErr == nil) || !reflect.DeepEqual(fd, rd) {
			t.Fatalf("event %d diverged after Extend: %+v/%v vs %+v/%v", i, fd, fErr, rd, rErr)
		}
	}
}
