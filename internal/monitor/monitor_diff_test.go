package monitor

import (
	"math/rand"
	"reflect"
	"testing"

	"github.com/causaliot/causaliot/internal/dig"
	"github.com/causaliot/causaliot/internal/timeseries"
)

// compareStep drives both detectors with the same step and fails unless
// they produce identical results (scores compared bit-identically through
// reflect.DeepEqual's float ==) and identical window states.
func compareStep(t *testing.T, fast *Detector, ref *refDetector, step timeseries.Step, i int) {
	t.Helper()
	fastRes, fastErr := fast.ProcessStep(step)
	refRes, refErr := ref.ProcessStep(step)
	if (fastErr == nil) != (refErr == nil) {
		t.Fatalf("step %d: fast err %v, reference err %v", i, fastErr, refErr)
	}
	if fastErr != nil {
		return
	}
	if !reflect.DeepEqual(fastRes, refRes) {
		t.Fatalf("step %d: fast result %+v, reference %+v", i, fastRes, refRes)
	}
	if fast.Pending() != ref.chain.Pending() {
		t.Fatalf("step %d: fast pending %d, reference %d", i, fast.Pending(), ref.chain.Pending())
	}
	if fast.Tau() != ref.tau {
		t.Fatalf("step %d: fast tau %d, reference %d", i, fast.Tau(), ref.tau)
	}
	for lag := 0; lag <= fast.Tau(); lag++ {
		for dev := 0; dev < 2; dev++ {
			rv, err := ref.value(dig.Node{Device: dev, Lag: lag})
			if err != nil {
				t.Fatal(err)
			}
			if fv := fast.Window().At(dev, lag); fv != rv {
				t.Fatalf("step %d: window(%d,%d) fast %d, reference %d", i, dev, lag, fv, rv)
			}
		}
	}
}

// TestDetectorDifferential holds the compiled ring-buffer detector
// bit-identical to the reference clone-window detector over a random stream
// with injected anomalies, duplicates, invalid events, and two mid-stream
// hot-swaps (growing and shrinking tau).
func TestDetectorDifferential(t *testing.T) {
	g, series := fittedChainGraph(t)
	thr, err := Threshold(g, series, 95)
	if err != nil {
		t.Fatal(err)
	}
	fast, err := NewDetector(g, thr, 3, timeseries.State{0, 0})
	if err != nil {
		t.Fatal(err)
	}
	ref := newRefDetector(t, g, thr, 3, timeseries.State{0, 0})

	// g2 adds deeper lags and a self-cause: a cause of another device at
	// lag 1 always reads the same at lag 0, so only these make an
	// off-by-one lag in either gather visible.
	g2, err := dig.New(g.Registry, 4, [][]dig.Node{
		{{Device: 1, Lag: 2}},
		{{Device: 0, Lag: 1}, {Device: 1, Lag: 1}, {Device: 0, Lag: 3}},
	}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := g2.Fit(series); err != nil {
		t.Fatal(err)
	}
	g3, err := dig.New(g.Registry, 1, [][]dig.Node{{}, {{Device: 0, Lag: 1}}}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := g3.Fit(series); err != nil {
		t.Fatal(err)
	}

	rng := rand.New(rand.NewSource(99))
	cause := 0
	for i := 0; i < 600; i++ {
		switch i {
		case 200: // grow tau mid-stream
			if err := fast.Swap(g2, 0.6, 2); err != nil {
				t.Fatal(err)
			}
			if err := ref.Swap(g2, 0.6, 2); err != nil {
				t.Fatal(err)
			}
		case 400: // shrink tau mid-stream
			if err := fast.Swap(g3, thr, 3); err != nil {
				t.Fatal(err)
			}
			if err := ref.Swap(g3, thr, 3); err != nil {
				t.Fatal(err)
			}
		}
		var step timeseries.Step
		switch r := rng.Float64(); {
		case r < 0.05:
			step = timeseries.Step{Device: 3, Value: 1} // out of range: both must error
		case i%2 == 0:
			cause = rng.Intn(2)
			step = timeseries.Step{Device: 0, Value: cause}
		default:
			v := cause
			if rng.Float64() < 0.15 { // inject anomalies so chains form and alarm
				v = 1 - v
			}
			step = timeseries.Step{Device: 1, Value: v}
		}
		compareStep(t, fast, ref, step, i)
	}
	if !reflect.DeepEqual(fast.Flush(), ref.chain.Flush()) {
		t.Error("Flush diverged between compiled and reference detectors")
	}
}

// TestDetectorDifferentialNoSkip repeats the differential run with duplicate
// skipping disabled, exercising the duplicate-heavy scoring branch.
func TestDetectorDifferentialNoSkip(t *testing.T) {
	g, series := fittedChainGraph(t)
	thr, err := Threshold(g, series, 90)
	if err != nil {
		t.Fatal(err)
	}
	fast, err := NewDetector(g, thr, 2, timeseries.State{0, 0})
	if err != nil {
		t.Fatal(err)
	}
	ref := newRefDetector(t, g, thr, 2, timeseries.State{0, 0})
	fast.SkipDuplicates = false
	ref.chain.SkipDuplicates = false
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 400; i++ {
		step := timeseries.Step{Device: rng.Intn(2), Value: rng.Intn(2)}
		compareStep(t, fast, ref, step, i)
	}
}

func TestNewDetectorRejectsNonBinaryInitial(t *testing.T) {
	g, _ := fittedChainGraph(t)
	if _, err := NewDetector(g, 0.5, 1, timeseries.State{0, 2}); err == nil {
		t.Error("non-binary initial state accepted on the compiled path")
	}
}

// TestProcessStepZeroAllocs is the tentpole's allocation regression guard:
// a steady-state ProcessStep (no duplicate, no chain membership, no alarm)
// on the compiled ring-buffer path must not allocate.
func TestProcessStepZeroAllocs(t *testing.T) {
	g, _ := fittedChainGraph(t)
	// Threshold 1 keeps every event non-anomalous (smoothing keeps scores
	// strictly below 1), so no event ever joins a chain.
	d, err := NewDetector(g, 1, 4, timeseries.State{0, 0})
	if err != nil {
		t.Fatal(err)
	}
	steps := []timeseries.Step{
		{Device: 0, Value: 1},
		{Device: 1, Value: 1},
		{Device: 0, Value: 0},
		{Device: 1, Value: 0},
	}
	i := 0
	allocs := testing.AllocsPerRun(2000, func() {
		res, err := d.ProcessStep(steps[i%len(steps)])
		if err != nil {
			t.Fatal(err)
		}
		if res.Duplicate || res.Alarm != nil {
			t.Fatalf("stream not steady-state at %d: %+v", i, res)
		}
		i++
	})
	if allocs != 0 {
		t.Errorf("steady-state ProcessStep allocates %.1f allocs/op, want 0", allocs)
	}
	// The duplicate-skip branch must not allocate either.
	allocs = testing.AllocsPerRun(1000, func() {
		res, err := d.ProcessStep(timeseries.Step{Device: 0, Value: d.Window().At(0, 0)})
		if err != nil {
			t.Fatal(err)
		}
		if !res.Duplicate {
			t.Fatal("expected duplicate")
		}
	})
	if allocs != 0 {
		t.Errorf("duplicate-skip ProcessStep allocates %.1f allocs/op, want 0", allocs)
	}
}

// TestTrainingScoresParallelMatchesSerial holds the parallel threshold
// calculator bit-identical to the serial reference loop.
func TestTrainingScoresParallelMatchesSerial(t *testing.T) {
	g, series := fittedChainGraph(t) // 4000 anchors: above the parallel cutover
	serial, err := TrainingScoresWorkers(g, series, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 3, 8, 0} {
		parallel, err := TrainingScoresWorkers(g, series, workers)
		if err != nil {
			t.Fatal(err)
		}
		if len(parallel) != len(serial) {
			t.Fatalf("workers=%d: %d scores, serial %d", workers, len(parallel), len(serial))
		}
		for i := range serial {
			if parallel[i] != serial[i] {
				t.Fatalf("workers=%d: score[%d] = %v, serial %v (not bit-identical)",
					workers, i, parallel[i], serial[i])
			}
		}
	}
	// Exact preallocation: length must equal anchors with no spare capacity.
	if cap(serial) != len(serial) {
		t.Errorf("scores cap %d != len %d", cap(serial), len(serial))
	}
}
