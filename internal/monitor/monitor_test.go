package monitor

import (
	"math/rand"
	"testing"

	"github.com/causaliot/causaliot/internal/dig"
	"github.com/causaliot/causaliot/internal/timeseries"
)

func mustRegistry(t *testing.T, names ...string) *timeseries.Registry {
	t.Helper()
	r, err := timeseries.NewRegistry(names)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// fittedChainGraph builds a DIG for a two-device system where device 1
// copies device 0 with small noise, fitted on simulated data.
func fittedChainGraph(t *testing.T) (*dig.Graph, *timeseries.Series) {
	t.Helper()
	reg := mustRegistry(t, "cause", "effect")
	rng := rand.New(rand.NewSource(42))
	var steps []timeseries.Step
	cause := 0
	for j := 0; j < 4000; j++ {
		if j%2 == 0 {
			cause = rng.Intn(2)
			steps = append(steps, timeseries.Step{Device: 0, Value: cause})
		} else {
			v := cause
			if rng.Float64() < 0.02 {
				v = 1 - v
			}
			steps = append(steps, timeseries.Step{Device: 1, Value: v})
		}
	}
	series, err := timeseries.FromSteps(reg, timeseries.State{0, 0}, steps)
	if err != nil {
		t.Fatal(err)
	}
	g, err := dig.New(reg, 2, [][]dig.Node{
		{},
		{{Device: 0, Lag: 1}},
	}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := g.Fit(series); err != nil {
		t.Fatal(err)
	}
	return g, series
}

func TestTrainingScoresAndThreshold(t *testing.T) {
	g, series := fittedChainGraph(t)
	scores, err := TrainingScores(g, series)
	if err != nil {
		t.Fatal(err)
	}
	if len(scores) != series.Len()-g.Tau+1 {
		t.Errorf("got %d scores, want %d", len(scores), series.Len()-g.Tau+1)
	}
	for i, s := range scores {
		if s < 0 || s > 1 {
			t.Fatalf("score[%d] = %v outside [0,1]", i, s)
		}
	}
	c, err := Threshold(g, series, 99)
	if err != nil {
		t.Fatal(err)
	}
	if c <= 0 || c > 1 {
		t.Errorf("threshold = %v", c)
	}
	// A lower quantile must give a lower (or equal) threshold.
	c50, err := Threshold(g, series, 50)
	if err != nil {
		t.Fatal(err)
	}
	if c50 > c {
		t.Errorf("50th percentile %v > 99th percentile %v", c50, c)
	}
}

func TestTrainingScoresValidation(t *testing.T) {
	g, _ := fittedChainGraph(t)
	other := mustRegistry(t, "cause", "effect")
	s, _ := timeseries.FromSteps(other, timeseries.State{0, 0}, []timeseries.Step{{Device: 0, Value: 1}})
	if _, err := TrainingScores(g, s); err == nil {
		t.Error("registry mismatch accepted")
	}
}

func TestDetectorContextualAnomaly(t *testing.T) {
	g, _ := fittedChainGraph(t)
	d, err := NewDetector(g, 0.5, 1, timeseries.State{0, 0})
	if err != nil {
		t.Fatal(err)
	}
	// Normal execution: cause on, then effect on (follows the
	// interaction) — no alarm for the effect.
	// The cause device has an empty parent set; its score is data-dependent.
	if _, err := d.ProcessStep(timeseries.Step{Device: 0, Value: 1}); err != nil {
		t.Fatal(err)
	}
	d2, err := NewDetector(g, 0.5, 1, timeseries.State{1, 0})
	if err != nil {
		t.Fatal(err)
	}
	res, err := d2.ProcessStep(timeseries.Step{Device: 1, Value: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Alarm != nil {
		t.Errorf("legitimate effect event raised an alarm (score %v)", res.Score)
	}
	// Violating execution: cause off, effect turns on out of nowhere.
	d3, err := NewDetector(g, 0.5, 1, timeseries.State{0, 0})
	if err != nil {
		t.Fatal(err)
	}
	res, err = d3.ProcessStep(timeseries.Step{Device: 1, Value: 1})
	if err != nil {
		t.Fatal(err)
	}
	alarm := res.Alarm
	if alarm == nil {
		t.Fatalf("ghost actuation not detected (score %v)", res.Score)
	}
	if len(alarm.Events) != 1 || alarm.Abrupt {
		t.Errorf("alarm = %+v, want single contextual event", alarm)
	}
	if alarm.Collective() {
		t.Error("single-event alarm reported collective")
	}
	ev := alarm.Events[0]
	if len(ev.Causes) != 1 || ev.Causes[0] != (dig.Node{Device: 0, Lag: 1}) || ev.CauseValues[0] != 0 {
		t.Errorf("anomaly context = %+v", ev)
	}
}

func TestDetectorCollectiveChain(t *testing.T) {
	g, _ := fittedChainGraph(t)
	d, err := NewDetector(g, 0.5, 2, timeseries.State{0, 0})
	if err != nil {
		t.Fatal(err)
	}
	// Seed: ghost cause activation... the cause device has no parents, so
	// craft the chain through the effect: effect turns on with cause off
	// (contextual anomaly), then the cause follows — no wait, the cause
	// has an empty parent set. Use the effect as seed and a following
	// low-score event: after the seed, turn the cause on (score for a
	// parentless device is 1 - P(value), may or may not be low), then the
	// effect's next event follows the interaction.
	res, err := d.ProcessStep(timeseries.Step{Device: 1, Value: 1}) // contextual seed
	if err != nil {
		t.Fatal(err)
	}
	if res.Alarm != nil {
		t.Fatalf("seed should start tracking, not alarm (kmax=2): %+v", res.Alarm)
	}
	if d.Pending() != 1 {
		t.Fatalf("Pending = %d, want 1", d.Pending())
	}
	// Next: cause switches on. Its empty-parent likelihood is the
	// marginal P(cause=1) ≈ 0.5, score ≈ 0.5 < 0.5? Borderline — use the
	// effect flipping off with cause off: P(effect=0 | cause=0) is high,
	// so score is low and the event joins the chain.
	res, err = d.ProcessStep(timeseries.Step{Device: 1, Value: 0})
	if err != nil {
		t.Fatal(err)
	}
	alarm := res.Alarm
	if alarm == nil {
		t.Fatal("chain of length kmax=2 should raise an alarm")
	}
	if !alarm.Collective() || len(alarm.Events) != 2 || alarm.Abrupt {
		t.Errorf("alarm = %+v", alarm)
	}
	if d.Pending() != 0 {
		t.Errorf("Pending after alarm = %d", d.Pending())
	}
}

func TestDetectorAbruptEventInterruptsTracking(t *testing.T) {
	g, _ := fittedChainGraph(t)
	d, err := NewDetector(g, 0.5, 3, timeseries.State{0, 0})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.ProcessStep(timeseries.Step{Device: 1, Value: 1}); err != nil { // seed
		t.Fatal(err)
	}
	if d.Pending() != 1 {
		t.Fatalf("Pending = %d, want 1", d.Pending())
	}
	// Abrupt second anomaly: effect flips on again is a duplicate, so
	// flip it off and on... instead use: effect off (joins chain, low
	// score), then effect on again with cause still off (high score ->
	// abrupt).
	if _, err := d.ProcessStep(timeseries.Step{Device: 1, Value: 0}); err != nil {
		t.Fatal(err)
	}
	if d.Pending() != 2 {
		t.Fatalf("Pending = %d, want 2", d.Pending())
	}
	res, err := d.ProcessStep(timeseries.Step{Device: 1, Value: 1})
	if err != nil {
		t.Fatal(err)
	}
	alarm := res.Alarm
	if alarm == nil {
		t.Fatal("abrupt event should flush the chain")
	}
	if !alarm.Abrupt || len(alarm.Events) != 2 {
		t.Errorf("alarm = %+v, want abrupt with 2 events", alarm)
	}
}

func TestDetectorSkipsDuplicates(t *testing.T) {
	g, _ := fittedChainGraph(t)
	d, err := NewDetector(g, 0.5, 1, timeseries.State{0, 0})
	if err != nil {
		t.Fatal(err)
	}
	// Device 1 reporting 0 while already 0 is a duplicate.
	res, err := d.ProcessStep(timeseries.Step{Device: 1, Value: 0})
	if err != nil {
		t.Fatal(err)
	}
	if res.Alarm != nil || res.Score != 0 {
		t.Errorf("duplicate produced alarm=%v score=%v", res.Alarm, res.Score)
	}
	// With SkipDuplicates disabled the event is scored.
	d.SkipDuplicates = false
	res, err = d.ProcessStep(timeseries.Step{Device: 1, Value: 0})
	if err != nil {
		t.Fatal(err)
	}
	if res.Score == 0 {
		t.Log("score for duplicate with SkipDuplicates=false:", res.Score)
	}
}

func TestDetectorFlush(t *testing.T) {
	g, _ := fittedChainGraph(t)
	d, _ := NewDetector(g, 0.5, 3, timeseries.State{0, 0})
	if a := d.Flush(); a != nil {
		t.Error("Flush of empty detector returned alarm")
	}
	if _, err := d.ProcessStep(timeseries.Step{Device: 1, Value: 1}); err != nil {
		t.Fatal(err)
	}
	a := d.Flush()
	if a == nil || len(a.Events) != 1 || !a.Abrupt {
		t.Errorf("Flush = %+v", a)
	}
	if d.Pending() != 0 {
		t.Error("Flush did not reset W")
	}
}

func TestNewDetectorValidation(t *testing.T) {
	g, _ := fittedChainGraph(t)
	if _, err := NewDetector(nil, 0.5, 1, timeseries.State{0, 0}); err == nil {
		t.Error("nil graph accepted")
	}
	if _, err := NewDetector(g, -0.1, 1, timeseries.State{0, 0}); err == nil {
		t.Error("negative threshold accepted")
	}
	if _, err := NewDetector(g, 1.1, 1, timeseries.State{0, 0}); err == nil {
		t.Error("threshold > 1 accepted")
	}
	if _, err := NewDetector(g, 0.5, 0, timeseries.State{0, 0}); err == nil {
		t.Error("kmax 0 accepted")
	}
	if _, err := NewDetector(g, 0.5, 1, timeseries.State{0}); err == nil {
		t.Error("mis-shaped initial state accepted")
	}
	d, err := NewDetector(g, 0.5, 1, timeseries.State{0, 0})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.ProcessStep(timeseries.Step{Device: 5, Value: 0}); err == nil {
		t.Error("out-of-range device accepted")
	}
	if _, err := d.ProcessStep(timeseries.Step{Device: 0, Value: 7}); err == nil {
		t.Error("non-binary value accepted")
	}
}

func TestAffectedDevices(t *testing.T) {
	reg := mustRegistry(t, "a", "b", "c", "d")
	g, err := dig.New(reg, 1, [][]dig.Node{
		{},                    // a
		{{Device: 0, Lag: 1}}, // b <- a
		{{Device: 1, Lag: 1}}, // c <- b
		{},                    // d isolated
	}, 0)
	if err != nil {
		t.Fatal(err)
	}
	alarm := &Alarm{Events: []AnomalousEvent{{Step: timeseries.Step{Device: 0, Value: 1}}}}
	got := AffectedDevices(g, alarm)
	want := []int{0, 1, 2}
	if len(got) != len(want) {
		t.Fatalf("AffectedDevices = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("AffectedDevices = %v, want %v", got, want)
		}
	}
	if AffectedDevices(nil, alarm) != nil || AffectedDevices(g, nil) != nil {
		t.Error("nil inputs should yield nil")
	}
	// An isolated alarmed device affects only itself.
	isolated := &Alarm{Events: []AnomalousEvent{{Step: timeseries.Step{Device: 3, Value: 1}}}}
	if got := AffectedDevices(g, isolated); len(got) != 1 || got[0] != 3 {
		t.Errorf("isolated AffectedDevices = %v", got)
	}
}

func TestProcessStepReportsDuplicates(t *testing.T) {
	g, _ := fittedChainGraph(t)
	d, err := NewDetector(g, 0.5, 1, timeseries.State{0, 0})
	if err != nil {
		t.Fatal(err)
	}
	res, err := d.ProcessStep(timeseries.Step{Device: 0, Value: 0}) // already 0
	if err != nil {
		t.Fatal(err)
	}
	if !res.Duplicate || res.Score != 0 || res.Alarm != nil {
		t.Errorf("duplicate result = %+v", res)
	}
	res, err = d.ProcessStep(timeseries.Step{Device: 0, Value: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Duplicate {
		t.Errorf("state change flagged duplicate: %+v", res)
	}
}

func TestDetectorSwapPreservesChainAndWindow(t *testing.T) {
	g, series := fittedChainGraph(t)
	d, err := NewDetector(g, 0.5, 3, timeseries.State{0, 0})
	if err != nil {
		t.Fatal(err)
	}
	// Seed a chain: effect on with cause off is a contextual anomaly.
	if _, err := d.ProcessStep(timeseries.Step{Device: 1, Value: 1}); err != nil {
		t.Fatal(err)
	}
	if d.Pending() != 1 {
		t.Fatalf("Pending = %d, want 1", d.Pending())
	}
	// Retrained graph on the same registry with a larger tau and a new
	// threshold: the tracked chain and the phantom window must survive.
	g2, err := dig.New(g.Registry, 4, [][]dig.Node{
		{},
		{{Device: 0, Lag: 1}},
	}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := g2.Fit(series); err != nil {
		t.Fatal(err)
	}
	if err := d.Swap(g2, 0.6, 3); err != nil {
		t.Fatal(err)
	}
	if d.Threshold() != 0.6 {
		t.Errorf("Threshold after swap = %v", d.Threshold())
	}
	if d.Pending() != 1 {
		t.Fatalf("Pending after swap = %d (chain lost)", d.Pending())
	}
	// The window kept the present state: the effect is on, so repeating
	// it is a duplicate.
	res, err := d.ProcessStep(timeseries.Step{Device: 1, Value: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Duplicate {
		t.Error("swap lost the phantom window state")
	}
	// Shrinking tau also works: the newest states are kept.
	g3, err := dig.New(g.Registry, 1, [][]dig.Node{
		{},
		{{Device: 0, Lag: 1}},
	}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := g3.Fit(series); err != nil {
		t.Fatal(err)
	}
	if err := d.Swap(g3, 0.5, 2); err != nil {
		t.Fatal(err)
	}
	if res, err := d.ProcessStep(timeseries.Step{Device: 1, Value: 1}); err != nil || !res.Duplicate {
		t.Errorf("window state lost shrinking tau: %+v, %v", res, err)
	}
}

func TestDetectorSwapValidation(t *testing.T) {
	g, _ := fittedChainGraph(t)
	d, err := NewDetector(g, 0.5, 1, timeseries.State{0, 0})
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Swap(nil, 0.5, 1); err == nil {
		t.Error("nil graph accepted")
	}
	if err := d.Swap(g, 1.5, 1); err == nil {
		t.Error("out-of-range threshold accepted")
	}
	if err := d.Swap(g, 0.5, 0); err == nil {
		t.Error("kmax 0 accepted")
	}
	other := mustRegistry(t, "x", "y", "z")
	gOther, err := dig.New(other, 2, [][]dig.Node{{}, {}, {}}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Swap(gOther, 0.5, 1); err == nil {
		t.Error("foreign registry accepted")
	}
}
