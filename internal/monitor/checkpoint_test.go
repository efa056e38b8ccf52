package monitor

import (
	"math/rand"
	"testing"

	"github.com/causaliot/causaliot/internal/dig"
	"github.com/causaliot/causaliot/internal/timeseries"
)

// randomStream synthesizes a deterministic event stream that exercises
// duplicates, normal interactions, and ghost activations.
func randomStream(seed int64, n int) []timeseries.Step {
	rng := rand.New(rand.NewSource(seed))
	steps := make([]timeseries.Step, n)
	for i := range steps {
		steps[i] = timeseries.Step{Device: rng.Intn(2), Value: rng.Intn(2)}
	}
	return steps
}

// detection is a comparable summary of one ProcessStep outcome.
type detection struct {
	score     float64
	duplicate bool
	alarmed   bool
	events    int
	abrupt    bool
}

func observe(t *testing.T, d *Detector, steps []timeseries.Step) []detection {
	t.Helper()
	out := make([]detection, len(steps))
	for i, s := range steps {
		res, err := d.ProcessStep(s)
		if err != nil {
			t.Fatalf("step %d: %v", i, err)
		}
		out[i] = detection{score: res.Score, duplicate: res.Duplicate, alarmed: res.Alarm != nil}
		if res.Alarm != nil {
			out[i].events = len(res.Alarm.Events)
			out[i].abrupt = res.Alarm.Abrupt
		}
	}
	return out
}

// TestCheckpointResumeBitForBit is the crash-safety core property: for every
// kill point, a detector restored from a checkpoint taken there produces
// scores and alarms bit-for-bit identical to the uninterrupted run. (The
// reference detector's side of checkpointing is TestCheckpointCrossPath.)
func TestCheckpointResumeBitForBit(t *testing.T) {
	g, _ := fittedChainGraph(t)
	stream := randomStream(7, 400)
	mk := func() *Detector {
		d, err := NewDetector(g, 0.5, 3, timeseries.State{0, 0})
		if err != nil {
			t.Fatal(err)
		}
		return d
	}
	t.Run("compiled", func(t *testing.T) {
		want := observe(t, mk(), stream)
		for _, kill := range []int{0, 1, 13, 200, len(stream) - 1, len(stream)} {
			d1 := mk()
			observe(t, d1, stream[:kill])
			cp := d1.Checkpoint()
			if cp.Seq != kill {
				t.Fatalf("kill %d: checkpoint position %d", kill, cp.Seq)
			}
			// The "restarted process": a fresh detector over the same
			// model, state restored from the checkpoint alone.
			d2 := mk()
			if err := d2.Restore(cp); err != nil {
				t.Fatalf("kill %d: restore: %v", kill, err)
			}
			got := observe(t, d2, stream[kill:])
			for i, det := range got {
				if det != want[kill+i] {
					t.Fatalf("kill %d: detection %d diverged: got %+v, want %+v",
						kill, kill+i, det, want[kill+i])
				}
			}
		}
	})
}

// TestCheckpointCrossPath proves a checkpoint taken on the reference
// clone-window detector restores onto the compiled one and the resumed
// stream stays identical to an uninterrupted compiled run.
func TestCheckpointCrossPath(t *testing.T) {
	g, _ := fittedChainGraph(t)
	stream := randomStream(11, 200)
	const kill = 77
	comp, err := NewDetector(g, 0.5, 2, timeseries.State{0, 0})
	if err != nil {
		t.Fatal(err)
	}
	want := observe(t, comp, stream)

	half := newRefDetector(t, g, 0.5, 2, timeseries.State{0, 0})
	for i, s := range stream[:kill] {
		if _, err := half.ProcessStep(s); err != nil {
			t.Fatalf("step %d: %v", i, err)
		}
	}
	resumed, err := NewDetector(g, 0.5, 2, timeseries.State{0, 0})
	if err != nil {
		t.Fatal(err)
	}
	if err := resumed.Restore(half.Checkpoint()); err != nil {
		t.Fatal(err)
	}
	got := observe(t, resumed, stream[kill:])
	for i, det := range got {
		if det != want[kill+i] {
			t.Fatalf("detection %d diverged across paths: got %+v, want %+v", kill+i, det, want[kill+i])
		}
	}
}

// TestCheckpointIsACopy pins that a checkpoint shares no state with the live
// detector: mutating either side never leaks into the other.
func TestCheckpointIsACopy(t *testing.T) {
	g, _ := fittedChainGraph(t)
	d, err := NewDetector(g, 0.5, 3, timeseries.State{0, 0})
	if err != nil {
		t.Fatal(err)
	}
	// Seed a pending chain (ghost effect activation is a contextual anomaly).
	if _, err := d.ProcessStep(timeseries.Step{Device: 1, Value: 1}); err != nil {
		t.Fatal(err)
	}
	if d.Pending() == 0 {
		t.Fatal("no chain tracked; test setup broken")
	}
	cp := d.Checkpoint()
	cp.Window[0] = 9
	if len(cp.Chain) > 0 && len(cp.Chain[0].CauseValues) > 0 {
		cp.Chain[0].CauseValues[0] = 9
	}
	cp2 := d.Checkpoint()
	if cp2.Window[0] == 9 {
		t.Error("checkpoint window aliases detector state")
	}
	if len(cp2.Chain) > 0 && len(cp2.Chain[0].CauseValues) > 0 && cp2.Chain[0].CauseValues[0] == 9 {
		t.Error("checkpoint chain aliases detector state")
	}
}

func TestRestoreValidation(t *testing.T) {
	g, _ := fittedChainGraph(t)
	mk := func() *Detector {
		d, err := NewDetector(g, 0.5, 3, timeseries.State{0, 0})
		if err != nil {
			t.Fatal(err)
		}
		return d
	}
	valid := mk().Checkpoint()
	cases := map[string]func(c *Checkpoint){
		"wrong tau":         func(c *Checkpoint) { c.Tau = 5; c.Window = make([]int, 6*2) },
		"wrong devices":     func(c *Checkpoint) { c.NumDevices = 3 },
		"short window":      func(c *Checkpoint) { c.Window = c.Window[:2] },
		"non-binary cell":   func(c *Checkpoint) { c.Window[1] = 7 },
		"negative position": func(c *Checkpoint) { c.Seq = -1 },
		"chain bad device": func(c *Checkpoint) {
			c.Chain = []AnomalousEvent{{Step: timeseries.Step{Device: 9, Value: 1}, Seq: 1, Score: 0.9}}
			c.Seq = 1
		},
		"chain bad value": func(c *Checkpoint) {
			c.Chain = []AnomalousEvent{{Step: timeseries.Step{Device: 0, Value: 3}, Seq: 1, Score: 0.9}}
			c.Seq = 1
		},
		"chain future seq": func(c *Checkpoint) {
			c.Chain = []AnomalousEvent{{Step: timeseries.Step{Device: 0, Value: 1}, Seq: 5, Score: 0.9}}
			c.Seq = 1
		},
		"chain bad score": func(c *Checkpoint) {
			c.Chain = []AnomalousEvent{{Step: timeseries.Step{Device: 0, Value: 1}, Seq: 1, Score: 1.5}}
			c.Seq = 1
		},
		"chain cause arity": func(c *Checkpoint) {
			c.Chain = []AnomalousEvent{{Step: timeseries.Step{Device: 0, Value: 1}, Seq: 1, Score: 0.9, Causes: []dig.Node{{Device: 0, Lag: 1}}}}
			c.Seq = 1
		},
		"chain cause device": func(c *Checkpoint) {
			c.Chain = []AnomalousEvent{{Step: timeseries.Step{Device: 0, Value: 1}, Seq: 1, Score: 0.9, Causes: []dig.Node{{Device: 7, Lag: 1}}, CauseValues: []int{0}}}
			c.Seq = 1
		},
		"chain cause lag": func(c *Checkpoint) {
			c.Chain = []AnomalousEvent{{Step: timeseries.Step{Device: 0, Value: 1}, Seq: 1, Score: 0.9, Causes: []dig.Node{{Device: 0, Lag: 9}}, CauseValues: []int{0}}}
			c.Seq = 1
		},
		"chain cause value": func(c *Checkpoint) {
			c.Chain = []AnomalousEvent{{Step: timeseries.Step{Device: 0, Value: 1}, Seq: 1, Score: 0.9, Causes: []dig.Node{{Device: 0, Lag: 1}}, CauseValues: []int{4}}}
			c.Seq = 1
		},
	}
	for name, corrupt := range cases {
		t.Run(name, func(t *testing.T) {
			c := valid
			c.Window = append([]int(nil), valid.Window...)
			corrupt(&c)
			if err := mk().Restore(c); err == nil {
				t.Error("corrupted checkpoint accepted")
			}
		})
	}
	// And the valid checkpoint itself restores cleanly.
	if err := mk().Restore(valid); err != nil {
		t.Fatal(err)
	}
}
