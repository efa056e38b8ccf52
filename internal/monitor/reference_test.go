package monitor

import (
	"fmt"
	"testing"

	"github.com/causaliot/causaliot/internal/dig"
	"github.com/causaliot/causaliot/internal/timeseries"
)

// refDetector is the original clone-per-event detector, the reference the
// compiled ring-buffer path is held bit-identical to: every event clones
// the present state into a fresh window slot, cause values are gathered
// into a fresh slice, and scoring is the error-checked Graph.AnomalyScore.
// Only the chain logic is shared: chain holds the graph, threshold, kmax,
// anomaly list and stream position, and runs the same advanceChain.
type refDetector struct {
	chain  Detector // comp and win stay nil
	tau    int
	window []timeseries.State // window[tau] is the present state
}

func newRefDetector(t *testing.T, g *dig.Graph, threshold float64, kmax int, initial timeseries.State) *refDetector {
	t.Helper()
	if err := validateDetectorParams(g, threshold, kmax, initial); err != nil {
		t.Fatal(err)
	}
	window := make([]timeseries.State, g.Tau+1)
	for i := range window {
		window[i] = initial.Clone()
	}
	return &refDetector{
		chain: Detector{
			g:              g,
			threshold:      threshold,
			kmax:           kmax,
			numDevices:     g.Registry.Len(),
			SkipDuplicates: true,
		},
		tau:    g.Tau,
		window: window,
	}
}

func (r *refDetector) value(n dig.Node) (int, error) {
	if n.Lag < 0 || n.Lag > r.tau {
		return 0, fmt.Errorf("monitor: lag %d outside [0,%d]", n.Lag, r.tau)
	}
	if n.Device < 0 || n.Device >= r.chain.numDevices {
		return 0, fmt.Errorf("monitor: device index %d out of range", n.Device)
	}
	return r.window[r.tau-n.Lag][n.Device], nil
}

// ProcessStep is Detector.ProcessStep on the clone window.
func (r *refDetector) ProcessStep(step timeseries.Step) (Result, error) {
	d := &r.chain
	d.seq++
	if d.SkipDuplicates {
		cur, err := r.value(dig.Node{Device: step.Device, Lag: 0})
		if err != nil {
			return Result{}, err
		}
		if cur == step.Value {
			return Result{Duplicate: true}, nil
		}
	}
	if step.Device < 0 || step.Device >= d.numDevices {
		return Result{}, fmt.Errorf("monitor: device index %d out of range", step.Device)
	}
	if step.Value != 0 && step.Value != 1 {
		return Result{}, fmt.Errorf("monitor: non-binary value %d", step.Value)
	}
	next := r.window[r.tau].Clone()
	next[step.Device] = step.Value
	copy(r.window, r.window[1:])
	r.window[r.tau] = next

	causes := d.g.Parents(step.Device)
	values := make([]int, len(causes))
	for i, c := range causes {
		v, err := r.value(c)
		if err != nil {
			return Result{}, err
		}
		values[i] = v
	}
	score, err := d.g.AnomalyScore(step.Device, step.Value, values)
	if err != nil {
		return Result{}, err
	}
	return d.advanceChain(step, score, causes, values), nil
}

// Swap is Detector.Swap on the clone window: a new Tau keeps the most
// recent states aligned on the present, replicating the oldest known state
// into new, older slots when the window grows.
func (r *refDetector) Swap(g *dig.Graph, threshold float64, kmax int) error {
	if err := r.chain.validateSwap(g, threshold, kmax); err != nil {
		return err
	}
	window := make([]timeseries.State, g.Tau+1)
	for i := range window {
		window[i] = r.window[max(r.tau-(g.Tau-i), 0)].Clone()
	}
	r.tau, r.window = g.Tau, window
	r.chain.g, r.chain.threshold, r.chain.kmax = g, threshold, kmax
	return nil
}

// Checkpoint exports the clone window in timeseries.Window's oldest-first
// cell order, so a compiled detector can resume from it.
func (r *refDetector) Checkpoint() Checkpoint {
	n := r.chain.numDevices
	cells := make([]int, 0, (r.tau+1)*n)
	for _, s := range r.window {
		cells = append(cells, s...)
	}
	return Checkpoint{
		Tau:            r.tau,
		NumDevices:     n,
		Window:         cells,
		Seq:            r.chain.seq,
		SkipDuplicates: r.chain.SkipDuplicates,
		Chain:          cloneChain(r.chain.w),
	}
}
