// Package monitor implements the Event Monitor of paper §V-C: the phantom
// state machine that tracks the latest graph snapshot, the score-threshold
// calculator that turns the logged events' score distribution into a
// detection threshold, and the k-sequence anomaly-detection procedure
// (Algorithm 2) that raises contextual and collective anomaly alarms.
//
// The serving hot path is allocation-free: the phantom window is a flat
// ring buffer (timeseries.Window) slid in place per event, and scoring runs
// against a compiled DIG (dig.Compiled) whose dense score tables replace
// the error-checked mixed-radix CPT lookup. The package tests keep the
// original clone-per-event window and error-checked scoring as a reference
// detector and hold this path bit-identical to it.
package monitor

import (
	"errors"
	"fmt"
	"runtime"
	"sort"
	"sync"

	"github.com/causaliot/causaliot/internal/dig"
	"github.com/causaliot/causaliot/internal/stats"
	"github.com/causaliot/causaliot/internal/timeseries"
)

// DefaultQuantile is the percentile of the logged events' anomaly-score
// distribution used as the detection threshold; 99 reflects high confidence
// in the normality of the logged events (§V-C).
const DefaultQuantile = 99.0

// parallelAnchorMin is the snapshot-anchor count below which TrainingScores
// stays on the serial path: under it, fan-out overhead and the one-time
// graph compilation outweigh the parallel win.
const parallelAnchorMin = 2048

// TrainingScores computes the anomaly score of every logged event in the
// training series (anchors j ∈ {τ, ..., m}), the input to the threshold
// calculator. Large series are scored in parallel across snapshot anchors
// (see TrainingScoresWorkers); the result is deterministic and bit-identical
// to the serial reference loop either way.
func TrainingScores(g *dig.Graph, train *timeseries.Series) ([]float64, error) {
	return TrainingScoresWorkers(g, train, 0)
}

// TrainingScoresWorkers is TrainingScores with an explicit worker count:
// workers <= 0 selects GOMAXPROCS. The anchor range is split into
// contiguous chunks scored concurrently against the compiled graph, each
// worker writing its disjoint slice of the exactly-sized result — no
// locking, deterministic output. Small series (or workers == 1) take the
// serial fallback, which reuses one cause-value scratch buffer across all
// anchors instead of allocating per anchor.
func TrainingScoresWorkers(g *dig.Graph, train *timeseries.Series, workers int) ([]float64, error) {
	if !train.Registry.Same(g.Registry) {
		return nil, errors.New("monitor: series registry differs from graph registry")
	}
	m := train.Len()
	if m < g.Tau {
		return nil, fmt.Errorf("monitor: series with %d events shorter than tau %d", m, g.Tau)
	}
	anchors := m - g.Tau + 1
	scores := make([]float64, anchors)
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > anchors {
		workers = anchors
	}
	if workers <= 1 || anchors < parallelAnchorMin {
		if err := trainingScoresSerial(g, train, scores); err != nil {
			return nil, err
		}
		return scores, nil
	}
	comp, err := dig.Compile(g)
	if err != nil {
		return nil, err
	}
	var wg sync.WaitGroup
	errs := make([]error, workers)
	chunk := (anchors + workers - 1) / workers
	for w := 0; w < workers; w++ {
		lo := g.Tau + w*chunk
		hi := lo + chunk
		if hi > m+1 {
			hi = m + 1
		}
		if lo >= hi {
			break
		}
		wg.Add(1)
		go func(w, lo, hi int) {
			defer wg.Done()
			for j := lo; j < hi; j++ {
				step, err := train.StepAt(j)
				if err != nil {
					errs[w] = err
					return
				}
				score, err := comp.ScoreAnchor(train, j, step.Device, step.Value)
				if err != nil {
					errs[w] = err
					return
				}
				scores[j-g.Tau] = score
			}
		}(w, lo, hi)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return scores, nil
}

// trainingScoresSerial is the reference per-anchor scoring loop, with one
// reusable cause-value scratch buffer across all anchors instead of a fresh
// slice per anchor.
func trainingScoresSerial(g *dig.Graph, train *timeseries.Series, scores []float64) error {
	maxParents := 0
	for dev := 0; dev < g.Registry.Len(); dev++ {
		if n := len(g.Parents(dev)); n > maxParents {
			maxParents = n
		}
	}
	scratch := make([]int, maxParents)
	m := train.Len()
	for j := g.Tau; j <= m; j++ {
		step, err := train.StepAt(j)
		if err != nil {
			return err
		}
		causes := g.Parents(step.Device)
		values := scratch[:len(causes)]
		for k, c := range causes {
			values[k] = train.State(j - c.Lag)[c.Device]
		}
		score, err := g.AnomalyScore(step.Device, step.Value, values)
		if err != nil {
			return err
		}
		scores[j-g.Tau] = score
	}
	return nil
}

// Threshold selects the qth percentile of the logged events' anomaly scores
// as the detection threshold c (§V-C).
func Threshold(g *dig.Graph, train *timeseries.Series, q float64) (float64, error) {
	scores, err := TrainingScores(g, train)
	if err != nil {
		return 0, err
	}
	return stats.Percentile(scores, q)
}

// AnomalousEvent is one reported member of an anomaly chain, with the
// context (cause values) the paper records for interpretation.
type AnomalousEvent struct {
	// Step is the offending event.
	Step timeseries.Step
	// Seq is the 1-based position of the event in the detector's stream
	// (counting every ProcessStep call, including skipped duplicates), so
	// alarms can be aligned with injected-anomaly labels.
	Seq int
	// Score is the anomaly score f(e, G, 𝒢).
	Score float64
	// Causes and CauseValues record the interaction context ca(S_i^t).
	Causes      []dig.Node
	CauseValues []int
}

// Alarm is raised when an anomaly chain completes (|W| = k_max) or an
// abrupt high-score event interrupts collective tracking.
type Alarm struct {
	// Events holds the chain: Events[0] is the contextual anomaly, any
	// subsequent events are the collective anomaly that followed it.
	Events []AnomalousEvent
	// Abrupt is true when the chain was terminated early by an abrupt
	// high-score event rather than by reaching k_max.
	Abrupt bool
}

// Collective reports whether the alarm contains a collective anomaly
// (more than the seeding contextual anomaly). The name matches the facade's
// Alarm.Collective so the predicate reads the same at every layer.
func (a *Alarm) Collective() bool { return len(a.Events) > 1 }

// Detector runs the k-sequence anomaly detection of Algorithm 2 over a
// runtime event stream.
//
// It scores events against a compiled DIG over the flat ring-buffer
// window: steady-state ProcessStep (no alarm, no chain membership, no
// duplicate) performs zero heap allocations.
type Detector struct {
	g          *dig.Graph
	comp       *dig.Compiled
	threshold  float64
	kmax       int
	numDevices int
	win        *timeseries.Window
	w          []AnomalousEvent
	seq        int
	// scratch is the reusable cause-value gather buffer, sized to the
	// compiled graph's maximum parent count at NewDetector/Swap time.
	scratch []int
	// SkipDuplicates drops events that do not change the tracked device
	// state, mirroring the preprocessor's sanitation. Enabled by default.
	SkipDuplicates bool
}

func validateDetectorParams(g *dig.Graph, threshold float64, kmax int, initial timeseries.State) error {
	if threshold < 0 || threshold > 1 {
		return fmt.Errorf("monitor: threshold %v outside [0,1]", threshold)
	}
	if kmax < 1 {
		return fmt.Errorf("monitor: kmax %d < 1", kmax)
	}
	if len(initial) != g.Registry.Len() {
		return fmt.Errorf("monitor: initial state has %d devices, registry has %d", len(initial), g.Registry.Len())
	}
	return nil
}

// NewDetector builds a detector with the score threshold c and maximum
// chain length kmax (kmax = 1 detects contextual anomalies only). The graph
// is compiled for the zero-allocation scoring path; to share one compiled
// graph across many detectors (e.g. hub tenants serving the same trained
// system), compile once and use NewDetectorFromCompiled.
func NewDetector(g *dig.Graph, threshold float64, kmax int, initial timeseries.State) (*Detector, error) {
	if g == nil {
		return nil, errors.New("monitor: nil graph")
	}
	comp, err := dig.Compile(g)
	if err != nil {
		return nil, err
	}
	return NewDetectorFromCompiled(comp, threshold, kmax, initial)
}

// NewDetectorFromCompiled builds a detector over an already-compiled graph,
// sharing its read-only parent arrays and score tables.
func NewDetectorFromCompiled(comp *dig.Compiled, threshold float64, kmax int, initial timeseries.State) (*Detector, error) {
	if comp == nil {
		return nil, errors.New("monitor: nil compiled graph")
	}
	g := comp.Graph()
	if err := validateDetectorParams(g, threshold, kmax, initial); err != nil {
		return nil, err
	}
	for i, v := range initial {
		if v != 0 && v != 1 {
			return nil, fmt.Errorf("monitor: non-binary initial state %d at device %d", v, i)
		}
	}
	win, err := timeseries.NewWindow(g.Tau, initial)
	if err != nil {
		return nil, err
	}
	return &Detector{
		g:              g,
		comp:           comp,
		threshold:      threshold,
		kmax:           kmax,
		numDevices:     g.Registry.Len(),
		win:            win,
		scratch:        make([]int, comp.MaxParents()),
		SkipDuplicates: true,
	}, nil
}

// Threshold returns the detector's score threshold.
func (d *Detector) Threshold() float64 { return d.threshold }

// Pending returns the number of events currently tracked in the anomaly
// list W.
func (d *Detector) Pending() int { return len(d.w) }

// Tau returns the detector's current window lag.
func (d *Detector) Tau() int { return d.win.Tau() }

// Window exposes the detector's phantom window for read-only inspection,
// e.g. by the lifecycle evidence accumulator. Restore replaces the window
// object, so holders must re-fetch it rather than cache across a restore.
func (d *Detector) Window() *timeseries.Window {
	return d.win
}

// Swap atomically adopts a retrained graph, threshold, and chain length
// between events: the phantom window and any partially tracked anomaly
// chain survive, so a model refresh loses no detection state. The new graph
// must cover the same device registry; a different Tau resizes the window,
// replicating the oldest known state when it grows. The graph is compiled
// here; use SwapCompiled to share an existing compilation.
func (d *Detector) Swap(g *dig.Graph, threshold float64, kmax int) error {
	if g == nil {
		return errors.New("monitor: nil graph")
	}
	if err := d.validateSwap(g, threshold, kmax); err != nil {
		return err
	}
	comp, err := dig.Compile(g)
	if err != nil {
		return err
	}
	d.adoptCompiled(comp, threshold, kmax)
	return nil
}

// SwapCompiled is Swap over an already-compiled graph (e.g. a hub hot-swap
// distributing one compilation to every tenant of a home's system).
func (d *Detector) SwapCompiled(comp *dig.Compiled, threshold float64, kmax int) error {
	if comp == nil {
		return errors.New("monitor: nil compiled graph")
	}
	g := comp.Graph()
	if err := d.validateSwap(g, threshold, kmax); err != nil {
		return err
	}
	d.adoptCompiled(comp, threshold, kmax)
	return nil
}

func (d *Detector) validateSwap(g *dig.Graph, threshold float64, kmax int) error {
	if threshold < 0 || threshold > 1 {
		return fmt.Errorf("monitor: threshold %v outside [0,1]", threshold)
	}
	if kmax < 1 {
		return fmt.Errorf("monitor: kmax %d < 1", kmax)
	}
	if !g.Registry.Same(d.g.Registry) {
		return errors.New("monitor: swapped graph covers a different device registry")
	}
	return nil
}

func (d *Detector) adoptCompiled(comp *dig.Compiled, threshold float64, kmax int) {
	g := comp.Graph()
	d.win.Resize(g.Tau)
	d.g, d.comp, d.threshold, d.kmax = g, comp, threshold, kmax
	if comp.MaxParents() > len(d.scratch) {
		d.scratch = make([]int, comp.MaxParents())
	}
}

// Result is the outcome of processing one runtime event.
type Result struct {
	// Alarm is non-nil when the event completed (or abruptly terminated)
	// an anomaly chain.
	Alarm *Alarm
	// Score is the event's anomaly score f(e, G, 𝒢); duplicates score 0.
	Score float64
	// Duplicate reports that the event repeated the tracked device state
	// and was skipped, mirroring the preprocessor's sanitation.
	Duplicate bool
}

// ProcessStep ingests one runtime event and reports what the detector did
// with it.
//
// The procedure follows Algorithm 2 literally: with an empty list W the
// event joins W only when its score reaches the threshold (a contextual
// anomaly); with a non-empty W the event joins only when its score is below
// the threshold (it follows an interaction execution under the polluted
// context). The chain is reported when |W| = k_max or when an abrupt
// high-score event interrupts the tracking.
//
// A steady-state call (no duplicate, no chain membership) performs zero
// heap allocations: the device and value are
// validated once up front, the duplicate check is a direct ring-buffer
// read, the window slides in place, and the score is a compiled-table
// gather. Cause values are only materialized when the event joins an
// anomaly chain.
func (d *Detector) ProcessStep(step timeseries.Step) (Result, error) {
	d.seq++
	if step.Device < 0 || step.Device >= d.numDevices {
		return Result{}, fmt.Errorf("monitor: device index %d out of range", step.Device)
	}
	if step.Value != 0 && step.Value != 1 {
		return Result{}, fmt.Errorf("monitor: non-binary value %d", step.Value)
	}
	if d.SkipDuplicates && d.win.At(step.Device, 0) == step.Value {
		return Result{Duplicate: true}, nil
	}
	d.win.Advance(step.Device, step.Value)
	score := d.comp.ScoreEvent(d.win, step.Device, step.Value)

	// Materialize the interaction context only when the event joins the
	// anomaly list (the same join predicate advanceChain applies): gather
	// into the reusable scratch buffer, then persist an exactly-sized copy
	// in the chain entry.
	anomalous := score >= d.threshold
	tracking := len(d.w) > 0
	var causes []dig.Node
	var values []int
	if (tracking && !anomalous) || (!tracking && anomalous) {
		causes = d.g.Parents(step.Device)
		gathered := d.comp.CauseValuesInto(d.win, step.Device, d.scratch)
		values = make([]int, len(gathered))
		copy(values, gathered)
	}
	return d.advanceChain(step, score, causes, values), nil
}

// advanceChain runs the Algorithm 2 chain logic for a scored event; causes
// and values are only consulted when the event joins the anomaly list, and
// must then be safe for the chain entry to retain.
func (d *Detector) advanceChain(step timeseries.Step, score float64, causes []dig.Node, values []int) Result {
	anomalous := score >= d.threshold
	tracking := len(d.w) > 0
	if (tracking && !anomalous) || (!tracking && anomalous) {
		d.w = append(d.w, AnomalousEvent{
			Step:        step,
			Seq:         d.seq,
			Score:       score,
			Causes:      causes,
			CauseValues: values,
		})
	}
	// Report when the chain is complete, or when an abrupt high-score
	// event interrupts an ongoing tracking (Algorithm 2 line 9 — the
	// abrupt case only applies to a chain that was already being tracked
	// before this event, otherwise the seeding contextual anomaly would
	// terminate its own chain immediately). The >= guards against a
	// hot-swap shrinking kmax below an already tracked chain.
	if len(d.w) >= d.kmax || (tracking && anomalous) {
		abrupt := len(d.w) < d.kmax
		alarm := &Alarm{Events: d.w, Abrupt: abrupt}
		d.w = nil
		return Result{Alarm: alarm, Score: score}
	}
	return Result{Score: score}
}

// Flush reports any partially tracked chain at stream end and resets the
// detector's anomaly list.
func (d *Detector) Flush() *Alarm {
	if len(d.w) == 0 {
		return nil
	}
	alarm := &Alarm{Events: d.w, Abrupt: true}
	d.w = nil
	return alarm
}

// AffectedDevices returns the devices reachable from the alarm's events
// through the interaction graph — the set a user should inspect during
// device recovery and risk evaluation (§III: when an interaction chain is
// abnormally executed, the graph helps track the affected devices). The
// alarmed devices themselves are included; the result is sorted by registry
// index.
func AffectedDevices(g *dig.Graph, alarm *Alarm) []int {
	if g == nil || alarm == nil {
		return nil
	}
	seen := make(map[int]bool)
	var frontier []int
	for _, ev := range alarm.Events {
		if !seen[ev.Step.Device] {
			seen[ev.Step.Device] = true
			frontier = append(frontier, ev.Step.Device)
		}
	}
	for len(frontier) > 0 {
		dev := frontier[len(frontier)-1]
		frontier = frontier[:len(frontier)-1]
		for _, child := range g.Children(dev) {
			if !seen[child] {
				seen[child] = true
				frontier = append(frontier, child)
			}
		}
	}
	out := make([]int, 0, len(seen))
	for dev := range seen {
		out = append(out, dev)
	}
	sort.Ints(out)
	return out
}
