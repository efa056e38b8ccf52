package causaliot

import (
	"errors"
	"fmt"
	"math"
	"sync"
	"sync/atomic"

	"github.com/causaliot/causaliot/internal/dig"
	"github.com/causaliot/causaliot/internal/lifecycle"
	"github.com/causaliot/causaliot/internal/monitor"
	"github.com/causaliot/causaliot/internal/pc"
	"github.com/causaliot/causaliot/internal/timeseries"
)

// maxRefitWindow bounds the sliding refit log so a hostile checkpoint
// cannot make restoration allocate unbounded memory.
const maxRefitWindow = 1 << 20

// AdaptConfig tunes a monitor's online model lifecycle: drift detection
// over the live stream, and automatic re-estimation plus hot-swap when the
// trained model no longer matches observed behavior. Zero values select the
// defaults.
type AdaptConfig struct {
	// ScanEvery is the number of accepted (validated, non-duplicate) events
	// between drift scans. Defaults to 4096.
	ScanEvery int
	// DriftAlpha is the per-device significance of the drift test: a device
	// drifts when its trained-vs-live G² homogeneity test is reliable and
	// p < DriftAlpha. Defaults to 0.001.
	DriftAlpha float64
	// MinEvidence is the minimum number of accepted events folded since the
	// last model (re)bind before any drift verdict is issued. Defaults
	// to 512.
	MinEvidence int
	// MinObsPerDOF is the G² small-sample guard for the drift tests.
	// Defaults to 5; negative disables the guard.
	MinObsPerDOF int
	// RefitWindow is the sliding training-log length (in accepted events)
	// the background refresher re-estimates from. Defaults to 8192; capped
	// at 1<<20.
	RefitWindow int
	// StructuralFraction decides between the fast counts-only CPT refit and
	// a full TemporalPC re-mine: when at least this fraction of testable
	// devices drifted, structural drift is suspected and the graph is
	// re-mined. Defaults to 0.5; values above 1 never re-mine, and values
	// at or below 0 always re-mine on any drift.
	StructuralFraction float64
	// Synchronous makes drift-triggered refreshes run inline on the stream
	// thread (observation blocks until the swap completes) instead of being
	// handed to a background refresher. Intended for tests and offline
	// replay; hub-hosted serving should leave it false.
	Synchronous bool
}

func (c AdaptConfig) withDefaults() (AdaptConfig, error) {
	if c.ScanEvery == 0 {
		c.ScanEvery = 4096
	}
	if c.ScanEvery < 1 {
		return c, fmt.Errorf("causaliot: adapt scan interval %d < 1", c.ScanEvery)
	}
	if c.DriftAlpha == 0 {
		c.DriftAlpha = 0.001
	}
	if !(c.DriftAlpha > 0 && c.DriftAlpha < 1) { // NaN fails every comparison
		return c, fmt.Errorf("causaliot: adapt drift alpha %v outside (0,1)", c.DriftAlpha)
	}
	if c.MinEvidence == 0 {
		c.MinEvidence = 512
	}
	if c.MinEvidence < 0 {
		return c, fmt.Errorf("causaliot: adapt min evidence %d < 0", c.MinEvidence)
	}
	if c.MinObsPerDOF == 0 {
		c.MinObsPerDOF = 5
	} else if c.MinObsPerDOF < 0 {
		c.MinObsPerDOF = 0
	}
	if c.RefitWindow == 0 {
		c.RefitWindow = 8192
	}
	if c.RefitWindow < 1 || c.RefitWindow > maxRefitWindow {
		return c, fmt.Errorf("causaliot: adapt refit window %d outside [1,%d]", c.RefitWindow, maxRefitWindow)
	}
	if math.IsNaN(c.StructuralFraction) {
		return c, errors.New("causaliot: adapt structural fraction is NaN")
	}
	if c.StructuralFraction == 0 {
		c.StructuralFraction = 0.5
	}
	return c, nil
}

// RefreshKind identifies how a model refresh re-estimates.
type RefreshKind int

const (
	// RefreshNone means no refresh.
	RefreshNone RefreshKind = iota
	// RefreshRefit re-estimates CPT counts only, keeping the mined
	// structure — the fast path for distributional drift.
	RefreshRefit
	// RefreshRemine runs the full TemporalPC miner over the sliding log —
	// the slow path for suspected structural drift.
	RefreshRemine
)

func (k RefreshKind) String() string {
	switch k {
	case RefreshRefit:
		return "refit"
	case RefreshRemine:
		return "remine"
	default:
		return "none"
	}
}

// LifecycleStats is a point-in-time snapshot of a monitor's model
// lifecycle counters. Safe to read while the stream is running.
type LifecycleStats struct {
	// Folded is the accepted-event evidence accumulated since the current
	// model was (re)bound; WindowLen is the sliding refit log's fill.
	Folded    uint64
	WindowLen int
	// Scans counts drift scans run; DriftScans the scans that found at
	// least one drifted device.
	Scans      uint64
	DriftScans uint64
	// Refits/Remines/Swaps count completed refreshes by kind and the hot
	// swaps they produced (manual Refresh calls included).
	Refits  uint64
	Remines uint64
	Swaps   uint64
	// RefreshErrors counts refresh attempts that failed; LastError is the
	// most recent failure (empty when none).
	RefreshErrors uint64
	LastError     string
	// PendingRefresh is a drift verdict awaiting the background refresher;
	// RefreshInFlight reports one currently running.
	PendingRefresh  RefreshKind
	RefreshInFlight bool
}

// adaptState is the per-monitor lifecycle state. Fields split two ways:
// acc, base, ring, head, n, and sinceScan are owned by the stream thread
// (or a paused-stream Update); everything else is atomics/mutex-guarded so
// stats and the background refresher read without stopping the stream.
type adaptState struct {
	cfg    AdaptConfig
	acc    *lifecycle.Accumulator
	scorer *lifecycle.Scorer

	// Sliding refit log: ring[head:head+n] (mod len) are the accepted
	// steps, base is the system state immediately before ring's oldest
	// entry — together they replay the exact state trajectory the monitor
	// tracked.
	base      timeseries.State
	ring      []timeseries.Step
	head, n   int
	sinceScan int

	folded     atomic.Uint64
	winLen     atomic.Int64
	scans      atomic.Uint64
	driftScans atomic.Uint64
	refits     atomic.Uint64
	remines    atomic.Uint64
	swaps      atomic.Uint64
	refreshErr atomic.Uint64
	pending    atomic.Int32
	inFlight   atomic.Bool

	errMu   sync.Mutex
	lastErr string
}

// EnableAdaptive turns on the online model lifecycle for this monitor:
// every accepted event feeds the drift evidence accumulator and the sliding
// refit log, and every ScanEvery accepted events the accumulated evidence
// is tested against the trained CPTs. On drift the monitor either refreshes
// inline (Synchronous) or exposes the verdict for a background refresher
// (the Hub picks it up automatically for hub-hosted monitors).
//
// Must be called before the monitor is handed to a Hub.
func (m *Monitor) EnableAdaptive(cfg AdaptConfig) error {
	if m.lc != nil {
		return errors.New("causaliot: adaptive mode already enabled")
	}
	cfg, err := cfg.withDefaults()
	if err != nil {
		return err
	}
	acc, err := lifecycle.NewAccumulator(m.sys.compiled)
	if err != nil {
		return err
	}
	scorer, err := lifecycle.NewScorer(lifecycle.Config{
		Alpha:        cfg.DriftAlpha,
		MinEvidence:  uint64(cfg.MinEvidence),
		MinObsPerDOF: cfg.MinObsPerDOF,
	})
	if err != nil {
		return err
	}
	m.lc = &adaptState{
		cfg:    cfg,
		acc:    acc,
		scorer: scorer,
		base:   m.det.Window().State(),
		ring:   make([]timeseries.Step, cfg.RefitWindow),
	}
	return nil
}

// Adaptive reports whether the online model lifecycle is enabled.
func (m *Monitor) Adaptive() bool { return m.lc != nil }

// LifecycleStats snapshots the monitor's lifecycle counters; ok is false
// when adaptive mode is not enabled.
func (m *Monitor) LifecycleStats() (stats LifecycleStats, ok bool) {
	if m.lc == nil {
		return LifecycleStats{}, false
	}
	return m.lc.snapshot(), true
}

func (lc *adaptState) snapshot() LifecycleStats {
	lc.errMu.Lock()
	lastErr := lc.lastErr
	lc.errMu.Unlock()
	return LifecycleStats{
		Folded:          lc.folded.Load(),
		WindowLen:       int(lc.winLen.Load()),
		Scans:           lc.scans.Load(),
		DriftScans:      lc.driftScans.Load(),
		Refits:          lc.refits.Load(),
		Remines:         lc.remines.Load(),
		Swaps:           lc.swaps.Load(),
		RefreshErrors:   lc.refreshErr.Load(),
		LastError:       lastErr,
		PendingRefresh:  RefreshKind(lc.pending.Load()),
		RefreshInFlight: lc.inFlight.Load(),
	}
}

// observeAccepted folds one accepted event into the drift evidence and the
// sliding refit log, scanning for drift on the configured cadence. Runs on
// the stream thread after ProcessStep advanced the window; allocation-free
// except on scan boundaries.
func (m *Monitor) observeAccepted(st timeseries.Step) {
	lc := m.lc
	lc.acc.Fold(m.det.Window())
	lc.folded.Store(lc.acc.Folded())
	if lc.n == len(lc.ring) {
		old := lc.ring[lc.head]
		lc.base[old.Device] = old.Value
		lc.ring[lc.head] = st
		lc.head++
		if lc.head == len(lc.ring) {
			lc.head = 0
		}
	} else {
		i := lc.head + lc.n
		if i >= len(lc.ring) {
			i -= len(lc.ring)
		}
		lc.ring[i] = st
		lc.n++
		lc.winLen.Store(int64(lc.n))
	}
	lc.sinceScan++
	if lc.sinceScan >= lc.cfg.ScanEvery {
		lc.sinceScan = 0
		m.scanForDrift()
	}
}

// scanForDrift runs one drift scan and routes the verdict: inline refresh
// when Synchronous, otherwise the verdict is parked for the background
// refresher (Monitor.TakeDriftSignal / the Hub).
func (m *Monitor) scanForDrift() {
	lc := m.lc
	rep, err := lc.scorer.Scan(lc.acc)
	if err != nil {
		lc.noteError(err)
		return
	}
	lc.scans.Add(1)
	if !rep.MinEvidenceMet || rep.Drifted == 0 {
		return
	}
	lc.driftScans.Add(1)
	kind := RefreshRefit
	if rep.DriftFraction() >= lc.cfg.StructuralFraction {
		kind = RefreshRemine
	}
	if lc.cfg.Synchronous {
		if err := m.Refresh(kind); err != nil {
			lc.noteError(err)
		}
		return
	}
	// Park the verdict unless a refresh is already pending or running;
	// a re-mine verdict upgrades a parked refit.
	if lc.inFlight.Load() {
		return
	}
	if cur := RefreshKind(lc.pending.Load()); cur == RefreshNone || kind == RefreshRemine {
		lc.pending.Store(int32(kind))
	}
}

// TakeDriftSignal atomically claims a parked drift verdict for a background
// refresher: it returns RefreshNone unless a verdict is pending and no
// refresh is in flight, and on success marks a refresh in flight. The
// claimer must complete the cycle with Monitor.sys.RefreshFrom + Swap and
// then FinishRefresh. The Hub does all of this automatically.
func (m *Monitor) TakeDriftSignal() RefreshKind {
	if m.lc == nil {
		return RefreshNone
	}
	lc := m.lc
	if RefreshKind(lc.pending.Load()) == RefreshNone {
		return RefreshNone
	}
	if !lc.inFlight.CompareAndSwap(false, true) {
		return RefreshNone
	}
	k := RefreshKind(lc.pending.Swap(int32(RefreshNone)))
	if k == RefreshNone {
		lc.inFlight.Store(false)
	}
	return k
}

// FinishRefresh ends a refresh cycle started by TakeDriftSignal, recording
// the failure (if any).
func (m *Monitor) FinishRefresh(err error) {
	if m.lc == nil {
		return
	}
	if err != nil {
		m.lc.noteError(err)
	}
	m.lc.inFlight.Store(false)
}

func (lc *adaptState) noteError(err error) {
	lc.refreshErr.Add(1)
	lc.errMu.Lock()
	lc.lastErr = err.Error()
	lc.errMu.Unlock()
}

func (lc *adaptState) noteRefreshed(kind RefreshKind) {
	if kind == RefreshRemine {
		lc.remines.Add(1)
	} else {
		lc.refits.Add(1)
	}
	lc.swaps.Add(1)
}

// rebind resets the drift evidence against a freshly swapped model. The
// sliding refit log is kept: it still replays the true recent state
// trajectory, which is exactly what the next refresh should train on.
// Called from Monitor.Swap with the stream paused.
func (lc *adaptState) rebind(m *Monitor) error {
	if err := lc.acc.Rebind(m.sys.compiled); err != nil {
		return err
	}
	lc.folded.Store(0)
	lc.sinceScan = 0
	lc.pending.Store(int32(RefreshNone))
	return nil
}

// snapshotLog copies out the sliding refit log: the base state and the
// accepted steps that replay the monitor's state trajectory from it. Must
// run on the stream thread or with the stream paused (Hub.Update).
func (lc *adaptState) snapshotLog() (timeseries.State, []timeseries.Step) {
	base := lc.base.Clone()
	steps := make([]timeseries.Step, lc.n)
	for i := 0; i < lc.n; i++ {
		j := lc.head + i
		if j >= len(lc.ring) {
			j -= len(lc.ring)
		}
		steps[i] = lc.ring[j]
	}
	return base, steps
}

// Refresh re-estimates the model from the sliding refit log and hot-swaps
// it into this monitor, inline on the caller's thread. Not safe for
// concurrent use with ObserveEvent; hub-hosted monitors refresh through
// the hub instead.
func (m *Monitor) Refresh(kind RefreshKind) error {
	if m.lc == nil {
		return errors.New("causaliot: adaptive mode not enabled")
	}
	base, steps := m.lc.snapshotLog()
	sys, err := m.sys.RefreshFrom(kind, base, steps)
	if err != nil {
		return err
	}
	if err := m.Swap(sys); err != nil {
		return err
	}
	m.lc.noteRefreshed(kind)
	return nil
}

// RefreshFrom re-estimates a serving system from a unified step log
// starting at the given state: a counts-only CPT refit over the trained
// structure (RefreshRefit, the default) or a full TemporalPC re-mine
// (RefreshRemine). The threshold is recalibrated over the new log at the
// system's configured quantile. The source system is not modified.
func (s *System) RefreshFrom(kind RefreshKind, initial timeseries.State, steps []timeseries.Step) (*System, error) {
	reg := s.graph.Registry
	if len(initial) != reg.Len() {
		return nil, fmt.Errorf("causaliot: refresh initial state covers %d devices, system has %d", len(initial), reg.Len())
	}
	series, err := timeseries.FromSteps(reg, initial, steps)
	if err != nil {
		return nil, fmt.Errorf("causaliot: refresh: %w", err)
	}
	if series.Len() < s.graph.Tau {
		return nil, fmt.Errorf("causaliot: refresh log too short (%d events, tau %d)", series.Len(), s.graph.Tau)
	}
	var graph *dig.Graph
	if kind == RefreshRemine {
		miner := pc.NewMiner(pc.Config{
			Alpha:        s.cfg.Alpha,
			MaxCondSize:  s.cfg.MaxCondSize,
			MinObsPerDOF: s.cfg.MinObsPerDOF,
			MaxParents:   s.cfg.MaxParents,
			EventAnchors: s.cfg.EventAnchors,
		})
		graph, _, _, err = miner.Mine(series, s.graph.Tau, s.cfg.Smoothing)
		if err != nil {
			return nil, fmt.Errorf("causaliot: re-mine: %w", err)
		}
	} else {
		graph = s.graph.CloneStructure()
		if err := graph.Fit(series); err != nil {
			return nil, fmt.Errorf("causaliot: refit: %w", err)
		}
	}
	threshold, err := monitor.Threshold(graph, series, s.cfg.Quantile)
	if err != nil {
		return nil, fmt.Errorf("causaliot: refresh threshold: %w", err)
	}
	if threshold < s.cfg.MinThreshold {
		threshold = s.cfg.MinThreshold
	}
	sys := &System{
		cfg:       s.cfg,
		devices:   s.devices,
		pre:       s.pre,
		graph:     graph,
		threshold: threshold,
		initial:   series.State(series.Len()).Clone(),
	}
	if err := sys.compile(); err != nil {
		return nil, err
	}
	return sys, nil
}

// unifyLog converts a raw event log into the unified step stream a serving
// monitor would accept from the system's tracked state: unknown devices and
// unclassifiable values are skipped, and duplicate state reports dropped —
// the same sanitation ObserveEvent applies.
func (s *System) unifyLog(log []Event) (timeseries.State, []timeseries.Step) {
	state := s.initial.Clone()
	steps := make([]timeseries.Step, 0, len(log))
	for _, e := range log {
		idx, ok := s.nameIdx.Index(e.Device)
		if !ok {
			continue
		}
		v, err := s.unify.Unify(idx, e.Value)
		if err != nil {
			continue
		}
		if state[idx] == v {
			continue
		}
		state[idx] = v
		steps = append(steps, timeseries.Step{Device: idx, Value: v, Time: e.Time})
	}
	return s.initial.Clone(), steps
}

// Refit builds a new serving system with the trained structure re-estimated
// from a recent raw event log: CPT counts and the score threshold are
// recomputed, the mined graph is kept. This is the manual form of the fast
// lifecycle path; unlike Extend it replaces the evidence instead of
// accumulating onto it, and it does not modify the receiver.
func (s *System) Refit(log []Event) (*System, error) {
	initial, steps := s.unifyLog(log)
	return s.RefreshFrom(RefreshRefit, initial, steps)
}

// Remine builds a new serving system mined from scratch over a recent raw
// event log — the manual form of the slow lifecycle path for structural
// drift. The source system's configuration (τ, α, smoothing, quantile) is
// reused; the receiver is not modified.
func (s *System) Remine(log []Event) (*System, error) {
	initial, steps := s.unifyLog(log)
	return s.RefreshFrom(RefreshRemine, initial, steps)
}
