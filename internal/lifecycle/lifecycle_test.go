package lifecycle

import (
	"math"
	"math/rand"
	"testing"

	"github.com/causaliot/causaliot/internal/dig"
	"github.com/causaliot/causaliot/internal/stats"
	"github.com/causaliot/causaliot/internal/timeseries"
)

// chainSteps generates the two-device copy pattern: device 0 toggles
// randomly, device 1 copies device 0's previous value with flip-probability
// noise.
func chainSteps(n int, seed int64, noise float64) []timeseries.Step {
	rng := rand.New(rand.NewSource(seed))
	steps := make([]timeseries.Step, 0, n)
	cause := 0
	for j := 0; j < n; j++ {
		if j%2 == 0 {
			cause = rng.Intn(2)
			steps = append(steps, timeseries.Step{Device: 0, Value: cause})
		} else {
			v := cause
			if rng.Float64() < noise {
				v = 1 - v
			}
			steps = append(steps, timeseries.Step{Device: 1, Value: v})
		}
	}
	return steps
}

// fittedChain builds and fits the two-device chain DIG (device 1 caused by
// device 0 at lag 1, plus autocorrelation), compiled for serving.
func fittedChain(t testing.TB) *dig.Compiled {
	t.Helper()
	reg, err := timeseries.NewRegistry([]string{"cause", "effect"})
	if err != nil {
		t.Fatal(err)
	}
	parents := [][]dig.Node{
		{{Device: 0, Lag: 1}},
		{{Device: 0, Lag: 1}, {Device: 1, Lag: 1}},
	}
	g, err := dig.New(reg, 2, parents, 0.01)
	if err != nil {
		t.Fatal(err)
	}
	series, err := timeseries.FromSteps(reg, timeseries.State{0, 0}, chainSteps(4000, 42, 0.02))
	if err != nil {
		t.Fatal(err)
	}
	if err := g.Fit(series); err != nil {
		t.Fatal(err)
	}
	comp, err := dig.Compile(g)
	if err != nil {
		t.Fatal(err)
	}
	return comp
}

// TestFoldDifferential checks the accumulator against an independent
// clone-window reference: a list of full states replaying the same stream,
// with parent configurations gathered by hand from the state history.
func TestFoldDifferential(t *testing.T) {
	comp := fittedChain(t)
	g := comp.Graph()
	initial := timeseries.State{0, 0}
	w, err := timeseries.NewWindow(g.Tau, initial)
	if err != nil {
		t.Fatal(err)
	}
	acc, err := NewAccumulator(comp)
	if err != nil {
		t.Fatal(err)
	}

	steps := chainSteps(600, 7, 0.1)
	states := []timeseries.State{initial.Clone()}
	for _, st := range steps {
		w.Advance(st.Device, st.Value)
		acc.Fold(w)
		next := states[len(states)-1].Clone()
		next[st.Device] = st.Value
		states = append(states, next)
	}
	if acc.Folded() != uint64(len(steps)) {
		t.Fatalf("folded %d, want %d", acc.Folded(), len(steps))
	}

	// Reference counts: fold i (1-based) observes, for each device, the
	// parent configuration over states with replicated-initial semantics
	// (lag past the start reads the initial state) and the device's state
	// at fold time.
	for dev := 0; dev < g.Registry.Len(); dev++ {
		cpt := g.CPTOf(dev)
		wantOn := make([]float64, cpt.NumConfigs())
		wantTotal := make([]float64, cpt.NumConfigs())
		for i := 1; i <= len(steps); i++ {
			cfg := 0
			for _, p := range cpt.Causes {
				j := i - p.Lag
				if j < 0 {
					j = 0
				}
				cfg = cfg<<1 | states[j][p.Device]
			}
			wantTotal[cfg]++
			if states[i][dev] == 1 {
				wantOn[cfg]++
			}
		}
		for cfg := range wantTotal {
			on, total := acc.CountsAt(dev, cfg)
			if on != wantOn[cfg] || total != wantTotal[cfg] {
				t.Errorf("dev %d cfg %d: got (%v,%v), want (%v,%v)", dev, cfg, on, total, wantOn[cfg], wantTotal[cfg])
			}
		}
	}
}

// TestFoldZeroAlloc enforces the hot-path contract: window advance plus
// evidence fold allocate nothing in steady state.
func TestFoldZeroAlloc(t *testing.T) {
	comp := fittedChain(t)
	w, err := timeseries.NewWindow(comp.Tau(), timeseries.State{0, 0})
	if err != nil {
		t.Fatal(err)
	}
	acc, err := NewAccumulator(comp)
	if err != nil {
		t.Fatal(err)
	}
	steps := chainSteps(64, 3, 0.1)
	i := 0
	allocs := testing.AllocsPerRun(1000, func() {
		st := steps[i%len(steps)]
		i++
		w.Advance(st.Device, st.Value)
		acc.Fold(w)
	})
	if allocs != 0 {
		t.Fatalf("Fold allocates %v per op, want 0", allocs)
	}
}

// streamInto replays steps through a fresh window bound to comp, folding
// each into acc.
func streamInto(t testing.TB, comp *dig.Compiled, acc *Accumulator, steps []timeseries.Step) {
	t.Helper()
	w, err := timeseries.NewWindow(comp.Tau(), timeseries.State{0, 0})
	if err != nil {
		t.Fatal(err)
	}
	for _, st := range steps {
		w.Advance(st.Device, st.Value)
		acc.Fold(w)
	}
}

func TestScanDetectsDrift(t *testing.T) {
	comp := fittedChain(t)
	scorer, err := NewScorer(Config{Alpha: 0.001, MinEvidence: 100, MinObsPerDOF: 5})
	if err != nil {
		t.Fatal(err)
	}

	// In-distribution traffic: same generator, different seed — no drift.
	acc, err := NewAccumulator(comp)
	if err != nil {
		t.Fatal(err)
	}
	streamInto(t, comp, acc, chainSteps(2000, 99, 0.02))
	rep, err := scorer.Scan(acc)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.MinEvidenceMet {
		t.Fatal("evidence floor not met on 2000 folds")
	}
	if rep.Drifted != 0 {
		t.Fatalf("in-distribution stream flagged %d drifted devices: %+v", rep.Drifted, rep.Devices)
	}
	if rep.Tested == 0 {
		t.Fatal("no device was testable")
	}

	// Drifted traffic: device 1 now anti-copies device 0.
	drifted := chainSteps(2000, 99, 0.98)
	if err := acc.Rebind(comp); err != nil {
		t.Fatal(err)
	}
	streamInto(t, comp, acc, drifted)
	rep, err = scorer.Scan(acc)
	if err != nil {
		t.Fatal(err)
	}
	var effect *DeviceVerdict
	for i := range rep.Devices {
		if rep.Devices[i].Device == 1 {
			effect = &rep.Devices[i]
		}
	}
	if effect == nil || !effect.Drifted {
		t.Fatalf("anti-copy stream did not flag the effect device: %+v", rep.Devices)
	}
	if len(effect.Edges) != effect.Parents {
		t.Fatalf("edge attribution covers %d of %d parents", len(effect.Edges), effect.Parents)
	}
	foundEdge := false
	for _, e := range effect.Edges {
		if e.Parent == (dig.Node{Device: 0, Lag: 1}) && e.Drifted {
			foundEdge = true
		}
	}
	if !foundEdge {
		t.Fatalf("drifted cause→effect edge not attributed: %+v", effect.Edges)
	}
	if rep.DriftFraction() <= 0 {
		t.Fatalf("drift fraction %v", rep.DriftFraction())
	}
}

func TestScanEvidenceFloor(t *testing.T) {
	comp := fittedChain(t)
	acc, err := NewAccumulator(comp)
	if err != nil {
		t.Fatal(err)
	}
	streamInto(t, comp, acc, chainSteps(50, 5, 0.02))
	scorer, err := NewScorer(Config{Alpha: 0.001, MinEvidence: 512, MinObsPerDOF: 5})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := scorer.Scan(acc)
	if err != nil {
		t.Fatal(err)
	}
	if rep.MinEvidenceMet || len(rep.Devices) != 0 || rep.Tested != 0 {
		t.Fatalf("scan below the evidence floor produced verdicts: %+v", rep)
	}
	if rep.Folded != 50 {
		t.Fatalf("folded %d, want 50", rep.Folded)
	}
}

// TestScanMatchesSampleTester proves the counts path is bit-identical to
// the per-observation G² testers: expand the accumulated table back into
// observation samples and compare statistics through both the scalar Test
// and the bit-packed TestStrata kernels.
func TestScanMatchesSampleTester(t *testing.T) {
	comp := fittedChain(t)
	g := comp.Graph()
	acc, err := NewAccumulator(comp)
	if err != nil {
		t.Fatal(err)
	}
	streamInto(t, comp, acc, chainSteps(1500, 11, 0.5))
	scorer, err := NewScorer(Config{Alpha: 0.001, MinEvidence: 1, MinObsPerDOF: 1})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := scorer.Scan(acc)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range rep.Devices {
		cpt := g.CPTOf(v.Device)
		var xs, ys []int
		zs := make([][]int, v.Parents)
		add := func(cfg, outcome, era int, count float64) {
			for c := 0; c < int(count); c++ {
				xs = append(xs, outcome)
				ys = append(ys, era)
				for k := range zs {
					zs[k] = append(zs[k], (cfg>>(v.Parents-1-k))&1)
				}
			}
		}
		for cfg := 0; cfg < cpt.NumConfigs(); cfg++ {
			tOn, tTot := cpt.CountsAt(cfg)
			lOn, lTot := acc.CountsAt(v.Device, cfg)
			add(cfg, 0, 0, tTot-tOn)
			add(cfg, 1, 0, tOn)
			add(cfg, 0, 1, lTot-lOn)
			add(cfg, 1, 1, lOn)
		}
		x := stats.Sample{Values: xs, Arity: 2}
		y := stats.Sample{Values: ys, Arity: 2}
		var conds []stats.Sample
		for _, z := range zs {
			conds = append(conds, stats.Sample{Values: z, Arity: 2})
		}
		tester := stats.GSquareTester{MinObsPerDOF: 1}
		ref, err := tester.Test(x, y, conds)
		if err != nil {
			t.Fatalf("device %d: %v", v.Device, err)
		}
		if ref.Statistic != v.Statistic || ref.PValue != v.PValue {
			t.Errorf("device %d: counts path (G²=%v, p=%v) differs from sample path (G²=%v, p=%v)",
				v.Device, v.Statistic, v.PValue, ref.Statistic, ref.PValue)
		}
		bx, err := stats.PackSample(x)
		if err != nil {
			t.Fatal(err)
		}
		by, err := stats.PackSample(y)
		if err != nil {
			t.Fatal(err)
		}
		var bzs []stats.BitSample
		for _, c := range conds {
			bz, err := stats.PackSample(c)
			if err != nil {
				t.Fatal(err)
			}
			bzs = append(bzs, bz)
		}
		strata, err := stats.NewStrata(by, bzs)
		if err != nil {
			t.Fatal(err)
		}
		bits, err := tester.TestStrata(bx, strata, nil)
		if err != nil {
			t.Fatalf("device %d bits: %v", v.Device, err)
		}
		if bits.Statistic != v.Statistic {
			t.Errorf("device %d: counts path G²=%v differs from bit kernel G²=%v", v.Device, v.Statistic, bits.Statistic)
		}
	}
}

func TestSnapshotRoundTrip(t *testing.T) {
	comp := fittedChain(t)
	acc, err := NewAccumulator(comp)
	if err != nil {
		t.Fatal(err)
	}
	streamInto(t, comp, acc, chainSteps(300, 13, 0.1))
	snap := acc.Snapshot()

	restored, err := NewAccumulator(comp)
	if err != nil {
		t.Fatal(err)
	}
	if err := restored.Restore(snap); err != nil {
		t.Fatal(err)
	}
	if restored.Folded() != acc.Folded() {
		t.Fatalf("folded %d, want %d", restored.Folded(), acc.Folded())
	}
	for dev := 0; dev < comp.NumDevices(); dev++ {
		for cfg := 0; cfg < comp.Graph().CPTOf(dev).NumConfigs(); cfg++ {
			gotOn, gotTotal := restored.CountsAt(dev, cfg)
			wantOn, wantTotal := acc.CountsAt(dev, cfg)
			if gotOn != wantOn || gotTotal != wantTotal {
				t.Fatalf("dev %d cfg %d: got (%v,%v), want (%v,%v)", dev, cfg, gotOn, gotTotal, wantOn, wantTotal)
			}
		}
	}
}

func TestRestoreRejectsCorruptSnapshots(t *testing.T) {
	comp := fittedChain(t)
	acc, err := NewAccumulator(comp)
	if err != nil {
		t.Fatal(err)
	}
	streamInto(t, comp, acc, chainSteps(100, 17, 0.1))
	base := acc.Snapshot()

	corrupt := func(name string, mutate func(*Snapshot)) {
		t.Helper()
		s := Snapshot{On: append([]float64(nil), base.On...), Total: append([]float64(nil), base.Total...), Folded: base.Folded}
		mutate(&s)
		fresh, err := NewAccumulator(comp)
		if err != nil {
			t.Fatal(err)
		}
		if err := fresh.Restore(s); err == nil {
			t.Errorf("%s: corrupt snapshot accepted", name)
		}
		if fresh.Folded() != 0 {
			t.Errorf("%s: failed restore mutated the accumulator", name)
		}
	}
	corrupt("short-on", func(s *Snapshot) { s.On = s.On[:1] })
	corrupt("nan-cell", func(s *Snapshot) { s.On[0] = math.NaN() })
	corrupt("inf-cell", func(s *Snapshot) { s.Total[0] = math.Inf(1) })
	corrupt("negative", func(s *Snapshot) { s.Total[0] = -1 })
	corrupt("on-exceeds-total", func(s *Snapshot) { s.On[0] = s.Total[0] + 1 })
	corrupt("mass-mismatch", func(s *Snapshot) { s.Folded++ })
}

func TestRebindClearsEvidence(t *testing.T) {
	comp := fittedChain(t)
	acc, err := NewAccumulator(comp)
	if err != nil {
		t.Fatal(err)
	}
	streamInto(t, comp, acc, chainSteps(100, 19, 0.1))
	if acc.Folded() == 0 {
		t.Fatal("no evidence accumulated")
	}
	if err := acc.Rebind(comp); err != nil {
		t.Fatal(err)
	}
	if acc.Folded() != 0 {
		t.Fatalf("rebind kept %d folds", acc.Folded())
	}
	for cfg := 0; cfg < comp.Graph().CPTOf(0).NumConfigs(); cfg++ {
		if on, total := acc.CountsAt(0, cfg); on != 0 || total != 0 {
			t.Fatalf("rebind kept counts (%v,%v) at cfg %d", on, total, cfg)
		}
	}
	if err := acc.Rebind(nil); err == nil {
		t.Fatal("rebind to nil accepted")
	}
}

func TestConfigValidate(t *testing.T) {
	if err := DefaultConfig().Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
	bad := []Config{
		{Alpha: 0, MinObsPerDOF: 5},
		{Alpha: 1, MinObsPerDOF: 5},
		{Alpha: math.NaN(), MinObsPerDOF: 5},
		{Alpha: 0.001, MinObsPerDOF: -1},
	}
	for i, cfg := range bad {
		if err := cfg.Validate(); err == nil {
			t.Errorf("config %d accepted: %+v", i, cfg)
		}
	}
	if _, err := NewScorer(Config{Alpha: -1}); err == nil {
		t.Fatal("NewScorer accepted invalid config")
	}
	if _, err := NewAccumulator(nil); err == nil {
		t.Fatal("NewAccumulator accepted nil graph")
	}
}

// BenchmarkFold times the per-step evidence fold on the observation hot
// path: one window advance plus one Fold.
func BenchmarkFold(b *testing.B) {
	comp := fittedChain(b)
	w, err := timeseries.NewWindow(comp.Tau(), timeseries.State{0, 0})
	if err != nil {
		b.Fatal(err)
	}
	acc, err := NewAccumulator(comp)
	if err != nil {
		b.Fatal(err)
	}
	steps := chainSteps(4096, 3, 0.1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st := steps[i%len(steps)]
		w.Advance(st.Device, st.Value)
		acc.Fold(w)
	}
}

// BenchmarkScan times one drift scan over evidence primed with a full
// stream, so every parent configuration that occurs is populated.
func BenchmarkScan(b *testing.B) {
	comp := fittedChain(b)
	acc, err := NewAccumulator(comp)
	if err != nil {
		b.Fatal(err)
	}
	streamInto(b, comp, acc, chainSteps(4000, 9, 0.02))
	scorer, err := NewScorer(DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := scorer.Scan(acc); err != nil {
			b.Fatal(err)
		}
	}
}
