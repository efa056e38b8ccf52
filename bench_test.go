// Benchmarks regenerating every table and figure of the paper's evaluation
// (§VI), plus ablations for the design decisions documented in DESIGN.md
// and microbenchmarks for the hot paths. Each table/figure bench reports
// the reproduced quality metrics via b.ReportMetric, so
// `go test -bench=. -benchmem` doubles as the reproduction harness.
//
// The shared pipeline runs on a shortened (5-day) simulation so the full
// bench suite stays in the minutes range; cmd/experiments uses the longer
// default for the headline numbers recorded in EXPERIMENTS.md.
package causaliot_test

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"github.com/causaliot/causaliot"
	"github.com/causaliot/causaliot/internal/automation"
	"github.com/causaliot/causaliot/internal/dig"
	"github.com/causaliot/causaliot/internal/experiments"
	"github.com/causaliot/causaliot/internal/inject"
	"github.com/causaliot/causaliot/internal/monitor"
	"github.com/causaliot/causaliot/internal/pc"
	"github.com/causaliot/causaliot/internal/preprocess"
	"github.com/causaliot/causaliot/internal/sim"
	"github.com/causaliot/causaliot/internal/stats"
	"github.com/causaliot/causaliot/internal/timeseries"
)

const benchDays = 5

var (
	pipeOnce sync.Once
	pipe     *experiments.Pipeline
	pipeErr  error
)

func sharedPipeline(b *testing.B) *experiments.Pipeline {
	b.Helper()
	pipeOnce.Do(func() {
		pipe, pipeErr = experiments.Setup(nil, experiments.Config{Seed: 1, Days: benchDays})
	})
	if pipeErr != nil {
		b.Fatal(pipeErr)
	}
	return pipe
}

// BenchmarkTable1DeviceInventory regenerates Table I.
func BenchmarkTable1DeviceInventory(b *testing.B) {
	tb := sim.ContextActLike()
	for i := 0; i < b.N; i++ {
		if rows := tb.Inventory(); len(rows) != 7 {
			b.Fatalf("inventory rows = %d", len(rows))
		}
	}
}

// BenchmarkTable2RuleGeneration regenerates Table II: rule validation and
// chain analysis over the installed automation rules.
func BenchmarkTable2RuleGeneration(b *testing.B) {
	tb := sim.ContextActLike()
	for i := 0; i < b.N; i++ {
		engine, err := automation.NewEngine(tb.Rules)
		if err != nil {
			b.Fatal(err)
		}
		if engine.MaxChainLength() < 2 {
			b.Fatal("no rule chains")
		}
	}
}

// BenchmarkTable3InteractionMining regenerates Table III: the full
// simulate→preprocess→TemporalPC pipeline.
func BenchmarkTable3InteractionMining(b *testing.B) {
	for i := 0; i < b.N; i++ {
		p, err := experiments.Setup(nil, experiments.Config{Seed: int64(i + 1), Days: benchDays})
		if err != nil {
			b.Fatal(err)
		}
		res := p.EvaluateMining()
		b.ReportMetric(res.Confusion.Precision(), "precision")
		b.ReportMetric(res.Confusion.Recall(), "recall")
	}
}

// BenchmarkMiningPrecisionRecall regenerates the §VI-B headline numbers on
// the shared pipeline (mining evaluation only).
func BenchmarkMiningPrecisionRecall(b *testing.B) {
	p := sharedPipeline(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := p.EvaluateMining()
		b.ReportMetric(res.Confusion.Precision(), "precision")
		b.ReportMetric(res.Confusion.Recall(), "recall")
	}
}

// BenchmarkTable4Contextual regenerates one Table IV row per iteration,
// cycling through the four anomaly cases.
func BenchmarkTable4Contextual(b *testing.B) {
	p := sharedPipeline(b)
	cases := experiments.AllContextualCases()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c := cases[i%len(cases)]
		res, err := p.ContextualDetection(c, 0)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.Confusion.Precision(), "precision")
		b.ReportMetric(res.Confusion.Recall(), "recall")
	}
}

// BenchmarkFigure5Baselines regenerates one Figure 5 group: the same
// injected stream replayed through CausalIoT, the Markov chain, the OCSVM,
// and HAWatcher.
func BenchmarkFigure5Baselines(b *testing.B) {
	p := sharedPipeline(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		results, err := p.BaselineComparison(inject.RemoteControl, 0)
		if err != nil {
			b.Fatal(err)
		}
		if len(results) != 4 {
			b.Fatalf("detectors = %d", len(results))
		}
	}
}

// BenchmarkTable5Collective regenerates one Table V row per iteration,
// cycling through the three cases at k_max = 3.
func BenchmarkTable5Collective(b *testing.B) {
	p := sharedPipeline(b)
	cases := experiments.AllCollectiveCases()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c := cases[i%len(cases)]
		res, err := p.CollectiveDetection(c, 0, 3)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.Report.DetectedRate(), "detected")
		b.ReportMetric(res.Report.TrackedRate(), "tracked")
	}
}

// BenchmarkTemporalPCWorkedExample regenerates the Figure 2 / Figure 4
// worked example: TemporalPC on a three-device light→heater→temperature
// chain, pruning the spurious light→temperature edge.
func BenchmarkTemporalPCWorkedExample(b *testing.B) {
	reg, err := timeseries.NewRegistry([]string{"light", "heater", "temp"})
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(13))
	flip := func(v int, p float64) int {
		if rng.Float64() < p {
			return 1 - v
		}
		return v
	}
	steps := make([]timeseries.Step, 0, 6000)
	light, heater := 0, 0
	for j := 0; j < 6000; j++ {
		switch j % 3 {
		case 0:
			light = rng.Intn(2)
			steps = append(steps, timeseries.Step{Device: 0, Value: light})
		case 1:
			heater = flip(light, 0.05)
			steps = append(steps, timeseries.Step{Device: 1, Value: heater})
		default:
			steps = append(steps, timeseries.Step{Device: 2, Value: flip(heater, 0.05)})
		}
	}
	series, err := timeseries.FromSteps(reg, timeseries.State{0, 0, 0}, steps)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		miner := pc.NewMiner(pc.Config{})
		g, _, _, err := miner.Mine(series, 2, 0.01)
		if err != nil {
			b.Fatal(err)
		}
		for _, pair := range g.DevicePairs() {
			if pair.Cause == 0 && pair.Outcome == 2 {
				b.Fatal("spurious light->temp edge survived")
			}
		}
	}
}

// --- Ablations (design decisions called out in DESIGN.md) ---

// BenchmarkAblationSmoothing sweeps the CPT Laplace pseudo-count: heavy
// smoothing caps the anomaly score of sparse contexts (a context seen n
// times can never score beyond 1-s/(n+2s)).
func BenchmarkAblationSmoothing(b *testing.B) {
	for _, s := range []float64{0.01, 1} {
		b.Run(map[float64]string{0.01: "s0.01", 1: "s1"}[s], func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				cpt := dig.NewCPT([]dig.Node{{Device: 0, Lag: 1}}, s)
				for k := 0; k < 50; k++ {
					if err := cpt.Observe([]int{1}, 0); err != nil {
						b.Fatal(err)
					}
				}
				p, err := cpt.Prob(1, []int{1})
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(1-p, "max-score")
			}
		})
	}
}

// BenchmarkAblationTau sweeps the maximum time lag: a larger τ multiplies
// the candidate causes and the CI-test budget (§V-D).
func BenchmarkAblationTau(b *testing.B) {
	tb := sim.ContextActLike()
	simr, err := sim.NewSimulator(tb, sim.Config{Seed: 2, Days: 2})
	if err != nil {
		b.Fatal(err)
	}
	log, err := simr.Run()
	if err != nil {
		b.Fatal(err)
	}
	for _, tau := range []int{1, 2, 3} {
		b.Run(map[int]string{1: "tau1", 2: "tau2", 3: "tau3"}[tau], func(b *testing.B) {
			pre, err := preprocess.New(tb.Devices, preprocess.Config{TauOverride: tau})
			if err != nil {
				b.Fatal(err)
			}
			res, err := pre.Process(log)
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				miner := pc.NewMiner(pc.Config{MaxCondSize: 3, MinObsPerDOF: 5, MaxParents: 8})
				_, _, st, err := miner.Mine(res.Series, tau, 0.01)
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(float64(st.Tests), "ci-tests")
			}
		})
	}
}

// BenchmarkAblationQ sweeps the threshold percentile q of the score
// calculator (§V-C).
func BenchmarkAblationQ(b *testing.B) {
	p := sharedPipeline(b)
	for _, q := range []float64{95, 99, 99.9} {
		b.Run(map[float64]string{95: "q95", 99: "q99", 99.9: "q99.9"}[q], func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				c, err := monitor.Threshold(p.Graph, p.Train, q)
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(c, "threshold")
			}
		})
	}
}

// BenchmarkAblationAnchors compares all-snapshot CI anchoring (the paper's
// formulation, default) with event anchoring.
func BenchmarkAblationAnchors(b *testing.B) {
	for _, mode := range []string{"all", "event"} {
		b.Run(mode, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				p, err := experiments.Setup(nil, experiments.Config{
					Seed: 3, Days: 3, EventAnchors: mode == "event",
				})
				if err != nil {
					b.Fatal(err)
				}
				res := p.EvaluateMining()
				b.ReportMetric(res.Confusion.Precision(), "precision")
				b.ReportMetric(res.Confusion.Recall(), "recall")
			}
		})
	}
}

// --- Microbenchmarks for the hot paths ---

// BenchmarkGSquareTest measures one conditional-independence test over 10k
// observations with a two-variable conditioning set.
func BenchmarkGSquareTest(b *testing.B) {
	n := 10000
	mk := func(seed int) stats.Sample {
		vals := make([]int, n)
		for i := range vals {
			vals[i] = (i / (seed + 1)) % 2
		}
		return stats.Sample{Values: vals, Arity: 2}
	}
	x, y := mk(1), mk(2)
	zs := []stats.Sample{mk(3), mk(4)}
	tester := stats.GSquareTester{}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := tester.Test(x, y, zs); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDetectorThroughput measures runtime event validation — the O(1)
// table lookup the paper's §V-D complexity analysis promises.
func BenchmarkDetectorThroughput(b *testing.B) {
	p := sharedPipeline(b)
	det, err := monitor.NewDetector(p.Graph, p.Threshold, 1, p.Test.State(0))
	if err != nil {
		b.Fatal(err)
	}
	steps := make([]timeseries.Step, p.Test.Len())
	for j := 1; j <= p.Test.Len(); j++ {
		st, err := p.Test.StepAt(j)
		if err != nil {
			b.Fatal(err)
		}
		steps[j-1] = st
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st := steps[i%len(steps)]
		if _, err := det.ProcessStep(st); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPhantomUpdate measures the phantom state machine's sliding
// window update: the detector's timeseries.Window advanced in place.
func BenchmarkPhantomUpdate(b *testing.B) {
	n := len(sim.ContextActLike().DeviceNames())
	win, err := timeseries.NewWindow(3, make(timeseries.State, n))
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		win.Advance(i%n, i%2)
	}
}

// BenchmarkCPTFit measures maximum-likelihood CPT estimation over the
// shared training series.
func BenchmarkCPTFit(b *testing.B) {
	p := sharedPipeline(b)
	parents := make([][]dig.Node, p.Train.Registry.Len())
	for i := range parents {
		parents[i] = p.Graph.Parents(i)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g, err := dig.New(p.Train.Registry, p.Graph.Tau, parents, 0.01)
		if err != nil {
			b.Fatal(err)
		}
		if err := g.Fit(p.Train); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Serving hub benchmarks ---

var (
	hubSysOnce sync.Once
	hubSys     *causaliot.System
	hubSys2    *causaliot.System
	hubStream  []causaliot.Event
	hubSysErr  error
)

// hubBenchSystem trains two systems on the same two-device inventory
// (for hot-swap benches) and synthesizes a runtime stream to replay.
func hubBenchSystem(b *testing.B) (*causaliot.System, *causaliot.System, []causaliot.Event) {
	b.Helper()
	hubSysOnce.Do(func() {
		devices := []causaliot.Device{
			{Name: "presence", Type: causaliot.Presence, Location: "hall"},
			{Name: "light", Type: causaliot.Switch, Location: "hall"},
		}
		gen := func(n int, seed int64) []causaliot.Event {
			rng := rand.New(rand.NewSource(seed))
			ts := time.Date(2023, 6, 1, 8, 0, 0, 0, time.UTC)
			var log []causaliot.Event
			for i := 0; i < n; i++ {
				ts = ts.Add(time.Duration(20+rng.Intn(20)) * time.Second)
				log = append(log,
					causaliot.Event{Time: ts, Device: "presence", Value: 1},
					causaliot.Event{Time: ts.Add(3 * time.Second), Device: "light", Value: 1},
					causaliot.Event{Time: ts.Add(time.Minute), Device: "presence", Value: 0},
					causaliot.Event{Time: ts.Add(time.Minute + 4*time.Second), Device: "light", Value: 0},
				)
			}
			return log
		}
		hubSys, hubSysErr = causaliot.Train(devices, gen(400, 1), causaliot.Config{Tau: 2})
		if hubSysErr != nil {
			return
		}
		hubSys2, hubSysErr = causaliot.Train(devices, gen(400, 2), causaliot.Config{Tau: 2})
		hubStream = gen(2000, 3)
	})
	if hubSysErr != nil {
		b.Fatal(hubSysErr)
	}
	return hubSys, hubSys2, hubStream
}

// pick returns a when cond holds, else b.
func pick(cond bool, a, b int) int {
	if cond {
		return a
	}
	return b
}

// BenchmarkHubThroughput measures hub ingest→detect throughput as the
// tenant count and worker pool grow: events/sec scaling with workers at
// tenants > 1 demonstrates cross-home parallelism on top of the per-home
// ordered streams.
func BenchmarkHubThroughput(b *testing.B) {
	sys, _, stream := hubBenchSystem(b)
	for _, tenants := range []int{1, 4, 16} {
		for _, workers := range []int{1, 4} {
			b.Run(fmt.Sprintf("tenants%d/workers%d", tenants, workers), func(b *testing.B) {
				h := causaliot.NewHub(causaliot.HubConfig{
					Workers:     workers,
					QueueSize:   4096,
					AlarmBuffer: 16, // overflow drops, keeping the bench unattended
				})
				for i := 0; i < tenants; i++ {
					if err := h.Register(fmt.Sprintf("home-%d", i), sys, causaliot.TenantOptions{}); err != nil {
						b.Fatal(err)
					}
				}
				each := b.N / tenants
				b.ResetTimer()
				var wg sync.WaitGroup
				for i := 0; i < tenants; i++ {
					wg.Add(1)
					go func(name string, extra int) {
						defer wg.Done()
						for j := 0; j < each+extra; j++ {
							if err := h.Submit(name, stream[j%len(stream)]); err != nil {
								b.Error(err)
								return
							}
						}
					}(fmt.Sprintf("home-%d", i), pick(i == 0, b.N-each*tenants, 0))
				}
				wg.Wait()
				if err := h.Close(); err != nil {
					b.Fatal(err)
				}
				elapsed := b.Elapsed()
				if s := h.Stats().Total; s.Processed != uint64(b.N) {
					b.Fatalf("processed %d of %d events", s.Processed, b.N)
				}
				if elapsed > 0 {
					b.ReportMetric(float64(b.N)/elapsed.Seconds(), "events/sec")
				}
			})
		}
	}
}

// BenchmarkHubHotSwap measures model hot-swap under load: a retrained
// system is swapped in every 512 events while producers keep streaming.
// The bench fails if a single in-flight event is dropped.
func BenchmarkHubHotSwap(b *testing.B) {
	sysA, sysB, stream := hubBenchSystem(b)
	h := causaliot.NewHub(causaliot.HubConfig{Workers: 4, QueueSize: 4096, AlarmBuffer: 16})
	const tenants = 4
	for i := 0; i < tenants; i++ {
		if err := h.Register(fmt.Sprintf("home-%d", i), sysA, causaliot.TenantOptions{}); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	swaps := 0
	for i := 0; i < b.N; i++ {
		name := fmt.Sprintf("home-%d", i%tenants)
		if err := h.Submit(name, stream[i%len(stream)]); err != nil {
			b.Fatal(err)
		}
		if i%512 == 511 {
			sys := sysA
			if swaps%2 == 0 {
				sys = sysB
			}
			if err := h.Swap(name, sys); err != nil {
				b.Fatal(err)
			}
			swaps++
		}
	}
	if err := h.Close(); err != nil {
		b.Fatal(err)
	}
	s := h.Stats().Total
	if s.Processed != uint64(b.N) || s.Dropped != 0 {
		b.Fatalf("hot swap dropped events: processed %d of %d, dropped %d", s.Processed, b.N, s.Dropped)
	}
	b.ReportMetric(float64(swaps), "swaps")
}

// BenchmarkSimulator measures raw event generation throughput.
func BenchmarkSimulator(b *testing.B) {
	tb := sim.ContextActLike()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s, err := sim.NewSimulator(tb, sim.Config{Seed: int64(i), Days: 1})
		if err != nil {
			b.Fatal(err)
		}
		log, err := s.Run()
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(len(log)), "events/day")
	}
}
