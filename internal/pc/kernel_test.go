package pc

import (
	"math/rand"
	"reflect"
	"testing"

	"github.com/causaliot/causaliot/internal/stats"
	"github.com/causaliot/causaliot/internal/timeseries"
)

// webSeries simulates a denser five-device web (two chains sharing a hub)
// so the kernel differential tests exercise non-trivial conditioning sets
// and sep-sets, not just the three-device chain.
func webSeries(t *testing.T, m int, seed int64) *timeseries.Series {
	t.Helper()
	reg, err := timeseries.NewRegistry([]string{"a", "b", "c", "d", "e"})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(seed))
	flip := func(v int, p float64) int {
		if rng.Float64() < p {
			return 1 - v
		}
		return v
	}
	var steps []timeseries.Step
	a, b, c := 0, 0, 0
	for j := 0; j < m; j++ {
		switch j % 5 {
		case 0:
			a = rng.Intn(2)
			steps = append(steps, timeseries.Step{Device: 0, Value: a})
		case 1:
			b = flip(a, 0.08)
			steps = append(steps, timeseries.Step{Device: 1, Value: b})
		case 2:
			c = flip(b, 0.08)
			steps = append(steps, timeseries.Step{Device: 2, Value: c})
		case 3:
			steps = append(steps, timeseries.Step{Device: 3, Value: flip(b, 0.1)})
		default:
			steps = append(steps, timeseries.Step{Device: 4, Value: rng.Intn(2)})
		}
	}
	s, err := timeseries.FromSteps(reg, timeseries.State{0, 0, 0, 0, 0}, steps)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// scalarOnly hides a tester's popcount fast path: it embeds the
// stats.CITester interface, so only Test is promoted and a miner handed it
// runs every CI test on the scalar walk.
type scalarOnly struct{ stats.CITester }

// scalarConfig is cfg with its tester (the miner's default G² when nil)
// wrapped in scalarOnly.
func scalarConfig(cfg Config) Config {
	tester := cfg.Tester
	if tester == nil {
		tester = stats.GSquareTester{MinObsPerDOF: cfg.MinObsPerDOF}
	}
	cfg.Tester = scalarOnly{tester}
	return cfg
}

// TestMineKernelDifferential is the end-to-end contract of the popcount
// kernel: under every configuration, the bit and scalar kernels must mine
// the identical graph — same edges, same removal sep-sets and p-values,
// same test counts.
func TestMineKernelDifferential(t *testing.T) {
	configs := []struct {
		name string
		cfg  Config
	}{
		{"default", Config{}},
		{"stable", Config{Stable: true}},
		{"anchors", Config{EventAnchors: true}},
		{"capped", Config{MaxCondSize: 2, MaxParents: 2, MinObsPerDOF: 5}},
		{"pearson", Config{Tester: stats.PearsonChiSquareTester{MinObsPerDOF: 5}}},
	}
	for _, tc := range configs {
		t.Run(tc.name, func(t *testing.T) {
			s := webSeries(t, 5000, 29)
			bit, scalar := NewMiner(tc.cfg), NewMiner(scalarConfig(tc.cfg))
			if bit.bitTester == nil || scalar.bitTester != nil {
				t.Fatal("miners not on the intended counting paths")
			}
			gBit, remBit, stBit, err := bit.Mine(s, 2, 0.01)
			if err != nil {
				t.Fatal(err)
			}
			gScalar, remScalar, stScalar, err := scalar.Mine(s, 2, 0.01)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(gBit.Interactions(), gScalar.Interactions()) {
				t.Errorf("kernels mined different graphs:\nbit:    %v\nscalar: %v",
					gBit.Interactions(), gScalar.Interactions())
			}
			if !reflect.DeepEqual(remBit, remScalar) {
				t.Errorf("kernels recorded different removals:\nbit:    %v\nscalar: %v", remBit, remScalar)
			}
			if stBit != stScalar {
				t.Errorf("kernels ran different work: bit %+v, scalar %+v", stBit, stScalar)
			}
		})
	}
}

// TestClassicPCKernelDifferential mirrors the contract for the classic PC
// algorithm, including a non-binary variable that must fall back to the
// scalar path without disturbing the binary fast-path tests.
func TestClassicPCKernelDifferential(t *testing.T) {
	n := 3000
	rng := rand.New(rand.NewSource(31))
	x := make([]int, n)
	y := make([]int, n)
	z := make([]int, n)
	w := make([]int, n)
	for i := 0; i < n; i++ {
		x[i] = rng.Intn(2)
		y[i] = x[i]
		if rng.Float64() < 0.1 {
			y[i] = 1 - y[i]
		}
		z[i] = y[i]
		if rng.Float64() < 0.1 {
			z[i] = 1 - z[i]
		}
		w[i] = rng.Intn(3) // ternary: always scalar
	}
	names := []string{"x", "y", "z", "w"}
	samples := []stats.Sample{
		{Values: x, Arity: 2},
		{Values: y, Arity: 2},
		{Values: z, Arity: 2},
		{Values: w, Arity: 3},
	}
	pBit, stBit, err := ClassicPC(names, samples, Config{})
	if err != nil {
		t.Fatal(err)
	}
	pScalar, stScalar, err := ClassicPC(names, samples, scalarConfig(Config{}))
	if err != nil {
		t.Fatal(err)
	}
	if stBit != stScalar {
		t.Errorf("kernels ran different work: bit %+v, scalar %+v", stBit, stScalar)
	}
	for i := 0; i < len(names); i++ {
		for j := 0; j < len(names); j++ {
			if i == j {
				continue
			}
			if pBit.HasDirected(i, j) != pScalar.HasDirected(i, j) ||
				pBit.HasUndirected(i, j) != pScalar.HasUndirected(i, j) {
				t.Errorf("kernels disagree on edge %s-%s", names[i], names[j])
			}
		}
	}
}
