package pc

import (
	"testing"

	"github.com/causaliot/causaliot/internal/preprocess"
	"github.com/causaliot/causaliot/internal/sim"
	"github.com/causaliot/causaliot/internal/timeseries"
)

// mineBenchInput prepares the simulated-testbed series BenchmarkMine mines:
// the ContextAct-like home, four simulated days, default preprocessing with
// the given τ override (0 selects τ from the data).
func mineBenchInput(tb testing.TB, tauOverride int) (*timeseries.Series, int) {
	tb.Helper()
	testbed := sim.ContextActLike()
	simulator, err := sim.NewSimulator(testbed, sim.Config{Seed: 7, Days: 4})
	if err != nil {
		tb.Fatal(err)
	}
	log, err := simulator.Run()
	if err != nil {
		tb.Fatal(err)
	}
	pre, err := preprocess.New(testbed.Devices, preprocess.Config{TauOverride: tauOverride})
	if err != nil {
		tb.Fatal(err)
	}
	res, err := pre.Process(log)
	if err != nil {
		tb.Fatal(err)
	}
	return res.Series, res.Tau
}

// trainMinerConfig is the miner configuration causaliot.Train uses by
// default.
var trainMinerConfig = Config{MaxCondSize: 3, MinObsPerDOF: 5, MaxParents: 8}

// BenchmarkMine measures full skeleton construction + CPT fitting on the
// simulated testbed under each counting kernel, side by side: bit is the
// miner's default G² tester, scalar the same tester behind scalarOnly. Run
// it with -benchmem to see the allocations too.
func BenchmarkMine(b *testing.B) {
	series, tau := mineBenchInput(b, 0)
	for _, k := range []struct {
		name string
		cfg  Config
	}{{"bit", trainMinerConfig}, {"scalar", scalarConfig(trainMinerConfig)}} {
		b.Run(k.name, func(b *testing.B) {
			miner := NewMiner(k.cfg)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, _, _, err := miner.Mine(series, tau, 0.01); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
