package pc

import (
	"sync"
	"testing"

	"github.com/causaliot/causaliot/internal/preprocess"
	"github.com/causaliot/causaliot/internal/sim"
	"github.com/causaliot/causaliot/internal/stats"
	"github.com/causaliot/causaliot/internal/timeseries"
)

var (
	mineBenchOnce   sync.Once
	mineBenchSeries *timeseries.Series
	mineBenchTau    int
	mineBenchErr    error
)

// mineBenchInput prepares the simulated-testbed series BenchmarkMine mines:
// the ContextAct-like home, four simulated days, default preprocessing.
func mineBenchInput(b *testing.B) (*timeseries.Series, int) {
	b.Helper()
	mineBenchOnce.Do(func() {
		tb := sim.ContextActLike()
		simulator, err := sim.NewSimulator(tb, sim.Config{Seed: 7, Days: 4})
		if err != nil {
			mineBenchErr = err
			return
		}
		log, err := simulator.Run()
		if err != nil {
			mineBenchErr = err
			return
		}
		pre, err := preprocess.New(tb.Devices, preprocess.Config{})
		if err != nil {
			mineBenchErr = err
			return
		}
		res, err := pre.Process(log)
		if err != nil {
			mineBenchErr = err
			return
		}
		mineBenchSeries, mineBenchTau = res.Series, res.Tau
	})
	if mineBenchErr != nil {
		b.Fatal(mineBenchErr)
	}
	return mineBenchSeries, mineBenchTau
}

// BenchmarkMine measures full skeleton construction + CPT fitting on the
// simulated testbed under each counting kernel, side by side; run it with
// -benchmem to see the allocations too.
func BenchmarkMine(b *testing.B) {
	series, tau := mineBenchInput(b)
	for _, k := range []stats.Kernel{stats.KernelBit, stats.KernelScalar} {
		b.Run(k.String(), func(b *testing.B) {
			miner := NewMiner(Config{
				MaxCondSize:  3,
				MinObsPerDOF: 5,
				MaxParents:   8,
				Kernel:       k,
			})
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, _, _, err := miner.Mine(series, tau, 0.01); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
