package stats

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"
)

func randomBinarySample(rng *rand.Rand, n int, bias float64) Sample {
	vals := make([]int, n)
	for i := range vals {
		if rng.Float64() < bias {
			vals[i] = 1
		}
	}
	return Sample{Values: vals, Arity: 2}
}

func mustPack(t *testing.T, s Sample) BitSample {
	t.Helper()
	b, err := PackSample(s)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestPackSampleRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{0, 1, 63, 64, 65, 128, 130, 1000} {
		s := randomBinarySample(rng, n, 0.37)
		b := mustPack(t, s)
		if b.Len() != n {
			t.Fatalf("n=%d: Len() = %d", n, b.Len())
		}
		ones := 0
		for i, v := range s.Values {
			if b.Bit(i) != v {
				t.Fatalf("n=%d: Bit(%d) = %d, want %d", n, i, b.Bit(i), v)
			}
			ones += v
		}
		if b.Ones() != ones {
			t.Errorf("n=%d: Ones() = %d, want %d", n, b.Ones(), ones)
		}
	}
}

func TestPackSampleRejectsNonBinary(t *testing.T) {
	if _, err := PackSample(Sample{Values: []int{0, 1}, Arity: 3}); err == nil {
		t.Error("arity-3 sample packed")
	}
	if _, err := PackSample(Sample{Values: []int{0, 2}, Arity: 2}); err == nil {
		t.Error("out-of-range value packed")
	}
}

// kernelTrialN draws a sample length: mostly on either side of a multiple
// of 64, so the tail mask and whole-word boundaries are always in play.
func kernelTrialN(rng *rand.Rand) int {
	if rng.Intn(4) == 0 {
		return 1 + rng.Intn(400)
	}
	n := 64*rng.Intn(7) + rng.Intn(3) - 1 // 64k−1, 64k, 64k+1
	if n < 1 {
		n = 1
	}
	return n
}

// kernelTrialBias draws a column's probability of 1: often so close to 0
// or 1 that whole words, and whole strata, hold no observations.
func kernelTrialBias(rng *rand.Rand) float64 {
	switch rng.Intn(5) {
	case 0:
		return 0.002 * rng.Float64()
	case 1:
		return 1 - 0.002*rng.Float64()
	case 2:
		return 0.03 * rng.Float64()
	case 3:
		return 1 - 0.03*rng.Float64()
	default:
		return rng.Float64()
	}
}

// strataTest is one bit-kernel test of x against (y, zs): NewStrata, then
// TestStrata counting into a fresh table.
func strataTest(t BitCITester, x, y BitSample, zs []BitSample) (CIResult, error) {
	s, err := NewStrata(y, zs)
	if err != nil {
		return CIResult{}, err
	}
	return t.TestStrata(x, s, nil)
}

// TestBitKernelMatchesScalar is the differential contract of the popcount
// kernel: across randomized binary tables of every shape — conditioning
// sets up to bitKernelMaxCond (8) columns, near-constant columns that
// leave words and strata empty, lengths on both sides of every word
// boundary — TestStrata must return exactly, bit for bit, what Test returns.
func TestBitKernelMatchesScalar(t *testing.T) {
	testers := []struct {
		name   string
		scalar CITester
		bit    BitCITester
	}{
		{"gsquare", GSquareTester{}, GSquareTester{}},
		{"gsquare-minobs", GSquareTester{MinObsPerDOF: 5}, GSquareTester{MinObsPerDOF: 5}},
		{"pearson", PearsonChiSquareTester{}, PearsonChiSquareTester{}},
		{"pearson-minobs", PearsonChiSquareTester{MinObsPerDOF: 5}, PearsonChiSquareTester{MinObsPerDOF: 5}},
	}
	rng := rand.New(rand.NewSource(42))
	for _, tc := range testers {
		t.Run(tc.name, func(t *testing.T) {
			for trial := 0; trial < 400; trial++ {
				n := kernelTrialN(rng)
				l := rng.Intn(9)
				bias := kernelTrialBias(rng)
				x := randomBinarySample(rng, n, bias)
				y := randomBinarySample(rng, n, kernelTrialBias(rng))
				// Correlate y with x on some trials so the test
				// exercises non-trivial statistics.
				if trial%2 == 0 {
					for i := range y.Values {
						if rng.Float64() < 0.7 {
							y.Values[i] = x.Values[i]
						}
					}
				}
				zs := make([]Sample, l)
				zb := make([]BitSample, l)
				for k := range zs {
					zs[k] = randomBinarySample(rng, n, kernelTrialBias(rng))
					zb[k] = mustPack(t, zs[k])
				}
				want, err := tc.scalar.Test(x, y, zs)
				if err != nil {
					t.Fatal(err)
				}
				got, err := strataTest(tc.bit, mustPack(t, x), mustPack(t, y), zb)
				if err != nil {
					t.Fatal(err)
				}
				if got != want {
					t.Fatalf("trial %d (n=%d l=%d): bit kernel %+v != scalar %+v", trial, n, l, got, want)
				}
			}
		})
	}
}

// TestStrataReuseMatchesScalar pins the cached path the miner takes: one
// Strata built for (y, Z) and tested against many candidates x must give,
// for every x, exactly what Test gives on the unpacked samples.
func TestStrataReuseMatchesScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	// One scratch table across every test, as a miner worker keeps it:
	// strata of every size reuse and regrow it.
	var scratch Scratch
	for _, tester := range []BitCITester{GSquareTester{MinObsPerDOF: 5}, PearsonChiSquareTester{}} {
		for trial := 0; trial < 40; trial++ {
			n := kernelTrialN(rng)
			l := rng.Intn(9)
			y := randomBinarySample(rng, n, kernelTrialBias(rng))
			zs := make([]Sample, l)
			zb := make([]BitSample, l)
			for k := range zs {
				zs[k] = randomBinarySample(rng, n, kernelTrialBias(rng))
				zb[k] = mustPack(t, zs[k])
			}
			strata, err := NewStrata(mustPack(t, y), zb)
			if err != nil {
				t.Fatal(err)
			}
			for cand := 0; cand < 25; cand++ {
				x := randomBinarySample(rng, n, kernelTrialBias(rng))
				if cand%3 == 0 {
					for i := range x.Values {
						if rng.Float64() < 0.8 {
							x.Values[i] = y.Values[i]
						}
					}
				}
				want, err := tester.Test(x, y, zs)
				if err != nil {
					t.Fatal(err)
				}
				got, err := tester.TestStrata(mustPack(t, x), strata, &scratch)
				if err != nil {
					t.Fatal(err)
				}
				if got != want {
					t.Fatalf("%T trial %d candidate %d (n=%d l=%d): strata %+v != scalar %+v",
						tester, trial, cand, n, l, got, want)
				}
			}
		}
	}
}

// TestBitJointCountsTailBits pins the padding-bit handling: complemented
// conditioning words set the bits beyond n, and the final word's root mask
// must keep them out of every stratum. Empty strata are not kept.
func TestBitJointCountsTailBits(t *testing.T) {
	for _, n := range []int{1, 63, 64, 65, 127, 129} {
		ones := Sample{Values: make([]int, n), Arity: 2}
		zeros := Sample{Values: make([]int, n), Arity: 2}
		for i := range ones.Values {
			ones.Values[i] = 1
		}
		x, z := mustPack(t, ones), mustPack(t, zeros)
		// Stratum z=0 holds all n observations; z=1 holds none.
		s, err := NewStrata(x, []BitSample{z})
		if err != nil {
			t.Fatal(err)
		}
		joint := s.jointCounts(x, nil)
		if len(joint) != 4 {
			t.Fatalf("n=%d: %d cells, want the one nonempty stratum's 4", n, len(joint))
		}
		total := 0.0
		for _, c := range joint {
			total += c
		}
		if total != float64(n) {
			t.Errorf("n=%d: counts sum to %v", n, total)
		}
		if joint[3] != float64(n) {
			t.Errorf("n=%d: N(1,1,z=0) = %v, want %d", n, joint[3], n)
		}
	}
}

func TestBitKernelValidation(t *testing.T) {
	g := GSquareTester{}
	a := mustPack(t, Sample{Values: []int{0, 1, 1}, Arity: 2})
	b := mustPack(t, Sample{Values: []int{0, 1}, Arity: 2})
	if _, err := strataTest(g, a, b, nil); !errors.Is(err, ErrSampleMismatch) {
		t.Errorf("mismatched lengths: err = %v", err)
	}
	if _, err := strataTest(g, a, a, []BitSample{b}); !errors.Is(err, ErrSampleMismatch) {
		t.Errorf("mismatched z length: err = %v", err)
	}
	empty := mustPack(t, Sample{Arity: 2})
	if _, err := strataTest(g, empty, empty, nil); !errors.Is(err, ErrEmpty) {
		t.Errorf("empty samples: err = %v", err)
	}
	strata, err := NewStrata(b, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := g.TestStrata(a, strata, nil); !errors.Is(err, ErrSampleMismatch) {
		t.Errorf("candidate length differs from strata: err = %v", err)
	}
}

// TestCardinalityOverflowBoundary covers the ∏|Z_i| guard at its exact
// boundary for both counting paths: a product of 2^22 passes (the
// small-sample heuristic returns before any allocation), one more factor
// fails — and the check happens after the multiply, so the final
// cardinality can never exceed the bound.
func TestCardinalityOverflowBoundary(t *testing.T) {
	one := Sample{Values: []int{0}, Arity: 2}
	atBound := make([]Sample, 22) // 2^22 == maxZCard
	for i := range atBound {
		atBound[i] = one
	}
	overBound := append(append([]Sample{}, atBound...), one)

	for _, tc := range []struct {
		name   string
		tester CITester
	}{
		{"gsquare", GSquareTester{MinObsPerDOF: 1}},
		{"pearson", PearsonChiSquareTester{MinObsPerDOF: 1}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			res, err := tc.tester.Test(one, one, atBound)
			if err != nil {
				t.Fatalf("zCard at bound rejected: %v", err)
			}
			if res.Reliable || res.PValue != 1 {
				t.Errorf("tiny sample at bound not declined: %+v", res)
			}
			if _, err := tc.tester.Test(one, one, overBound); !errors.Is(err, ErrCardinalityOverflow) {
				t.Errorf("zCard over bound: err = %v", err)
			}
		})
	}

	// The bit path enforces the same bound.
	b := mustPack(t, one)
	zb := make([]BitSample, 23)
	for i := range zb {
		zb[i] = b
	}
	if _, err := strataTest(GSquareTester{}, b, b, zb[:22]); err != nil {
		t.Errorf("bit path at bound rejected: %v", err)
	}
	if _, err := strataTest(GSquareTester{}, b, b, zb); !errors.Is(err, ErrCardinalityOverflow) {
		t.Errorf("bit path over bound: err = %v", err)
	}
}

// BenchmarkGSquare compares the scalar and popcount counting kernels on a
// single CI test at conditioning-set sizes 0, 2 and 3: bit builds the
// strata and tests once, strata tests against strata built beforehand.
func BenchmarkGSquare(b *testing.B) {
	n := 10000
	rng := rand.New(rand.NewSource(9))
	for _, l := range []int{0, 2, 3} {
		x := randomBinarySample(rng, n, 0.4)
		y := randomBinarySample(rng, n, 0.6)
		zs := make([]Sample, l)
		zb := make([]BitSample, l)
		for k := range zs {
			zs[k] = randomBinarySample(rng, n, 0.5)
			packed, err := PackSample(zs[k])
			if err != nil {
				b.Fatal(err)
			}
			zb[k] = packed
		}
		xb, _ := PackSample(x)
		yb, _ := PackSample(y)
		tester := GSquareTester{}
		b.Run(fmt.Sprintf("scalar/l%d", l), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := tester.Test(x, y, zs); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("bit/l%d", l), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := strataTest(tester, xb, yb, zb); err != nil {
					b.Fatal(err)
				}
			}
		})
		// strata: the miner's cached path, (y, Z) prepared once and
		// only the candidate's counts taken per test.
		b.Run(fmt.Sprintf("strata/l%d", l), func(b *testing.B) {
			strata, err := NewStrata(yb, zb)
			if err != nil {
				b.Fatal(err)
			}
			var scratch Scratch
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := tester.TestStrata(xb, strata, &scratch); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
