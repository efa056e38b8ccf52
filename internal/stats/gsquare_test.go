package stats

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func binarySample(vals []int) Sample { return Sample{Values: vals, Arity: 2} }

func TestGSquareIndependentVariables(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	n := 4000
	x := make([]int, n)
	y := make([]int, n)
	for i := 0; i < n; i++ {
		x[i] = rng.Intn(2)
		y[i] = rng.Intn(2)
	}
	res, err := GSquareTester{}.Test(binarySample(x), binarySample(y), nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.PValue < 0.001 {
		t.Errorf("independent variables rejected: p=%v stat=%v", res.PValue, res.Statistic)
	}
	if res.DOF != 1 {
		t.Errorf("dof = %d, want 1", res.DOF)
	}
}

func TestGSquareDependentVariables(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	n := 2000
	x := make([]int, n)
	y := make([]int, n)
	for i := 0; i < n; i++ {
		x[i] = rng.Intn(2)
		y[i] = x[i]
		if rng.Float64() < 0.05 {
			y[i] = 1 - y[i]
		}
	}
	res, err := GSquareTester{}.Test(binarySample(x), binarySample(y), nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.PValue > 1e-6 {
		t.Errorf("strongly dependent variables not rejected: p=%v", res.PValue)
	}
}

// A chain X -> Z -> Y: X and Y are marginally dependent but conditionally
// independent given Z. This is exactly the "intermediate device" spurious
// interaction the paper's TemporalPC must remove.
func TestGSquareChainConditionalIndependence(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	n := 8000
	x := make([]int, n)
	z := make([]int, n)
	y := make([]int, n)
	noise := func(v int, p float64) int {
		if rng.Float64() < p {
			return 1 - v
		}
		return v
	}
	for i := 0; i < n; i++ {
		x[i] = rng.Intn(2)
		z[i] = noise(x[i], 0.1)
		y[i] = noise(z[i], 0.1)
	}
	marginal, err := GSquareTester{}.Test(binarySample(x), binarySample(y), nil)
	if err != nil {
		t.Fatal(err)
	}
	if marginal.PValue > 1e-6 {
		t.Fatalf("chain endpoints should be marginally dependent, p=%v", marginal.PValue)
	}
	conditional, err := GSquareTester{}.Test(binarySample(x), binarySample(y), []Sample{binarySample(z)})
	if err != nil {
		t.Fatal(err)
	}
	if conditional.PValue < 0.001 {
		t.Errorf("chain endpoints should be conditionally independent given Z, p=%v", conditional.PValue)
	}
	if conditional.DOF != 2 {
		t.Errorf("conditional dof = %d, want 2", conditional.DOF)
	}
}

// A common cause Z -> X, Z -> Y behaves the same way.
func TestGSquareCommonCauseConditionalIndependence(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	n := 8000
	x := make([]int, n)
	z := make([]int, n)
	y := make([]int, n)
	noise := func(v int, p float64) int {
		if rng.Float64() < p {
			return 1 - v
		}
		return v
	}
	for i := 0; i < n; i++ {
		z[i] = rng.Intn(2)
		x[i] = noise(z[i], 0.15)
		y[i] = noise(z[i], 0.15)
	}
	conditional, err := GSquareTester{}.Test(binarySample(x), binarySample(y), []Sample{binarySample(z)})
	if err != nil {
		t.Fatal(err)
	}
	if conditional.PValue < 0.001 {
		t.Errorf("common-cause children should be conditionally independent given Z, p=%v", conditional.PValue)
	}
}

func TestGSquareValidation(t *testing.T) {
	if _, err := (GSquareTester{}).Test(binarySample([]int{0, 1}), binarySample([]int{0}), nil); err == nil {
		t.Error("expected length-mismatch error")
	}
	if _, err := (GSquareTester{}).Test(Sample{Values: []int{0, 2}, Arity: 2}, binarySample([]int{0, 1}), nil); err == nil {
		t.Error("expected out-of-range value error")
	}
	if _, err := (GSquareTester{}).Test(Sample{Values: nil, Arity: 1}, binarySample(nil), nil); err == nil {
		t.Error("expected arity error")
	}
	if _, err := (GSquareTester{}).Test(binarySample(nil), binarySample(nil), nil); err == nil {
		t.Error("expected empty-sample error")
	}
}

func TestGSquareMinObsHeuristic(t *testing.T) {
	// 8 observations with a 3-variable conditioning set: dof = 8, so with
	// MinObsPerDOF=10 the test must refuse and assume independence.
	x := binarySample([]int{0, 1, 0, 1, 0, 1, 0, 1})
	y := binarySample([]int{0, 1, 0, 1, 0, 1, 0, 1})
	zs := []Sample{
		binarySample([]int{0, 0, 1, 1, 0, 0, 1, 1}),
		binarySample([]int{0, 1, 1, 0, 0, 1, 1, 0}),
		binarySample([]int{1, 1, 0, 0, 1, 1, 0, 0}),
	}
	res, err := GSquareTester{MinObsPerDOF: 10}.Test(x, y, zs)
	if err != nil {
		t.Fatal(err)
	}
	if res.Reliable {
		t.Error("expected test to be marked unreliable")
	}
	if res.PValue != 1 {
		t.Errorf("unreliable test p-value = %v, want 1", res.PValue)
	}
	// Without the heuristic the test actually runs and is marked reliable.
	res2, err := GSquareTester{}.Test(x, y, zs)
	if err != nil {
		t.Fatal(err)
	}
	if !res2.Reliable {
		t.Errorf("heuristic-free test should be marked reliable, got reliable=%v", res2.Reliable)
	}
	// With no conditioning set, the deterministic X==Y dependence fires
	// even on 8 observations.
	res3, err := GSquareTester{}.Test(x, y, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res3.PValue > 0.05 {
		t.Errorf("unconditional deterministic dependence should fire: p=%v", res3.PValue)
	}
}

func TestGSquareDeterministicDependence(t *testing.T) {
	// Y == X exactly: G² = 2·n·ln2 for balanced X.
	n := 100
	x := make([]int, n)
	for i := range x {
		x[i] = i % 2
	}
	res, err := GSquareTester{}.Test(binarySample(x), binarySample(x), nil)
	if err != nil {
		t.Fatal(err)
	}
	want := 2 * float64(n) * 0.6931471805599453
	if !almostEqual(res.Statistic, want, 1e-6) {
		t.Errorf("G² = %v, want %v", res.Statistic, want)
	}
}

// Property: the statistic is non-negative and the p-value lies in [0,1] for
// arbitrary binary data.
func TestGSquareProperty(t *testing.T) {
	f := func(seed int64, rawN uint16) bool {
		n := int(rawN%500) + 4
		rng := rand.New(rand.NewSource(seed))
		x := make([]int, n)
		y := make([]int, n)
		z := make([]int, n)
		for i := 0; i < n; i++ {
			x[i] = rng.Intn(2)
			y[i] = rng.Intn(2)
			z[i] = rng.Intn(2)
		}
		res, err := GSquareTester{}.Test(binarySample(x), binarySample(y), []Sample{binarySample(z)})
		if err != nil {
			return false
		}
		return res.Statistic >= 0 && res.PValue >= 0 && res.PValue <= 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// Property: swapping X and Y leaves the statistic unchanged (symmetry).
func TestGSquareSymmetryProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 300
		x := make([]int, n)
		y := make([]int, n)
		for i := 0; i < n; i++ {
			x[i] = rng.Intn(2)
			if rng.Float64() < 0.7 {
				y[i] = x[i]
			} else {
				y[i] = rng.Intn(2)
			}
		}
		a, err1 := GSquareTester{}.Test(binarySample(x), binarySample(y), nil)
		b, err2 := GSquareTester{}.Test(binarySample(y), binarySample(x), nil)
		if err1 != nil || err2 != nil {
			return false
		}
		return almostEqual(a.Statistic, b.Statistic, 1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// TestCountsMatchesSamplePath: a table accumulated incrementally must test
// bit-identically to the per-observation path over the same observations.
func TestCountsMatchesSamplePath(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	n := 3000
	x := make([]int, n)
	y := make([]int, n)
	z := make([]int, n)
	for i := 0; i < n; i++ {
		z[i] = rng.Intn(2)
		x[i] = rng.Intn(2)
		y[i] = x[i] ^ z[i]
		if rng.Float64() < 0.2 {
			y[i] = 1 - y[i]
		}
	}
	zs := []Sample{binarySample(z)}
	tester := GSquareTester{MinObsPerDOF: 5}
	ref, err := tester.Test(binarySample(x), binarySample(y), zs)
	if err != nil {
		t.Fatal(err)
	}
	joint := make([]float64, 2*2*2)
	for i := 0; i < n; i++ {
		joint[z[i]*4+x[i]*2+y[i]]++
	}
	got, err := tester.TestCounts(joint, 2, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	if got != ref {
		t.Fatalf("counts path %+v differs from sample path %+v", got, ref)
	}
}

func TestCountsMinObsGuard(t *testing.T) {
	joint := []float64{1, 0, 0, 1}
	res, err := GSquareTester{MinObsPerDOF: 100}.TestCounts(joint, 2, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	if res.Reliable || res.PValue != 1 {
		t.Fatalf("sparse table not marked unreliable: %+v", res)
	}
}

func TestCountsValidation(t *testing.T) {
	tester := GSquareTester{}
	cases := []struct {
		name  string
		joint []float64
		x, y  int
		zCard int
	}{
		{"arity", []float64{1, 2}, 1, 2, 1},
		{"zcard-zero", []float64{}, 2, 2, 0},
		{"zcard-overflow", []float64{}, 2, 2, maxZCard + 1},
		{"size", []float64{1, 2, 3}, 2, 2, 1},
		{"negative", []float64{1, -1, 2, 3}, 2, 2, 1},
		{"nan", []float64{1, math.NaN(), 2, 3}, 2, 2, 1},
		{"inf", []float64{1, math.Inf(1), 2, 3}, 2, 2, 1},
	}
	for _, c := range cases {
		if _, err := tester.TestCounts(c.joint, c.x, c.y, c.zCard); err == nil {
			t.Errorf("%s: invalid table accepted", c.name)
		}
	}
	if _, err := tester.TestCounts([]float64{0, 0, 0, 0}, 2, 2, 1); err != ErrEmpty {
		t.Errorf("zero-mass table: err = %v, want ErrEmpty", err)
	}
}
