package stats

import (
	"errors"
	"fmt"
	"math"
)

// Sample is a column of discrete observations. Values must lie in
// [0, Arity); Arity is the number of categories (2 for the binary device
// states produced by the event preprocessor).
type Sample struct {
	Values []int
	Arity  int
}

// Validate checks that the sample is well formed.
func (s Sample) Validate() error {
	if s.Arity < 2 {
		return fmt.Errorf("stats: sample arity %d < 2", s.Arity)
	}
	for i, v := range s.Values {
		if v < 0 || v >= s.Arity {
			return fmt.Errorf("stats: value %d at row %d outside [0,%d)", v, i, s.Arity)
		}
	}
	return nil
}

// CIResult is the outcome of a conditional-independence test.
type CIResult struct {
	// Statistic is the observed G² value.
	Statistic float64
	// DOF is the degrees of freedom of the reference chi-square
	// distribution.
	DOF int
	// PValue is Pr[chi²(DOF) >= Statistic]. Large p-values support the
	// null hypothesis X ⊥ Y | Z.
	PValue float64
	// Reliable is false when the sample was too small relative to DOF for
	// the asymptotic chi-square approximation to be trusted (see
	// GSquareTester.MinObsPerDOF).
	Reliable bool
}

// GSquareTester runs G² (log-likelihood ratio) conditional-independence
// tests over discrete samples. The zero value is ready to use.
type GSquareTester struct {
	// MinObsPerDOF, when positive, marks a test unreliable (and returns
	// p-value 1, i.e. "assume independence") unless the number of
	// observations is at least MinObsPerDOF × DOF. This is the standard
	// small-sample heuristic used by constraint-based causal discovery
	// implementations; it keeps high-dimensional conditioning sets from
	// manufacturing spurious dependence out of sparse tables.
	MinObsPerDOF int
}

// ErrSampleMismatch is returned when the samples passed to a CI test do not
// share a common length.
var ErrSampleMismatch = errors.New("stats: samples have mismatched lengths")

// ErrCardinalityOverflow is returned when the joint cardinality of the
// conditioning set exceeds maxZCard: the stratified contingency table would
// be too large to allocate, and no test over so many strata could be
// informative anyway.
var ErrCardinalityOverflow = errors.New("stats: conditioning set cardinality overflow")

// maxZCard bounds ∏|Z_i|, the number of conditioning strata.
const maxZCard = 1 << 22

// ciPrologue validates the samples of a CI test and returns its shared
// geometry: the observation count, the conditioning-set cardinality
// ∏|Z_i| (bounded by maxZCard), and the degrees of freedom.
func ciPrologue(x, y Sample, zs []Sample) (n, zCard, dof int, err error) {
	if err := x.Validate(); err != nil {
		return 0, 0, 0, err
	}
	if err := y.Validate(); err != nil {
		return 0, 0, 0, err
	}
	n = len(x.Values)
	if len(y.Values) != n {
		return 0, 0, 0, ErrSampleMismatch
	}
	zCard = 1
	for _, z := range zs {
		if err := z.Validate(); err != nil {
			return 0, 0, 0, err
		}
		if len(z.Values) != n {
			return 0, 0, 0, ErrSampleMismatch
		}
		// Check the bound before multiplying so the final cardinality
		// (and the joint-table allocation it sizes) can never exceed
		// maxZCard, and the product cannot overflow.
		if z.Arity > maxZCard/zCard {
			return 0, 0, 0, ErrCardinalityOverflow
		}
		zCard *= z.Arity
	}
	if n == 0 {
		return 0, 0, 0, ErrEmpty
	}
	dof = (x.Arity - 1) * (y.Arity - 1) * zCard
	if dof < 1 {
		dof = 1
	}
	return n, zCard, dof, nil
}

// countJoint accumulates the stratified contingency table N(x,y,z), laid
// out as [z][x*|Y|+y], one observation at a time — the generic scalar
// counting path. Strata.jointCounts is the popcount equivalent for
// bit-packed binary samples.
func countJoint(x, y Sample, zs []Sample, zCard int) []float64 {
	xy := x.Arity * y.Arity
	joint := make([]float64, zCard*xy)
	for i := range x.Values {
		zIdx := 0
		for _, z := range zs {
			zIdx = zIdx*z.Arity + z.Values[i]
		}
		joint[zIdx*xy+x.Values[i]*y.Arity+y.Values[i]]++
	}
	return joint
}

// marginalBuf holds a statistic fold's per-stratum marginals N(x, z) and
// N(y, z) on the caller's stack for every arity the miner tests.
type marginalBuf [16]float64

// split returns the x and y marginal accumulators, backed by b unless the
// arities outgrow it.
func (b *marginalBuf) split(xArity, yArity int) (nx, ny []float64) {
	m := b[:]
	if xArity+yArity > len(b) {
		m = make([]float64, xArity+yArity)
	}
	return m[:xArity], m[xArity : xArity+yArity]
}

// gsquareStatistic folds a stratified contingency table into the G²
// statistic. Both the scalar and the bit-packed counting paths feed this
// same accumulation, so the two kernels produce bit-identical statistics.
func gsquareStatistic(joint []float64, xArity, yArity, zCard int) float64 {
	xy := xArity * yArity
	var g2 float64
	var buf marginalBuf
	nx, ny := buf.split(xArity, yArity)
	for zIdx := 0; zIdx < zCard; zIdx++ {
		cells := joint[zIdx*xy : (zIdx+1)*xy]
		var nz float64
		for i := range nx {
			nx[i] = 0
		}
		for j := range ny {
			ny[j] = 0
		}
		for i := 0; i < xArity; i++ {
			for j := 0; j < yArity; j++ {
				c := cells[i*yArity+j]
				nx[i] += c
				ny[j] += c
				nz += c
			}
		}
		if nz == 0 {
			continue
		}
		for i := 0; i < xArity; i++ {
			for j := 0; j < yArity; j++ {
				c := cells[i*yArity+j]
				if c == 0 {
					continue
				}
				g2 += 2 * c * math.Log(c*nz/(nx[i]*ny[j]))
			}
		}
	}
	if g2 < 0 {
		g2 = 0 // guard against negative rounding residue
	}
	return g2
}

// TestCounts computes the G² test directly from a pre-accumulated
// stratified contingency table, laid out exactly as countJoint builds it:
// joint[z*xArity*yArity + x*yArity + y]. It is the entry point for callers
// that maintain counts incrementally (e.g. the model-lifecycle drift scorer
// folding live events against trained CPT counts) instead of materializing
// per-observation samples; the statistic is folded by the same
// gsquareStatistic accumulation as Test and TestStrata, so all three paths
// produce bit-identical values on equal counts.
//
// Counts may be fractional but must be finite and non-negative; the
// MinObsPerDOF small-sample guard applies to the table's total mass.
func (t GSquareTester) TestCounts(joint []float64, xArity, yArity, zCard int) (CIResult, error) {
	if xArity < 2 || yArity < 2 {
		return CIResult{}, fmt.Errorf("stats: counts arity %dx%d, want at least 2x2", xArity, yArity)
	}
	if zCard < 1 || zCard > maxZCard {
		return CIResult{}, ErrCardinalityOverflow
	}
	if len(joint) != xArity*yArity*zCard {
		return CIResult{}, fmt.Errorf("stats: joint table has %d cells, want %d", len(joint), xArity*yArity*zCard)
	}
	var n float64
	for i, c := range joint {
		if math.IsNaN(c) || math.IsInf(c, 0) || c < 0 {
			return CIResult{}, fmt.Errorf("stats: joint cell %d holds invalid count %v", i, c)
		}
		n += c
	}
	if n == 0 {
		return CIResult{}, ErrEmpty
	}
	dof := (xArity - 1) * (yArity - 1) * zCard
	res := CIResult{DOF: dof, Reliable: true}
	if t.MinObsPerDOF > 0 && n < float64(t.MinObsPerDOF*dof) {
		res.Reliable = false
		res.PValue = 1
		return res, nil
	}
	res.Statistic = gsquareStatistic(joint, xArity, yArity, zCard)
	res.PValue = ChiSquareSurvival(res.Statistic, dof)
	return res, nil
}

// Test computes the G² statistic for the null hypothesis X ⊥ Y | Z.
//
// The statistic is G² = 2 Σ_{x,y,z} N(x,y,z) · ln( N(x,y,z)·N(z) /
// (N(x,z)·N(y,z)) ), summed over cells with positive counts, with
// dof = (|X|−1)(|Y|−1)·∏|Z_i|. The p-value is the chi-square survival
// function at the statistic.
func (t GSquareTester) Test(x, y Sample, zs []Sample) (CIResult, error) {
	n, zCard, dof, err := ciPrologue(x, y, zs)
	if err != nil {
		return CIResult{}, err
	}
	res := CIResult{DOF: dof, Reliable: true}
	if t.MinObsPerDOF > 0 && n < t.MinObsPerDOF*dof {
		// Too few observations for the asymptotic approximation:
		// treat the variables as independent rather than risk a
		// spurious edge.
		res.Reliable = false
		res.PValue = 1
		return res, nil
	}
	joint := countJoint(x, y, zs, zCard)
	res.Statistic = gsquareStatistic(joint, x.Arity, y.Arity, zCard)
	res.PValue = ChiSquareSurvival(res.Statistic, dof)
	return res, nil
}
