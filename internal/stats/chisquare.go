package stats

// CITester is a conditional-independence test. Constraint-based causal
// discovery "can encode various independence test methods to handle
// different types of data" (paper §VII-A); TemporalPC accepts any
// implementation. GSquareTester is the default (the paper's choice for
// binary states); PearsonChiSquareTester is the classic alternative.
type CITester interface {
	// Test evaluates the null hypothesis X ⊥ Y | Z.
	Test(x, y Sample, zs []Sample) (CIResult, error)
}

var (
	_ CITester = GSquareTester{}
	_ CITester = PearsonChiSquareTester{}
)

// PearsonChiSquareTester runs Pearson's X² conditional-independence test:
// X² = Σ (observed − expected)² / expected over the stratified contingency
// tables, with the same degrees of freedom as the G² test. It is
// asymptotically equivalent to G² but weighs sparse cells differently
// (X² is more conservative on small expected counts).
type PearsonChiSquareTester struct {
	// MinObsPerDOF mirrors GSquareTester's small-sample heuristic.
	MinObsPerDOF int
}

// pearsonStatistic folds a stratified contingency table into Pearson's X²
// statistic. Like gsquareStatistic it is shared by the scalar and the
// bit-packed counting paths, so the two kernels agree bit for bit.
func pearsonStatistic(joint []float64, xArity, yArity, zCard int) float64 {
	xy := xArity * yArity
	var x2 float64
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
				expected := nx[i] * ny[j] / nz
				if expected == 0 {
					continue
				}
				d := cells[i*yArity+j] - expected
				x2 += d * d / expected
			}
		}
	}
	return x2
}

// Test implements CITester.
func (t PearsonChiSquareTester) Test(x, y Sample, zs []Sample) (CIResult, error) {
	n, zCard, dof, err := ciPrologue(x, y, zs)
	if err != nil {
		return CIResult{}, err
	}
	res := CIResult{DOF: dof, Reliable: true}
	if t.MinObsPerDOF > 0 && n < t.MinObsPerDOF*dof {
		res.Reliable = false
		res.PValue = 1
		return res, nil
	}
	joint := countJoint(x, y, zs, zCard)
	res.Statistic = pearsonStatistic(joint, x.Arity, y.Arity, zCard)
	res.PValue = ChiSquareSurvival(res.Statistic, dof)
	return res, nil
}
