package stats

import (
	"fmt"
	"math/bits"
	"slices"
)

// BitSample is a binary sample packed 64 observations per machine word:
// observation i lives at bit i%64 of word i/64. Padding bits beyond the
// observation count are always zero. It is the input of the popcount
// counting kernel; build one with PackSample.
type BitSample struct {
	words []uint64
	n     int
}

// PackSample packs a binary sample (arity 2, every value 0 or 1) into a
// BitSample. Non-binary samples are rejected.
func PackSample(s Sample) (BitSample, error) {
	if s.Arity != 2 {
		return BitSample{}, fmt.Errorf("stats: cannot bit-pack sample with arity %d", s.Arity)
	}
	words := make([]uint64, (len(s.Values)+63)/64)
	for i, v := range s.Values {
		switch v {
		case 0:
		case 1:
			words[i/64] |= 1 << (uint(i) % 64)
		default:
			return BitSample{}, fmt.Errorf("stats: cannot bit-pack value %d at row %d", v, i)
		}
	}
	return BitSample{words: words, n: len(s.Values)}, nil
}

// Len returns the number of observations.
func (b BitSample) Len() int { return b.n }

// Bit returns observation i (0 or 1).
func (b BitSample) Bit(i int) int {
	return int(b.words[i/64] >> (uint(i) % 64) & 1)
}

// Ones returns the number of observations equal to 1.
func (b BitSample) Ones() int {
	total := 0
	for _, w := range b.words {
		total += bits.OnesCount64(w)
	}
	return total
}

// BitCITester is a CITester with a fast path over bit-packed binary
// samples. TestStrata tests x against an outcome and conditioning side
// (y, Z) prepared once by NewStrata, for callers that test many candidates
// x against one (y, Z). It must return exactly what Test would return on
// the corresponding unpacked samples — same statistic, DOF, p-value, and
// reliability verdict — so callers may route any eligible test through
// either entry point. TestStrata counts into the caller's Scratch (nil
// allocates a fresh table), so a caller that keeps one Scratch per
// goroutine runs its tests without allocating.
type BitCITester interface {
	CITester
	TestStrata(x BitSample, s *Strata, sc *Scratch) (CIResult, error)
}

// Scratch is reusable working memory for TestStrata: the contingency table
// of the test in progress. It is not safe for concurrent use; keep one per
// goroutine. The zero value is ready to use.
type Scratch struct {
	joint []float64
}

var (
	_ BitCITester = GSquareTester{}
	_ BitCITester = PearsonChiSquareTester{}
)

// Strata is the (y, Z) side of a CI test over bit-packed binary samples:
// the observations split into the 2^l strata of the conditioning set Z,
// each stratum holding only the words in which it has observations, as
// (word index, stratum mask, stratum mask ∧ y) entries, plus its N(z) and
// N(y=1, z) counts. A test of a candidate x against it then costs two
// popcounts per entry — x∧(mask∧y) and x∧mask — and nothing that depends
// on Z alone is recomputed. A Strata is immutable once built and safe for
// concurrent tests.
type Strata struct {
	n     int
	zCard int
	// strata are the nonempty strata in increasing stratum index (z_0 the
	// most significant bit, as in the scalar layout); empty strata add
	// nothing to either statistic and are not kept.
	strata  []stratum
	entries []strataWord
}

type stratum struct {
	end     int // entries[previous end:end] are this stratum's words
	nz, ny1 int
}

type strataWord struct {
	w          int
	mask, yAnd uint64
}

// leaf is one node of a word's stratum tree: the observations of the word
// that fall in stratum (a prefix of Z's values, z_0 first).
type leaf struct {
	stratum int
	mask    uint64
}

// wordTree splits one word of observations into its nonempty strata.
// Nonempty strata are disjoint nonzero masks of one 64-bit word, so no
// level of the tree holds more than 64 of them.
type wordTree struct {
	a, b [64]leaf
}

// split builds the stratum masks of word w as a binary tree: each level
// splits every node on one conditioning column, so a full tree takes
// 2^(l+1)−2 ANDs per word, each shared by two children, and empty nodes
// are dropped before they are split further. It returns the nonempty
// leaves in increasing stratum order; the slice is reused by the next call.
func (t *wordTree) split(zs []BitSample, w int, root uint64) []leaf {
	cur, next := &t.a, &t.b
	cur[0] = leaf{0, root}
	nc := 1
	for _, z := range zs {
		zw := z.words[w]
		nn := 0
		for _, p := range cur[:nc] {
			if m := p.mask &^ zw; m != 0 {
				next[nn] = leaf{2 * p.stratum, m}
				nn++
			}
			if m := p.mask & zw; m != 0 {
				next[nn] = leaf{2*p.stratum + 1, m}
				nn++
			}
		}
		cur, next, nc = next, cur, nn
	}
	return cur[:nc]
}

// NewStrata splits outcome y over the strata of the conditioning columns
// zs. It fails when the samples differ in length, when 2^len(zs) exceeds
// the conditioning-cardinality bound, or when they are empty.
func NewStrata(y BitSample, zs []BitSample) (*Strata, error) {
	n := y.n
	zCard := 1
	for _, z := range zs {
		if z.n != n {
			return nil, ErrSampleMismatch
		}
		if 2 > maxZCard/zCard {
			return nil, ErrCardinalityOverflow
		}
		zCard *= 2
	}
	if n == 0 {
		return nil, ErrEmpty
	}
	words := len(y.words)
	// Padding bits beyond n are zero in every packed word, but the
	// complement of a conditioning word sets them; the final word's root
	// mask keeps them out of every stratum.
	root := func(w int) uint64 {
		if r := n % 64; w == words-1 && r != 0 {
			return 1<<uint(r) - 1
		}
		return ^uint64(0)
	}
	// Two passes over the words: the first counts each stratum's
	// nonempty words, the second places them, grouped by stratum.
	var tree wordTree
	// at counts, then places, each stratum's entries; the miner's sets
	// (l ≤ 8) fit the stack array.
	var small [256]int
	at := small[:0]
	if zCard <= len(small) {
		at = small[:zCard]
	} else {
		at = make([]int, zCard)
	}
	nonempty := 0
	for w := 0; w < words; w++ {
		for _, lf := range tree.split(zs, w, root(w)) {
			if at[lf.stratum] == 0 {
				nonempty++
			}
			at[lf.stratum]++
		}
	}
	s := &Strata{n: n, zCard: zCard, strata: make([]stratum, 0, nonempty)}
	total := 0
	for z, c := range at {
		at[z] = total
		if c > 0 {
			total += c
			s.strata = append(s.strata, stratum{end: total})
		}
	}
	s.entries = make([]strataWord, total)
	for w := 0; w < words; w++ {
		yw := y.words[w]
		for _, lf := range tree.split(zs, w, root(w)) {
			s.entries[at[lf.stratum]] = strataWord{w: w, mask: lf.mask, yAnd: lf.mask & yw}
			at[lf.stratum]++
		}
	}
	start := 0
	for i := range s.strata {
		st := &s.strata[i]
		for _, e := range s.entries[start:st.end] {
			st.nz += bits.OnesCount64(e.mask)
			st.ny1 += bits.OnesCount64(e.yAnd)
		}
		start = st.end
	}
	return s, nil
}

// jointCounts computes the stratified contingency table N(x,y,z) of x
// against the strata, in the [z][x*2+y] layout countJoint produces but
// over the nonempty strata only: the one popcount counting loop of the bit
// kernel. It overwrites and returns dst when dst is large enough.
func (s *Strata) jointCounts(x BitSample, dst []float64) []float64 {
	size := len(s.strata) * 4
	joint := slices.Grow(dst[:0], size)[:size]
	start := 0
	for i, st := range s.strata {
		var n11, nx1 int
		for _, e := range s.entries[start:st.end] {
			xw := x.words[e.w]
			n11 += bits.OnesCount64(xw & e.yAnd)
			nx1 += bits.OnesCount64(xw & e.mask)
		}
		start = st.end
		joint[i*4+0] = float64(st.nz - nx1 - st.ny1 + n11) // x=0, y=0
		joint[i*4+1] = float64(st.ny1 - n11)               // x=0, y=1
		joint[i*4+2] = float64(nx1 - n11)                  // x=1, y=0
		joint[i*4+3] = float64(n11)                        // x=1, y=1
	}
	return joint
}

// testStrata runs one bit-kernel test of x against s, folding the
// contingency table with statistic. Every variable is binary, so
// dof = (2−1)(2−1)·2^l. The statistic folds skip empty strata, so folding
// the nonempty ones alone gives the bit-identical value. The table is
// counted into sc, or a fresh one when sc is nil.
func testStrata(x BitSample, s *Strata, sc *Scratch, minObsPerDOF int, statistic func(joint []float64, xArity, yArity, zCard int) float64) (CIResult, error) {
	if x.n != s.n {
		return CIResult{}, ErrSampleMismatch
	}
	res := CIResult{DOF: s.zCard, Reliable: true}
	if minObsPerDOF > 0 && s.n < minObsPerDOF*res.DOF {
		res.Reliable = false
		res.PValue = 1
		return res, nil
	}
	if sc == nil {
		sc = new(Scratch)
	}
	sc.joint = s.jointCounts(x, sc.joint)
	res.Statistic = statistic(sc.joint, 2, 2, len(s.strata))
	res.PValue = ChiSquareSurvival(res.Statistic, res.DOF)
	return res, nil
}

// TestStrata is the popcount fast path of Test against a prepared (y, Z),
// counting into sc: identical statistic, DOF, p-value, and reliability.
func (t GSquareTester) TestStrata(x BitSample, s *Strata, sc *Scratch) (CIResult, error) {
	return testStrata(x, s, sc, t.MinObsPerDOF, gsquareStatistic)
}

// TestStrata is the popcount fast path of Test against a prepared (y, Z),
// counting into sc: identical statistic, DOF, p-value, and reliability.
func (t PearsonChiSquareTester) TestStrata(x BitSample, s *Strata, sc *Scratch) (CIResult, error) {
	return testStrata(x, s, sc, t.MinObsPerDOF, pearsonStatistic)
}
