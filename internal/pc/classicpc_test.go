package pc

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"github.com/causaliot/causaliot/internal/stats"
)

// EdgeMark describes the state of a pair in a partially directed graph.
type EdgeMark int

// Edge marks produced by ClassicPC.
const (
	// NoEdge means the pair was separated.
	NoEdge EdgeMark = iota
	// Undirected means the skeleton kept the edge but no orientation rule
	// applied — the failure mode that motivates TemporalPC (§V-B).
	Undirected
	// Directed means the edge is oriented from the pair's first variable
	// to its second.
	Directed
)

// PDAG is the partially directed acyclic graph returned by ClassicPC.
type PDAG struct {
	names []string
	// mark[i][j]: NoEdge, Undirected (symmetric), or Directed (i->j).
	mark [][]EdgeMark
}

func newPDAG(names []string) *PDAG {
	n := len(names)
	m := make([][]EdgeMark, n)
	for i := range m {
		m[i] = make([]EdgeMark, n)
	}
	return &PDAG{names: names, mark: m}
}

// Len returns the number of variables.
func (p *PDAG) Len() int { return len(p.names) }

// Name returns variable i's name.
func (p *PDAG) Name(i int) string { return p.names[i] }

// HasDirected reports whether the edge i -> j is directed.
func (p *PDAG) HasDirected(i, j int) bool { return p.mark[i][j] == Directed }

// HasUndirected reports whether i - j is an undirected edge.
func (p *PDAG) HasUndirected(i, j int) bool {
	return p.mark[i][j] == Undirected && p.mark[j][i] == Undirected
}

// Adjacent reports whether any edge connects i and j.
func (p *PDAG) Adjacent(i, j int) bool {
	return p.mark[i][j] != NoEdge || p.mark[j][i] != NoEdge
}

// CountUndirected returns how many edges remained unoriented.
func (p *PDAG) CountUndirected() int {
	n := 0
	for i := 0; i < p.Len(); i++ {
		for j := i + 1; j < p.Len(); j++ {
			if p.HasUndirected(i, j) {
				n++
			}
		}
	}
	return n
}

// CountDirected returns how many edges were oriented.
func (p *PDAG) CountDirected() int {
	n := 0
	for i := 0; i < p.Len(); i++ {
		for j := 0; j < p.Len(); j++ {
			if p.mark[i][j] == Directed {
				n++
			}
		}
	}
	return n
}

func (p *PDAG) setUndirected(i, j int) {
	p.mark[i][j] = Undirected
	p.mark[j][i] = Undirected
}

func (p *PDAG) orient(i, j int) {
	p.mark[i][j] = Directed
	p.mark[j][i] = NoEdge
}

func (p *PDAG) remove(i, j int) {
	p.mark[i][j] = NoEdge
	p.mark[j][i] = NoEdge
}

// neighbors returns all k adjacent to i (any mark).
func (p *PDAG) neighbors(i int) []int {
	var out []int
	for k := 0; k < p.Len(); k++ {
		if k != i && p.Adjacent(i, k) {
			out = append(out, k)
		}
	}
	return out
}

// ClassicPC runs the original PC algorithm (Spirtes & Glymour) on a set of
// discrete variables: skeleton discovery by conditional-independence
// pruning, v-structure orientation from separation sets, and Meek's rules
// R1–R4. It is the non-temporal baseline the paper's §V-B argues against,
// kept as an ablation: without temporal knowledge some edges stay
// Undirected.
func ClassicPC(names []string, samples []stats.Sample, cfg Config) (*PDAG, Stats, error) {
	cfg = cfg.withDefaults()
	if len(names) != len(samples) {
		return nil, Stats{}, fmt.Errorf("pc: %d names for %d samples", len(names), len(samples))
	}
	n := len(samples)
	if n < 2 {
		return nil, Stats{}, fmt.Errorf("pc: need at least two variables, got %d", n)
	}
	tester := cfg.Tester
	if tester == nil {
		tester = stats.GSquareTester{MinObsPerDOF: cfg.MinObsPerDOF}
	}
	// Pack the binary variables once so eligible tests run on the
	// popcount kernel; variables with higher arity (or a tester without
	// one) keep the scalar path.
	bitTester, useBits := tester.(stats.BitCITester)
	var packed []stats.BitSample
	binary := make([]bool, n)
	if useBits {
		packed = make([]stats.BitSample, n)
		for i, s := range samples {
			if s.Arity != 2 {
				continue
			}
			b, err := stats.PackSample(s)
			if err != nil {
				// Invalid values surface through the scalar
				// path's validation below.
				continue
			}
			packed[i] = b
			binary[i] = true
		}
	}
	runTest := func(i, j int, cs []int) (stats.CIResult, error) {
		if useBits && len(cs) <= bitKernelMaxCond && binary[i] && binary[j] {
			allBinary := true
			for _, z := range cs {
				if !binary[z] {
					allBinary = false
					break
				}
			}
			if allBinary {
				zs := make([]stats.BitSample, len(cs))
				for k, z := range cs {
					zs[k] = packed[z]
				}
				s, err := stats.NewStrata(packed[j], zs)
				if err != nil {
					return stats.CIResult{}, err
				}
				return bitTester.TestStrata(packed[i], s, nil)
			}
		}
		zs := make([]stats.Sample, len(cs))
		for k, z := range cs {
			zs[k] = samples[z]
		}
		return tester.Test(samples[i], samples[j], zs)
	}
	p := newPDAG(names)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			p.setUndirected(i, j)
		}
	}
	sepsets := make(map[[2]int][]int)
	var st Stats

	maxL := n - 2
	if cfg.MaxCondSize > 0 && cfg.MaxCondSize < maxL {
		maxL = cfg.MaxCondSize
	}
	// Skeleton phase.
	for l := 0; l <= maxL; l++ {
		if l > st.MaxCondSizeReached {
			st.MaxCondSizeReached = l
		}
		changed := false
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				if !p.Adjacent(i, j) {
					continue
				}
				pool := intsWithout(p.neighbors(i), j)
				if len(pool) < l {
					continue
				}
				removed := false
				var testErr error
				forEachIntSubset(pool, l, func(cs []int) bool {
					res, err := runTest(i, j, cs)
					if err != nil {
						// Surface the tester failure instead
						// of treating it as "not separated".
						testErr = err
						return false
					}
					st.Tests++
					if res.PValue > cfg.Alpha {
						sep := make([]int, len(cs))
						copy(sep, cs)
						sepsets[[2]int{i, j}] = sep
						removed = true
						return false
					}
					return true
				})
				if testErr != nil {
					return nil, st, fmt.Errorf("pc: CI test (%s ⊥ %s, l=%d): %w", names[i], names[j], l, testErr)
				}
				if removed {
					p.remove(i, j)
					st.RemovedEdges++
					changed = true
				}
			}
		}
		if !changed && l > 0 {
			// No adjacency has enough neighbors left; later l cannot
			// succeed either once every pool is smaller than l.
			allSmall := true
			for i := 0; i < n && allSmall; i++ {
				for j := 0; j < n; j++ {
					if i != j && p.Adjacent(i, j) && len(intsWithout(p.neighbors(i), j)) > l {
						allSmall = false
						break
					}
				}
			}
			if allSmall {
				break
			}
		}
	}

	// V-structure orientation: for i - k - j with i,j non-adjacent and
	// k ∉ sepset(i,j), orient i -> k <- j.
	for k := 0; k < n; k++ {
		nbrs := p.neighbors(k)
		for a := 0; a < len(nbrs); a++ {
			for b := a + 1; b < len(nbrs); b++ {
				i, j := nbrs[a], nbrs[b]
				if p.Adjacent(i, j) {
					continue
				}
				sep, ok := sepsets[[2]int{minInt(i, j), maxInt(i, j)}]
				if !ok {
					continue
				}
				if !containsInt(sep, k) {
					if p.HasUndirected(i, k) {
						p.orient(i, k)
					}
					if p.HasUndirected(j, k) {
						p.orient(j, k)
					}
				}
			}
		}
	}

	// Meek's rules, applied to a fixed point.
	for applyMeekRules(p) {
	}
	return p, st, nil
}

// applyMeekRules applies Meek's rules R1–R4 once; it returns true when any
// edge was oriented.
func applyMeekRules(p *PDAG) bool {
	n := p.Len()
	changed := false
	for a := 0; a < n; a++ {
		for b := 0; b < n; b++ {
			if a == b || !p.HasUndirected(a, b) {
				continue
			}
			// R1: c -> a and c,b non-adjacent  =>  a -> b.
			for c := 0; c < n; c++ {
				if c != b && p.HasDirected(c, a) && !p.Adjacent(c, b) {
					p.orient(a, b)
					changed = true
					break
				}
			}
			if !p.HasUndirected(a, b) {
				continue
			}
			// R2: a -> c -> b  =>  a -> b.
			for c := 0; c < n; c++ {
				if p.HasDirected(a, c) && p.HasDirected(c, b) {
					p.orient(a, b)
					changed = true
					break
				}
			}
			if !p.HasUndirected(a, b) {
				continue
			}
			// R3: a - c -> b and a - d -> b with c,d non-adjacent => a -> b.
			var mids []int
			for c := 0; c < n; c++ {
				if p.HasUndirected(a, c) && p.HasDirected(c, b) {
					mids = append(mids, c)
				}
			}
			r3 := false
			for x := 0; x < len(mids) && !r3; x++ {
				for y := x + 1; y < len(mids); y++ {
					if !p.Adjacent(mids[x], mids[y]) {
						p.orient(a, b)
						changed = true
						r3 = true
						break
					}
				}
			}
			if !p.HasUndirected(a, b) {
				continue
			}
			// R4: a - d, d -> c, c -> b, a - c (or a adjacent c)  =>  a -> b.
			for c := 0; c < n; c++ {
				if !p.HasDirected(c, b) || !p.Adjacent(a, c) {
					continue
				}
				for d := 0; d < n; d++ {
					if p.HasUndirected(a, d) && p.HasDirected(d, c) && !p.Adjacent(d, b) {
						p.orient(a, b)
						changed = true
						break
					}
				}
				if !p.HasUndirected(a, b) {
					break
				}
			}
		}
	}
	return changed
}

func intsWithout(xs []int, drop int) []int {
	out := make([]int, 0, len(xs))
	for _, x := range xs {
		if x != drop {
			out = append(out, x)
		}
	}
	sort.Ints(out)
	return out
}

func forEachIntSubset(pool []int, k int, fn func([]int) bool) {
	if k == 0 {
		fn(nil)
		return
	}
	if k > len(pool) {
		return
	}
	idx := make([]int, k)
	for i := range idx {
		idx[i] = i
	}
	subset := make([]int, k)
	for {
		for i, j := range idx {
			subset[i] = pool[j]
		}
		if !fn(subset) {
			return
		}
		i := k - 1
		for i >= 0 && idx[i] == len(pool)-k+i {
			i--
		}
		if i < 0 {
			return
		}
		idx[i]++
		for j := i + 1; j < k; j++ {
			idx[j] = idx[j-1] + 1
		}
	}
}

func containsInt(xs []int, v int) bool {
	for _, x := range xs {
		if x == v {
			return true
		}
	}
	return false
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

func binCols(n int, gen func(rng *rand.Rand, row int, cols [][]int)) [][]int {
	rng := rand.New(rand.NewSource(99))
	// Probe the number of columns by a trial call.
	probe := make([][]int, 8)
	for i := range probe {
		probe[i] = make([]int, n)
	}
	for row := 0; row < n; row++ {
		gen(rng, row, probe)
	}
	return probe
}

func toSamples(cols [][]int, k int) []stats.Sample {
	out := make([]stats.Sample, k)
	for i := 0; i < k; i++ {
		out[i] = stats.Sample{Values: cols[i], Arity: 2}
	}
	return out
}

func TestClassicPCOrientsCollider(t *testing.T) {
	// X -> Z <- Y: the only structure PC can fully orient from data.
	n := 6000
	cols := binCols(n, func(rng *rand.Rand, row int, c [][]int) {
		x := rng.Intn(2)
		y := rng.Intn(2)
		z := x | y // OR keeps Z marginally dependent on each parent
		if rng.Float64() < 0.1 {
			z = 1 - z
		}
		c[0][row], c[1][row], c[2][row] = x, y, z
	})
	p, st, err := ClassicPC([]string{"X", "Y", "Z"}, toSamples(cols, 3), Config{Alpha: 0.001})
	if err != nil {
		t.Fatal(err)
	}
	if st.Tests == 0 {
		t.Error("no tests counted")
	}
	if p.Adjacent(0, 1) {
		t.Error("X and Y should be separated")
	}
	if !p.HasDirected(0, 2) || !p.HasDirected(1, 2) {
		t.Errorf("v-structure not oriented: directed X->Z=%v Y->Z=%v undirected XZ=%v",
			p.HasDirected(0, 2), p.HasDirected(1, 2), p.HasUndirected(0, 2))
	}
	if p.CountDirected() != 2 || p.CountUndirected() != 0 {
		t.Errorf("counts: directed=%d undirected=%d", p.CountDirected(), p.CountUndirected())
	}
}

func TestClassicPCLeavesChainUndirected(t *testing.T) {
	// X -> Z -> Y is Markov-equivalent to X <- Z <- Y and X <- Z -> Y:
	// classic PC must keep the skeleton but cannot orient it. This is the
	// §V-B motivation for TemporalPC.
	n := 6000
	cols := binCols(n, func(rng *rand.Rand, row int, c [][]int) {
		x := rng.Intn(2)
		z := x
		if rng.Float64() < 0.15 {
			z = 1 - z
		}
		y := z
		if rng.Float64() < 0.15 {
			y = 1 - y
		}
		c[0][row], c[1][row], c[2][row] = x, y, z
	})
	p, _, err := ClassicPC([]string{"X", "Y", "Z"}, toSamples(cols, 3), Config{Alpha: 0.001})
	if err != nil {
		t.Fatal(err)
	}
	if p.Adjacent(0, 1) {
		t.Error("X and Y should be separated given Z")
	}
	if !p.HasUndirected(0, 2) || !p.HasUndirected(1, 2) {
		t.Errorf("chain edges should stay undirected: XZ=%v YZ=%v", p.HasUndirected(0, 2), p.HasUndirected(1, 2))
	}
	if p.CountUndirected() != 2 {
		t.Errorf("CountUndirected = %d, want 2", p.CountUndirected())
	}
}

func TestClassicPCSeparatesIndependent(t *testing.T) {
	n := 3000
	cols := binCols(n, func(rng *rand.Rand, row int, c [][]int) {
		c[0][row] = rng.Intn(2)
		c[1][row] = rng.Intn(2)
	})
	p, _, err := ClassicPC([]string{"A", "B"}, toSamples(cols, 2), Config{})
	if err != nil {
		t.Fatal(err)
	}
	if p.Adjacent(0, 1) {
		t.Error("independent variables left adjacent")
	}
}

func TestClassicPCMeekR1PropagatesOrientation(t *testing.T) {
	// Structure: X -> Z <- Y (collider) plus Z - W. After the collider is
	// oriented, Meek R1 forces Z -> W (otherwise a new collider at Z
	// would have been detected).
	n := 8000
	cols := binCols(n, func(rng *rand.Rand, row int, c [][]int) {
		x := rng.Intn(2)
		y := rng.Intn(2)
		z := x | y
		if rng.Float64() < 0.05 {
			z = 1 - z
		}
		w := z
		if rng.Float64() < 0.15 {
			w = 1 - w
		}
		c[0][row], c[1][row], c[2][row], c[3][row] = x, y, z, w
	})
	p, _, err := ClassicPC([]string{"X", "Y", "Z", "W"}, toSamples(cols, 4), Config{Alpha: 0.001})
	if err != nil {
		t.Fatal(err)
	}
	if !p.HasDirected(0, 2) || !p.HasDirected(1, 2) {
		t.Fatalf("collider not oriented first (X->Z=%v, Y->Z=%v)", p.HasDirected(0, 2), p.HasDirected(1, 2))
	}
	if !p.HasDirected(2, 3) {
		t.Errorf("Meek R1 should orient Z->W; undirected=%v", p.HasUndirected(2, 3))
	}
}

func TestClassicPCValidation(t *testing.T) {
	s := stats.Sample{Values: []int{0, 1}, Arity: 2}
	if _, _, err := ClassicPC([]string{"a"}, []stats.Sample{s}, Config{}); err == nil {
		t.Error("single variable accepted")
	}
	if _, _, err := ClassicPC([]string{"a", "b"}, []stats.Sample{s}, Config{}); err == nil {
		t.Error("name/sample mismatch accepted")
	}
}

func TestPDAGAccessors(t *testing.T) {
	p := newPDAG([]string{"a", "b"})
	if p.Len() != 2 || p.Name(1) != "b" {
		t.Error("accessors wrong")
	}
	p.setUndirected(0, 1)
	if !p.HasUndirected(0, 1) || !p.Adjacent(1, 0) {
		t.Error("undirected edge not set")
	}
	p.orient(0, 1)
	if !p.HasDirected(0, 1) || p.HasDirected(1, 0) || p.HasUndirected(0, 1) {
		t.Error("orientation wrong")
	}
}

// BenchmarkAblationPCvsTemporalPC compares classic PC (Meek-rule
// orientation) against TemporalPC on the same chain data: classic PC leaves
// Markov-equivalent edges unoriented, the motivation of §V-B.
func BenchmarkAblationPCvsTemporalPC(b *testing.B) {
	n := 4000
	x := make([]int, n)
	z := make([]int, n)
	y := make([]int, n)
	for i := 0; i < n; i++ {
		x[i] = (i / 2) % 2
		z[i] = x[i]
		y[i] = z[i]
		if i%17 == 0 {
			z[i] = 1 - z[i]
		}
		if i%19 == 0 {
			y[i] = 1 - y[i]
		}
	}
	samples := []stats.Sample{
		{Values: x, Arity: 2},
		{Values: y, Arity: 2},
		{Values: z, Arity: 2},
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p, _, err := ClassicPC([]string{"X", "Y", "Z"}, samples, Config{})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(p.CountUndirected()), "unoriented-edges")
	}
}
