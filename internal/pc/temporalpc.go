// Package pc implements the paper's TemporalPC (Algorithm 1), which
// discovers the causes of each present device state among the time-lagged
// states and orients every edge by time. The classic (non-temporal) PC
// algorithm with Meek's orientation rules, the baseline §V-B argues
// against, lives in the package tests as an ablation.
package pc

import (
	"encoding/binary"
	"fmt"
	"runtime"
	"sort"
	"sync"

	"github.com/causaliot/causaliot/internal/dig"
	"github.com/causaliot/causaliot/internal/stats"
	"github.com/causaliot/causaliot/internal/timeseries"
)

// DefaultAlpha is the significance threshold for the conditional-
// independence tests; 0.001 is the paper's choice for stringent tests
// (§VI-B).
const DefaultAlpha = 0.001

// bitKernelMaxCond caps the conditioning-set size routed through the
// popcount kernel. A stats.Strata drops empty strata and empty words, so
// a test costs two popcounts per remaining (stratum, word) entry — at most
// min(2^l, 64) per word — and TemporalPC builds one per conditioning set
// and level, then reuses it for every candidate. Measured at n = 36,000
// observations on uniform random columns (2-vCPU Xeon, Go 1.24), a test
// against a cached Strata costs 162 µs at l = 8 against the scalar walk's
// 1,174 µs, and building the Strata costs 2.5 scalar tests, repaid after
// three candidates. Past l = 8 the cached advantage shrinks (2.3× at
// l = 14) while each Strata grows towards 64 24-byte entries per word and
// a 2^l-entry stratum index, so the cap stays 8 and deeper sets use the
// scalar path.
const bitKernelMaxCond = 8

// Config controls TemporalPC.
type Config struct {
	// Alpha is the p-value significance threshold: the null hypothesis
	// X ⊥ Y | Z is accepted (and the edge removed) when p > Alpha.
	// Defaults to DefaultAlpha.
	Alpha float64
	// MaxCondSize, when positive, caps the conditioning-set dimension l.
	// Zero means unbounded, matching Algorithm 1's natural termination.
	MaxCondSize int
	// MinObsPerDOF is forwarded to the G² tester's small-sample
	// heuristic (see stats.GSquareTester).
	MinObsPerDOF int
	// MaxParents, when positive, caps the number of causes kept per
	// outcome (the strongest marginal dependencies win). Bounding the
	// node degree keeps conditional probability tables dense enough to
	// estimate — the paper's complexity analysis (§V-D) likewise assumes
	// a limited maximum degree k.
	MaxParents int
	// EventAnchors switches the CI tests from all graph snapshots (the
	// paper's formulation, default) to only the snapshots at which the
	// outcome device reported. Event anchoring asks "what predicts the
	// reported value" — sharper for direction-of-change effects but blind
	// to gating interactions whose context is constant at the outcome's
	// events; it is kept as an ablation.
	EventAnchors bool
	// Stable selects the order-independent PC-stable variant (Colombo &
	// Maathuis, the paper's [48]): within each dimension l, removals are
	// collected first and applied only when the level completes, so the
	// result does not depend on the order candidates are visited.
	Stable bool
	// Tester overrides the conditional-independence test. Nil selects the
	// paper's G² test (with MinObsPerDOF applied); constraint-based
	// discovery accepts any stats.CITester, e.g.
	// stats.PearsonChiSquareTester. A tester that implements
	// stats.BitCITester counts its tests with popcounts over bit-packed
	// state columns whenever the conditioning set has at most 8 members
	// (bitKernelMaxCond); every other test takes the scalar walk. Either
	// way the mined graph is identical.
	Tester stats.CITester
	// Workers bounds the number of concurrent per-outcome discoveries in
	// Mine. Defaults to GOMAXPROCS.
	Workers int
}

func (c Config) withDefaults() Config {
	if c.Alpha <= 0 {
		c.Alpha = DefaultAlpha
	}
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	return c
}

// Stats reports the work done by a discovery run.
type Stats struct {
	// Tests is the number of conditional-independence tests executed.
	Tests int
	// RemovedEdges is the number of candidate parents pruned.
	RemovedEdges int
	// MaxCondSizeReached is the largest conditioning-set size used.
	MaxCondSizeReached int
}

func (s *Stats) add(other Stats) {
	s.Tests += other.Tests
	s.RemovedEdges += other.RemovedEdges
	if other.MaxCondSizeReached > s.MaxCondSizeReached {
		s.MaxCondSizeReached = other.MaxCondSizeReached
	}
}

// Removal records why a candidate parent was pruned, for interpretability
// (the paper reports which conditioning set separated each rejected
// interaction, §VI-B).
type Removal struct {
	// Parent is the pruned candidate cause.
	Parent dig.Node
	// SepSet is the conditioning set that rendered it independent of the
	// outcome (empty for marginal independence).
	SepSet []dig.Node
	// PValue is the test's p-value.
	PValue float64
}

// Miner runs TemporalPC over a preprocessed series.
type Miner struct {
	cfg    Config
	tester stats.CITester
	// bitTester is the tester's popcount fast path, nil when it has none.
	bitTester stats.BitCITester
}

// NewMiner returns a TemporalPC miner with the given configuration.
func NewMiner(cfg Config) *Miner {
	cfg = cfg.withDefaults()
	tester := cfg.Tester
	if tester == nil {
		tester = stats.GSquareTester{MinObsPerDOF: cfg.MinObsPerDOF}
	}
	m := &Miner{cfg: cfg, tester: tester}
	m.bitTester, _ = tester.(stats.BitCITester)
	return m
}

// columns is the view of the lagged state columns one outcome device is
// tested over. With EventAnchors the anchors are only the snapshots at
// which the outcome reported: conditioning the CI tests on the report
// mirrors the CPT estimation (see dig.Graph.Fit), asking whether a lagged
// state influences the device's *reported value*, not its persistence.
// Otherwise they are every snapshot j ∈ {τ, ..., m}, the same for every
// outcome.
type columns struct {
	anchors []int
	series  *timeseries.Series
	devices int
	// packed holds every lagged column (lags 0..τ) bit-packed, indexed by
	// lag·devices + device; nil when the tester has no bit kernel. It is
	// read-only once built, so outcomes with the same anchors share it.
	packed []stats.BitSample
	// scalar caches the unpacked columns, built only when the scalar
	// path runs.
	scalar map[dig.Node][]int
}

// newColumns builds the column view for one outcome device (any outcome
// when the miner is not event-anchored), packing every lagged column up
// front when the tester has a bit kernel.
func (m *Miner) newColumns(series *timeseries.Series, tau, outcome int) (*columns, error) {
	var anchors []int
	for j := tau; j <= series.Len(); j++ {
		if m.cfg.EventAnchors {
			step, err := series.StepAt(j)
			if err != nil {
				return nil, err
			}
			if step.Device != outcome {
				continue
			}
		}
		anchors = append(anchors, j)
	}
	c := &columns{anchors: anchors, series: series, devices: series.NumDevices()}
	if m.bitTester == nil {
		return c, nil
	}
	c.packed = make([]stats.BitSample, (tau+1)*c.devices)
	col := make([]int, len(anchors))
	for lag := 0; lag <= tau; lag++ {
		for dev := 0; dev < c.devices; dev++ {
			for i, j := range anchors {
				col[i] = series.State(j - lag)[dev]
			}
			b, err := stats.PackSample(stats.Sample{Values: col, Arity: 2})
			if err != nil {
				// Unreachable in practice: series states are
				// validated binary.
				return nil, err
			}
			c.packed[lag*c.devices+dev] = b
		}
	}
	return c, nil
}

// fork returns a view sharing c's anchors and packed columns, with a
// scalar cache of its own, for another outcome's worker.
func (c *columns) fork() *columns {
	return &columns{anchors: c.anchors, series: c.series, devices: c.devices, packed: c.packed}
}

func (c *columns) index(n dig.Node) int { return n.Lag*c.devices + n.Device }

func (c *columns) bits(n dig.Node) stats.BitSample { return c.packed[c.index(n)] }

func (c *columns) sample(n dig.Node) stats.Sample {
	col, ok := c.scalar[n]
	if !ok {
		if c.scalar == nil {
			c.scalar = make(map[dig.Node][]int)
		}
		col = make([]int, len(c.anchors))
		for i, j := range c.anchors {
			col[i] = c.series.State(j - n.Lag)[n.Device]
		}
		c.scalar[n] = col
	}
	return stats.Sample{Values: col, Arity: 2}
}

// DiscoverParents runs Algorithm 1 for a single outcome device: it starts
// from the fully connected preliminary set of causes
// {S_k^{t-l} : k ∈ devices, l ∈ 1..τ} (every edge pre-oriented by time) and
// prunes each candidate for which some conditioning set of the remaining
// candidates renders it independent of S_outcome^t.
func (m *Miner) DiscoverParents(series *timeseries.Series, tau, outcome int) ([]dig.Node, []Removal, Stats, error) {
	if tau < 1 {
		return nil, nil, Stats{}, fmt.Errorf("pc: tau %d < 1", tau)
	}
	if outcome < 0 || outcome >= series.NumDevices() {
		return nil, nil, Stats{}, fmt.Errorf("pc: outcome device %d out of range", outcome)
	}
	if series.SnapshotCount(tau) == 0 {
		return nil, nil, Stats{}, fmt.Errorf("pc: series too short for tau %d", tau)
	}
	cols, err := m.newColumns(series, tau, outcome)
	if err != nil {
		return nil, nil, Stats{}, err
	}
	return m.discoverParents(cols, series.NumDevices(), tau, outcome)
}

func (m *Miner) discoverParents(cols *columns, n, tau, outcome int) ([]dig.Node, []Removal, Stats, error) {
	var st Stats
	var removals []Removal

	// A device that never reported in training has no evidence for any
	// interaction; it keeps an empty cause set (its CPT falls back to the
	// uninformed prior at runtime).
	if len(cols.anchors) == 0 {
		return nil, nil, st, nil
	}

	// Line 5: preliminary causes — all lagged states, deterministic order.
	//
	// In event-anchored mode the outcome's own lagged states are excluded
	// from the candidate pool: after event sanitation the series
	// alternates per device, so S_i^{t-1} is the deterministic complement
	// of S_i^t at device i's event anchors — conditioning on it would
	// vacuously separate every genuine cause. The autocorrelation
	// interaction it represents is appended unconditionally at the end.
	// In all-snapshot mode (the paper's formulation) self lags compete
	// like any other candidate and the autocorrelation edge is discovered
	// from state persistence.
	ca := make([]dig.Node, 0, n*tau)
	for lag := 1; lag <= tau; lag++ {
		for dev := 0; dev < n; dev++ {
			if m.cfg.EventAnchors && dev == outcome {
				continue
			}
			ca = append(ca, dig.Node{Device: dev, Lag: lag})
		}
	}
	outcomeNode := dig.Node{Device: outcome, Lag: 0}

	// Route eligible tests through the popcount kernel: the state columns
	// are binary, so when the tester supports bit-packed samples and the
	// conditioning set is small, contingency cells come from popcounts
	// over packed words instead of a per-observation table walk.
	//
	// strata caches the (outcome, Z) side of those tests by conditioning
	// set within one level: every remaining candidate is tested against
	// subsets of the same adjacency, so each Z recurs across candidates
	// and only the candidate's own counts are taken per test. The cache is
	// cleared when the level ends. Every test counts into one scratch
	// table, this outcome's worker's own.
	strata := make(map[string]*stats.Strata)
	var key []byte
	var zbuf []stats.BitSample
	var scratch stats.Scratch
	runTest := func(parent dig.Node, cs []dig.Node) (stats.CIResult, error) {
		if m.bitTester != nil && len(cs) <= bitKernelMaxCond {
			key = key[:0]
			for _, z := range cs {
				key = binary.AppendUvarint(key, uint64(cols.index(z)))
			}
			s, ok := strata[string(key)]
			if !ok {
				zbuf = zbuf[:0]
				for _, z := range cs {
					zbuf = append(zbuf, cols.bits(z))
				}
				var err error
				if s, err = stats.NewStrata(cols.bits(outcomeNode), zbuf); err != nil {
					return stats.CIResult{}, err
				}
				strata[string(key)] = s
			}
			return m.bitTester.TestStrata(cols.bits(parent), s, &scratch)
		}
		zs := make([]stats.Sample, len(cs))
		for i, z := range cs {
			zs[i] = cols.sample(z)
		}
		return m.tester.Test(cols.sample(parent), cols.sample(outcomeNode), zs)
	}

	// marginal memoizes the l=0 test per candidate so the MaxParents
	// ranking pass reuses the results already computed during pruning
	// instead of re-running every marginal test.
	marginal := make(map[dig.Node]stats.CIResult, len(ca))

	maxL := n * tau
	if m.cfg.MaxCondSize > 0 && m.cfg.MaxCondSize < maxL {
		maxL = m.cfg.MaxCondSize
	}
	for l := 0; l <= maxL; l++ {
		// Line 9: stop when no conditioning set of size l can be formed.
		if len(ca)-1 < l {
			break
		}
		if l > st.MaxCondSizeReached {
			st.MaxCondSizeReached = l
		}
		// Iterate over a snapshot of the current parents. In the default
		// Algorithm 1 semantics removals take effect immediately for
		// later subset pools; in PC-stable mode they are deferred to the
		// end of the dimension.
		snapshot := make([]dig.Node, len(ca))
		copy(snapshot, ca)
		var deferred []dig.Node
		for _, parent := range snapshot {
			idx := indexOf(ca, parent)
			if idx < 0 {
				continue // already removed at this dimension
			}
			// The conditioning pool excludes every lag of the parent's
			// own device: sibling lags of one cause are near-copies of
			// each other (states persist between events), and letting
			// them act as separators would prune all but one lag of
			// each cause — erasing the "state just changed" patterns
			// the conditional probability tables need to discriminate
			// imminent reactions from stale contexts.
			pool := make([]dig.Node, 0, len(ca)-1)
			for _, other := range ca {
				if other.Device != parent.Device {
					pool = append(pool, other)
				}
			}
			removed := false
			var testErr error
			forEachSubset(pool, l, func(cs []dig.Node) bool {
				res, err := runTest(parent, cs)
				if err != nil {
					// Surface the tester failure instead of
					// treating it as "not separated".
					testErr = err
					return false
				}
				st.Tests++
				if l == 0 {
					marginal[parent] = res
				}
				if res.PValue > m.cfg.Alpha {
					sep := make([]dig.Node, len(cs))
					copy(sep, cs)
					removals = append(removals, Removal{Parent: parent, SepSet: sep, PValue: res.PValue})
					removed = true
					return false // stop enumerating subsets
				}
				return true
			})
			if testErr != nil {
				return nil, nil, st, fmt.Errorf("pc: CI test (outcome %d, candidate device %d lag %d, l=%d): %w",
					outcome, parent.Device, parent.Lag, l, testErr)
			}
			if removed {
				if m.cfg.Stable {
					deferred = append(deferred, parent)
				} else {
					ca = removeNode(ca, parent)
				}
				st.RemovedEdges++
			}
		}
		for _, parent := range deferred {
			ca = removeNode(ca, parent)
		}
		clear(strata)
	}
	if m.cfg.MaxParents > 0 && len(ca) > m.cfg.MaxParents {
		// Rank survivors by marginal G² strength and keep the top ones.
		type scored struct {
			node dig.Node
			g2   float64
		}
		ranked := make([]scored, 0, len(ca))
		for _, node := range ca {
			res, ok := marginal[node]
			if !ok {
				var err error
				if res, err = runTest(node, nil); err != nil {
					return nil, nil, st, fmt.Errorf("pc: marginal ranking test (outcome %d, candidate device %d lag %d): %w",
						outcome, node.Device, node.Lag, err)
				}
				st.Tests++
			}
			ranked = append(ranked, scored{node: node, g2: res.Statistic})
		}
		sort.Slice(ranked, func(i, j int) bool { return ranked[i].g2 > ranked[j].g2 })
		ca = ca[:0]
		for _, s := range ranked[:m.cfg.MaxParents] {
			ca = append(ca, s.node)
		}
	}
	if m.cfg.EventAnchors {
		// Autocorrelation edge: the device's own previous state.
		ca = append(ca, dig.Node{Device: outcome, Lag: 1})
	}
	sort.Slice(ca, func(i, j int) bool { return ca[i].Less(ca[j]) })
	return ca, removals, st, nil
}

// Mine runs TemporalPC for every device (concurrently, bounded by
// cfg.Workers), unifies the identified edges into a DIG, and fits the CPTs
// by maximum likelihood with the given Laplace smoothing.
func (m *Miner) Mine(series *timeseries.Series, tau int, smoothing float64) (*dig.Graph, map[int][]Removal, Stats, error) {
	if tau < 1 {
		return nil, nil, Stats{}, fmt.Errorf("pc: tau %d < 1", tau)
	}
	if series.SnapshotCount(tau) == 0 {
		return nil, nil, Stats{}, fmt.Errorf("pc: series with %d events too short for tau %d", series.Len(), tau)
	}
	n := series.NumDevices()
	parents := make([][]dig.Node, n)
	removalsByDev := make(map[int][]Removal, n)
	statsByDev := make([]Stats, n)

	var (
		wg       sync.WaitGroup
		mu       sync.Mutex
		firstErr error
	)
	// Without event anchoring every outcome is tested over the same
	// snapshots, so the lagged columns are packed once and shared
	// read-only by every outcome's worker.
	var shared *columns
	if !m.cfg.EventAnchors {
		var err error
		if shared, err = m.newColumns(series, tau, 0); err != nil {
			return nil, nil, Stats{}, err
		}
	}
	sem := make(chan struct{}, m.cfg.Workers)
	for dev := 0; dev < n; dev++ {
		wg.Add(1)
		sem <- struct{}{}
		go func(dev int) {
			defer wg.Done()
			defer func() { <-sem }()
			var cols *columns
			if shared != nil {
				cols = shared.fork()
			} else {
				var err error
				if cols, err = m.newColumns(series, tau, dev); err != nil {
					mu.Lock()
					if firstErr == nil {
						firstErr = err
					}
					mu.Unlock()
					return
				}
			}
			ps, rem, st, err := m.discoverParents(cols, n, tau, dev)
			mu.Lock()
			defer mu.Unlock()
			if err != nil {
				// Never record results from an errored discovery,
				// even when another device already set firstErr.
				if firstErr == nil {
					firstErr = err
				}
				return
			}
			parents[dev] = ps
			removalsByDev[dev] = rem
			statsByDev[dev] = st
		}(dev)
	}
	wg.Wait()
	if firstErr != nil {
		return nil, nil, Stats{}, firstErr
	}

	var total Stats
	for _, st := range statsByDev {
		total.add(st)
	}
	g, err := dig.New(series.Registry, tau, parents, smoothing)
	if err != nil {
		return nil, nil, Stats{}, err
	}
	if err := g.Fit(series); err != nil {
		return nil, nil, Stats{}, err
	}
	return g, removalsByDev, total, nil
}

func indexOf(nodes []dig.Node, n dig.Node) int {
	for i, other := range nodes {
		if other == n {
			return i
		}
	}
	return -1
}

func removeNode(nodes []dig.Node, n dig.Node) []dig.Node {
	out := nodes[:0]
	for _, other := range nodes {
		if other != n {
			out = append(out, other)
		}
	}
	return out
}

// forEachSubset enumerates all size-k subsets of pool in lexicographic
// order, invoking fn for each; fn returning false stops the enumeration.
func forEachSubset(pool []dig.Node, k int, fn func([]dig.Node) bool) {
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
	subset := make([]dig.Node, k)
	for {
		for i, j := range idx {
			subset[i] = pool[j]
		}
		if !fn(subset) {
			return
		}
		// Advance to the next combination.
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
