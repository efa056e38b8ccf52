package hub

import (
	"fmt"
	"testing"
)

// keyedProc is a trivial allocation-free processor with a fixed model key.
type keyedProc struct {
	key     uint64
	handled uint64
}

func (p *keyedProc) Handle(Event) (bool, error) {
	p.handled++
	return false, nil
}

func (p *keyedProc) ModelKey() uint64 { return p.key }

// queuedKeys reads the run queue's model keys in FIFO order.
func (h *Hub) queuedKeys() []uint64 {
	h.qmu.Lock()
	defer h.qmu.Unlock()
	q := h.runq.items()
	out := make([]uint64, len(q))
	for i, t := range q {
		out[i] = t.modelKey.Load()
	}
	return out
}

// TestExtractGroupSameModel pins the scheduler's grouping decisions: a turn
// pulls the leader plus up to GroupBatch-1 queued tenants sharing its
// non-zero model key, leaves the remainder in FIFO order, and never groups
// zero-key (unknown-model) tenants.
func TestExtractGroupSameModel(t *testing.T) {
	h := newHub(Config{Workers: 1, GroupBatch: 3})
	// Model keys across seven tenants: leader A, then B A 0 A B A queued.
	keys := []uint64{7, 9, 7, 0, 7, 9, 7}
	ev := Event{Device: "d", Value: 1}
	for i, key := range keys {
		name := fmt.Sprintf("t%d", i)
		if err := h.Register(name, &keyedProc{key: key}, TenantConfig{}); err != nil {
			t.Fatal(err)
		}
		if err := h.Submit(name, ev); err != nil {
			t.Fatal(err)
		}
	}

	group, ok := h.drainTurn(nil)
	if !ok {
		t.Fatal("drainTurn reported stopping")
	}
	// Leader t0 (key 7) + the first two queued key-7 tenants (t2, t4) —
	// GroupBatch 3 caps the group even though t6 also matches.
	wantGroup := []string{"t0", "t2", "t4"}
	if len(group) != len(wantGroup) {
		t.Fatalf("group size %d, want %d", len(group), len(wantGroup))
	}
	if got := h.grouped.Load(); got != 2 {
		t.Errorf("grouped counter = %d, want 2 followers", got)
	}
	// The remainder keeps FIFO order: t1(9) t3(0) t5(9) t6(7).
	if got, want := h.queuedKeys(), []uint64{9, 0, 9, 7}; len(got) != len(want) {
		t.Fatalf("runq after group extraction = %v, want %v", got, want)
	} else {
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("runq after group extraction = %v, want %v", got, want)
			}
		}
	}

	// Second turn leads with t1 (key 9) and pulls t5; the zero-key t3 in
	// between must never be grouped.
	group, _ = h.drainTurn(group)
	if len(group) != 2 {
		t.Fatalf("second turn group size %d, want 2 (both key-9 tenants)", len(group))
	}
	// Third turn leads with the zero-key t3: no grouping, even though t6
	// is queued behind it.
	group, _ = h.drainTurn(group)
	if len(group) != 1 {
		t.Fatalf("zero-key leader grouped %d tenants, want 1", len(group))
	}
	group, _ = h.drainTurn(group)
	if len(group) != 1 {
		t.Fatalf("final turn group size %d, want 1", len(group))
	}
	h.qmu.Lock()
	left := h.runq.len()
	h.qmu.Unlock()
	if left != 0 {
		t.Fatalf("%d tenants still queued after four turns", left)
	}
	// Every submitted event was processed exactly once.
	for i := range keys {
		p := h.table()[fmt.Sprintf("t%d", i)].proc.(*keyedProc)
		if p.handled != 1 {
			t.Fatalf("t%d handled %d events, want 1", i, p.handled)
		}
	}
}

// TestExtractGroupDisabled pins GroupBatch < 0: every turn drains exactly
// one tenant regardless of matching keys.
func TestExtractGroupDisabled(t *testing.T) {
	h := newHub(Config{Workers: 1, GroupBatch: -1})
	ev := Event{Device: "d", Value: 1}
	for i := 0; i < 4; i++ {
		name := fmt.Sprintf("t%d", i)
		if err := h.Register(name, &keyedProc{key: 7}, TenantConfig{}); err != nil {
			t.Fatal(err)
		}
		if err := h.Submit(name, ev); err != nil {
			t.Fatal(err)
		}
	}
	var group []*tenant
	for turns := 0; turns < 4; turns++ {
		group, _ = h.drainTurn(group)
		if len(group) != 1 {
			t.Fatalf("turn %d drained %d tenants with grouping disabled, want 1", turns, len(group))
		}
	}
	if got := h.grouped.Load(); got != 0 {
		t.Errorf("grouped counter = %d with grouping disabled, want 0", got)
	}
}

// TestGroupedDrainTurnZeroAlloc pins the grouped scheduling turn at zero
// steady-state allocations: submitting one event to each of four same-model
// tenants and draining them as one group must not allocate (the group
// scratch is worker-owned and reused; extraction compacts the run queue in
// place).
func TestGroupedDrainTurnZeroAlloc(t *testing.T) {
	h := newHub(Config{Workers: 1, GroupBatch: 4})
	const tenants = 4
	names := make([]string, tenants)
	for i := range names {
		names[i] = fmt.Sprintf("t%d", i)
		if err := h.Register(names[i], &keyedProc{key: 11}, TenantConfig{}); err != nil {
			t.Fatal(err)
		}
	}
	ev := Event{Device: "d", Value: 1}
	group := make([]*tenant, 0, tenants)
	allocs := testing.AllocsPerRun(1000, func() {
		for _, name := range names {
			if err := h.Submit(name, ev); err != nil {
				t.Fatal(err)
			}
		}
		var ok bool
		group, ok = h.drainTurn(group)
		if !ok {
			t.Fatal("drainTurn reported stopping")
		}
		if len(group) != tenants {
			t.Fatalf("turn drained %d tenants, want the full group of %d", len(group), tenants)
		}
	})
	if allocs != 0 {
		t.Errorf("grouped drain turn allocates %.1f allocs/op steady-state, want 0", allocs)
	}
	if h.grouped.Load() == 0 {
		t.Fatal("no grouped drains recorded; measurement was vacuous")
	}
}
