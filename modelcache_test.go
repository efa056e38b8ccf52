package causaliot

import (
	"bytes"
	"fmt"
	"reflect"
	"runtime"
	"sync"
	"testing"
	"time"

	"github.com/causaliot/causaliot/internal/dig"
	"github.com/causaliot/causaliot/internal/wire"
)

// scoredAlarm is one delivered alarm with its score, for bit-identity
// comparison across serving topologies.
type scoredAlarm struct {
	Alarm *Alarm
	Score float64
}

// servedRun is the full observable output of serving a fixed stream to a
// fixed set of homes: every alarm with its score in delivery order per home,
// plus the final exported model and state per home.
type servedRun struct {
	alarms  map[string][]scoredAlarm
	models  map[string][]byte
	states  map[string][]byte
	grouped uint64
}

// waitProcessed polls until the host has fully processed `want` events.
func waitProcessed(t *testing.T, host Host, want uint64) {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for host.Stats().Total.Processed < want {
		if time.Now().After(deadline) {
			t.Fatalf("host stalled at %d/%d processed", host.Stats().Total.Processed, want)
		}
		time.Sleep(time.Millisecond)
	}
}

// serveDifferential replays a two-phase stream to `homes` same-model tenants
// on host: phase 1 round-robin, then (at the exact processed-event boundary)
// a model hot-swap on home-0 and the optional disrupt hook, then phase 2.
// Submission is single-threaded so every home sees a deterministic stream
// and the swap lands at the same per-home event index on every topology.
func serveDifferential(t *testing.T, host Host, homes int, sysA, sysB *System, phase1, phase2 []Event, disrupt func()) servedRun {
	t.Helper()
	r := servedRun{
		alarms: make(map[string][]scoredAlarm),
		models: make(map[string][]byte),
		states: make(map[string][]byte),
	}
	var mu sync.Mutex
	names := make([]string, homes)
	for i := range names {
		names[i] = fmt.Sprintf("home-%d", i)
		err := host.Register(names[i], sysA, TenantOptions{
			OnAlarm: func(tenant string, a *Alarm, score float64) {
				mu.Lock()
				r.alarms[tenant] = append(r.alarms[tenant], scoredAlarm{Alarm: a, Score: score})
				mu.Unlock()
			},
			OnError: func(string, Event, error) {},
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	for _, ev := range phase1 {
		for _, name := range names {
			if err := host.Submit(name, ev); err != nil {
				t.Fatalf("submit %s: %v", name, err)
			}
		}
	}
	waitProcessed(t, host, uint64(homes*len(phase1)))
	// Every topology swaps home-0 at this exact event boundary, so the
	// post-swap stream scores against sysB from the same index everywhere.
	if err := host.Swap(names[0], sysB); err != nil {
		t.Fatalf("mid-stream swap: %v", err)
	}
	if disrupt != nil {
		disrupt()
	}
	for _, ev := range phase2 {
		for _, name := range names {
			if err := host.Submit(name, ev); err != nil {
				t.Fatalf("submit %s: %v", name, err)
			}
		}
	}
	waitProcessed(t, host, uint64(homes*(len(phase1)+len(phase2))))
	for _, name := range names {
		var model, state bytes.Buffer
		if err := host.Export(name, ExportOptions{Model: &model, State: &state}); err != nil {
			t.Fatal(err)
		}
		r.models[name] = model.Bytes()
		r.states[name] = state.Bytes()
	}
	r.grouped = host.Stats().GroupedDrains
	if err := host.Close(); err != nil {
		t.Fatal(err)
	}
	return r
}

// TestGroupedServingDifferential is the pin for the same-model batch
// scheduler: a hub with model grouping enabled, a hub with grouping
// disabled, and a sharded fleet (grouping enabled, with a live migration
// mid-stream) must all produce bit-identical output — same alarms with the
// same scores per home, same final exported model and checkpoint — on the
// same deterministic stream, including across a mid-stream model hot-swap.
func TestGroupedServingDifferential(t *testing.T) {
	sysA := mustTrain(t, Config{Tau: 2})
	sysB := mustTrainSeed(t, Config{Tau: 2}, 5)
	phase1 := trainingLog(60, 9)
	phase2 := append(ghostSequence(), trainingLog(60, 11)...)
	const homes = 8

	grouped := serveDifferential(t, NewHub(HubConfig{Workers: 1, QueueSize: 4096}),
		homes, sysA, sysB, phase1, phase2, nil)
	ungrouped := serveDifferential(t, NewHub(HubConfig{Workers: 1, QueueSize: 4096, GroupBatch: -1}),
		homes, sysA, sysB, phase1, phase2, nil)
	fl := NewFleet(FleetConfig{Shards: 2, Hub: HubConfig{Workers: 1, QueueSize: 4096}})
	sharded := serveDifferential(t, fl, homes, sysA, sysB, phase1, phase2, func() {
		// Live-migrate home-1 to the other shard at the same quiesced
		// boundary: migration must not perturb its stream either.
		from, err := fl.ShardOf("home-1")
		if err != nil {
			t.Fatal(err)
		}
		for _, id := range fl.Shards() {
			if id != from {
				if err := fl.Migrate("home-1", id); err != nil {
					t.Fatalf("mid-stream migrate: %v", err)
				}
				return
			}
		}
		t.Fatal("no migration target shard")
	})

	if grouped.grouped == 0 {
		t.Error("grouping enabled but no tenant was drained as a group follower; differential is vacuous")
	}
	if ungrouped.grouped != 0 {
		t.Errorf("GroupBatch -1 still grouped %d drains", ungrouped.grouped)
	}

	total := 0
	for i := 0; i < homes; i++ {
		name := fmt.Sprintf("home-%d", i)
		for topo, r := range map[string]servedRun{"ungrouped hub": ungrouped, "sharded fleet": sharded} {
			ga, ra := grouped.alarms[name], r.alarms[name]
			if len(ga) != len(ra) {
				t.Fatalf("%s: grouped hub raised %d alarms, %s %d", name, len(ga), topo, len(ra))
			}
			for k := range ga {
				if ga[k].Score != ra[k].Score {
					t.Fatalf("%s alarm %d: grouped score %v, %s score %v", name, k, ga[k].Score, topo, ra[k].Score)
				}
				if !reflect.DeepEqual(ga[k].Alarm, ra[k].Alarm) {
					t.Fatalf("%s alarm %d diverges between grouped hub and %s:\n%s\nvs\n%s",
						name, k, topo, ga[k].Alarm.Explain(), ra[k].Alarm.Explain())
				}
			}
			if !bytes.Equal(grouped.models[name], r.models[name]) {
				t.Fatalf("%s: exported model diverges between grouped hub and %s", name, topo)
			}
			if !bytes.Equal(grouped.states[name], r.states[name]) {
				t.Fatalf("%s: exported checkpoint diverges between grouped hub and %s", name, topo)
			}
		}
		total += len(grouped.alarms[name])
	}
	if total == 0 {
		t.Fatal("differential stream produced no alarms; ghost sequence should have fired on every home")
	}
}

// TestModelCacheSoak churns registrations, hot-swaps, and deregistrations
// across two shared models on many goroutines and requires the model cache's
// refcount bookkeeping to return exactly to its baseline: no shared compiled
// model freed while referenced (the concurrent scoring would crash or race),
// and no entry or reference leaked once every home is gone.
func TestModelCacheSoak(t *testing.T) {
	if testing.Short() {
		t.Skip("soak test")
	}
	sysA := mustTrain(t, Config{Tau: 2})
	sysB := mustTrainSeed(t, Config{Tau: 2}, 5)
	base := dig.CacheStats()

	// Two long-lived anchor homes keep both models resident for the whole
	// churn (the realistic fleet shape), so every churn acquire must join
	// the shared entry — and the churn can never free a Compiled the
	// anchors are still scoring with.
	anchorA, err := sysA.NewMonitor()
	if err != nil {
		t.Fatal(err)
	}
	anchorB, err := sysB.NewMonitor()
	if err != nil {
		t.Fatal(err)
	}

	h := NewHub(HubConfig{Workers: 2, QueueSize: 64})
	stream := trainingLog(10, 3)
	const churners, rounds = 8, 40
	var wg sync.WaitGroup
	for w := 0; w < churners; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				name := fmt.Sprintf("soak-%d-%d", w, r)
				sys, alt := sysA, sysB
				if (w+r)%2 == 0 {
					sys, alt = sysB, sysA
				}
				if err := h.Register(name, sys, TenantOptions{OnAlarm: func(string, *Alarm, float64) {}}); err != nil {
					t.Errorf("register %s: %v", name, err)
					return
				}
				for _, ev := range stream {
					if err := h.Submit(name, ev); err != nil {
						t.Errorf("submit %s: %v", name, err)
						return
					}
				}
				if err := h.Swap(name, alt); err != nil {
					t.Errorf("swap %s: %v", name, err)
					return
				}
				if err := h.Deregister(name); err != nil {
					t.Errorf("deregister %s: %v", name, err)
					return
				}
				// Bare-monitor churn on the same shared entries.
				mon, err := sys.NewMonitor()
				if err != nil {
					t.Errorf("monitor: %v", err)
					return
				}
				if err := mon.Swap(alt); err != nil {
					t.Errorf("monitor swap: %v", err)
					return
				}
				mon.Close()
				mon.Close() // Close is idempotent; a double release would corrupt refs
			}
		}(w)
	}
	wg.Wait()
	mid := dig.CacheStats()
	if got, max := mid.Entries-base.Entries, 2; got > max {
		t.Errorf("churn over 2 models grew the cache by %d entries, want <= %d", got, max)
	}
	if err := h.Close(); err != nil {
		t.Fatal(err)
	}
	anchorA.Close()
	anchorB.Close()
	after := dig.CacheStats()
	if after.Entries != base.Entries || after.Refs != base.Refs {
		t.Fatalf("model cache leaked: baseline %d entries/%d refs, after churn %d entries/%d refs",
			base.Entries, base.Refs, after.Entries, after.Refs)
	}
	// With the anchors resident, every one of the churn's acquires must have
	// joined a shared entry rather than interning a private duplicate.
	if after.Hits-base.Hits < uint64(churners*rounds) {
		t.Errorf("churn produced %d cache hits, want >= %d; dedup never engaged",
			after.Hits-base.Hits, churners*rounds)
	}
}

// TestExportSwapStress races Export against manual Swap, the adaptive
// lifecycle's background refresh, live migration, and a full-rate producer
// on the same tenant. The refcount transfer inside Swap and the fingerprint
// stamped into checkpoints are exactly where a use-after-release or a torn
// model/state pair would hide; every exported pair must restore cleanly
// (never ErrModelMismatch — Export holds the stream paused, so the pair is
// consistent by construction).
func TestExportSwapStress(t *testing.T) {
	if testing.Short() {
		t.Skip("stress test")
	}
	sysA := mustTrain(t, Config{Tau: 2})
	sysB := mustTrainSeed(t, Config{Tau: 2}, 2)
	fl := NewFleet(FleetConfig{Shards: 2, Hub: HubConfig{Workers: 2, QueueSize: 256}})
	const tenant = "casa"
	err := fl.Register(tenant, sysA, TenantOptions{
		OnAlarm: func(string, *Alarm, float64) {},
		OnError: func(string, Event, error) {},
		Adapt: &AdaptConfig{
			ScanEvery:          64,
			MinEvidence:        32,
			MinObsPerDOF:       1,
			RefitWindow:        1024,
			StructuralFraction: 2,
		},
	})
	if err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	wg.Add(1)
	go func() { // producer: drifted stream keeps the lifecycle refreshing
		defer wg.Done()
		for i := 0; i < 3; i++ {
			for _, ev := range driftedLog(60, int64(70+i)) {
				if err := fl.Submit(tenant, ev); err != nil {
					t.Errorf("submit: %v", err)
					return
				}
			}
		}
	}()
	wg.Add(1)
	go func() { // swapper: manual hot swaps racing the background refresh
		defer wg.Done()
		for k := 0; k < 60; k++ {
			sys := sysA
			if k%2 == 0 {
				sys = sysB
			}
			if err := fl.Swap(tenant, sys); err != nil {
				t.Errorf("swap %d: %v", k, err)
				return
			}
		}
	}()
	wg.Add(1)
	go func() { // exporter: every pair must be self-consistent and restorable
		defer wg.Done()
		for k := 0; k < 60; k++ {
			var model, state bytes.Buffer
			if err := fl.Export(tenant, ExportOptions{Model: &model, State: &state}); err != nil {
				t.Errorf("export %d: %v", k, err)
				return
			}
			sys, err := Load(bytes.NewReader(model.Bytes()))
			if err != nil {
				t.Errorf("load exported model %d: %v", k, err)
				return
			}
			mon, err := sys.RestoreMonitor(bytes.NewReader(state.Bytes()))
			if err != nil {
				t.Errorf("restore exported pair %d: %v (torn model/state export)", k, err)
				return
			}
			mon.Close()
		}
	}()
	wg.Add(1)
	go func() { // migrator: ping-pong the tenant between the two shards
		defer wg.Done()
		for k := 0; k < 12; k++ {
			from, err := fl.ShardOf(tenant)
			if err != nil {
				t.Errorf("shardof: %v", err)
				return
			}
			for _, id := range fl.Shards() {
				if id != from {
					if err := fl.Migrate(tenant, id); err != nil {
						t.Errorf("migrate %d: %v", k, err)
					}
					break
				}
			}
		}
	}()
	wg.Wait()
	if err := fl.Close(); err != nil {
		t.Fatal(err)
	}
	s := fl.Stats().Total
	if s.Dropped != 0 || s.Errors != 0 || s.Panics != 0 {
		t.Fatalf("export/swap stress damaged the stream: %+v", s)
	}
}

// TestFleetSubmitZeroAlloc pins the fleet's per-event ingestion path —
// router dispatch through the stored shard sink into the tenant queue — at
// zero steady-state allocations per submitted event. Occasional amortized
// run-queue growth is tolerated by AllocsPerRun's integer averaging; a per-
// event allocation (e.g. a closure rebuilt per DispatchBatch) fails immediately.
// The wire's batch entry (hostBackend.SubmitBatch) is pinned the same way on
// a hub and a fleet: a decoded frame's events reach the tenant queue as they
// are, so a whole wire.MaxEventBatch batch must cost no allocation either.
func TestFleetSubmitZeroAlloc(t *testing.T) {
	sys := mustTrain(t, Config{Tau: 2})
	stream := trainingLog(50, 4)
	batch := stream[:wire.MaxEventBatch]
	hubCfg := HubConfig{Workers: 1, QueueSize: 1 << 15}
	fleetHost := func() Host { return NewFleet(FleetConfig{Shards: 1, Hub: hubCfg}) }
	cases := []struct {
		name   string
		host   func() Host
		runs   int
		submit func(h Host, i int) error
	}{
		{"Fleet.Submit", fleetHost, 2000, func(h Host, i int) error {
			return h.Submit("home", stream[i%len(stream)])
		}},
		{"SubmitBatch/Hub", func() Host { return NewHub(hubCfg) }, 200, func(h Host, _ int) error {
			_, err := (&hostBackend{host: h}).SubmitBatch("home", batch)
			return err
		}},
		{"SubmitBatch/Fleet", fleetHost, 200, func(h Host, _ int) error {
			_, err := (&hostBackend{host: h}).SubmitBatch("home", batch)
			return err
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			h := tc.host()
			defer h.Close()
			if err := h.Register("home", sys, TenantOptions{OnAlarm: func(string, *Alarm, float64) {}}); err != nil {
				t.Fatal(err)
			}
			// Warm the serving path past construction effects.
			warm := trainingLog(20, 3)
			for _, ev := range warm {
				if err := h.Submit("home", ev); err != nil {
					t.Fatal(err)
				}
			}
			waitProcessed(t, h, uint64(len(warm)))
			i := 0
			allocs := testing.AllocsPerRun(tc.runs, func() {
				if err := tc.submit(h, i); err != nil {
					t.Fatal(err)
				}
				i++
			})
			if allocs != 0 {
				t.Errorf("%s allocates %.1f allocs/op steady-state, want 0", tc.name, allocs)
			}
		})
	}
}

// BenchmarkModelDedup is the many-homes-few-models memory scenario: 1000
// homes restore monitors from four distinct saved models, first each with a
// private copy of its model (the model cache off), then sharing one
// compiled model per fingerprint (the cache on). It reports the settled
// heap cost per home.
func BenchmarkModelDedup(b *testing.B) {
	const homes, models = 1000, 4
	blobs := make([][]byte, models)
	for m := range blobs {
		sys, _ := simHome(b, int64(7+m))
		var buf bytes.Buffer
		if err := sys.Save(&buf); err != nil {
			b.Fatal(err)
		}
		blobs[m] = buf.Bytes()
	}
	for _, tc := range []struct {
		name  string
		cache bool
	}{
		{"private", false},
		{"shared", true},
	} {
		b.Run(tc.name, func(b *testing.B) {
			dig.SetCacheEnabled(tc.cache)
			defer func() {
				dig.CacheReset()
				dig.SetCacheEnabled(true)
			}()
			var perHome float64
			for i := 0; i < b.N; i++ {
				dig.CacheReset()
				systems := make([]*System, homes)
				monitors := make([]*Monitor, homes)
				var m0, m1 runtime.MemStats
				runtime.GC()
				runtime.ReadMemStats(&m0)
				for h := range monitors {
					sys, err := Load(bytes.NewReader(blobs[h%models]))
					if err != nil {
						b.Fatal(err)
					}
					if monitors[h], err = sys.NewMonitor(); err != nil {
						b.Fatal(err)
					}
					systems[h] = sys
				}
				runtime.GC()
				runtime.ReadMemStats(&m1)
				perHome = (float64(m1.HeapAlloc) - float64(m0.HeapAlloc)) / homes
				for _, mon := range monitors {
					mon.Close()
				}
				runtime.KeepAlive(systems)
			}
			b.ReportMetric(perHome, "B/tenant")
		})
	}
}
