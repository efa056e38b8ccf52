package causaliot

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"github.com/causaliot/causaliot/internal/netchaos"
)

// TestNetchaosClusterSoak is the multi-process acceptance soak: a 2-worker
// cluster router serving the chaos stream with one shard link running
// through a seeded netchaos proxy, a scripted link kill, and a
// cross-process live migration with the link killed mid-handoff. The run
// must land exactly like an uninterrupted single-process hub: identical
// alarm sequence, identical final checkpoint bytes, zero lost or
// duplicated events. It runs once per netchaos seed.
func TestNetchaosClusterSoak(t *testing.T) {
	netchaosGate(t)
	sys := mustTrain(t, Config{Tau: 2})
	evs := chaosStream(80)
	wantSeqs, wantExport := baselineRun(t, sys, evs)
	if len(wantSeqs) == 0 {
		t.Fatal("baseline raised no alarms; the soak would prove nothing")
	}
	for _, seed := range []int64{4242, 7, 1234} {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			clusterSoak(t, sys, evs, wantSeqs, wantExport, seed)
		})
	}
}

func clusterSoak(t *testing.T, sys *System, evs []Event, wantSeqs []uint64, wantExport []byte, seed int64) {
	w1, addr1 := startClusterWorker(t, ClusterWorkerConfig{Hub: HubConfig{Workers: 2, QueueSize: 512}, Token: "tok"})
	w2, addr2 := startClusterWorker(t, ClusterWorkerConfig{Hub: HubConfig{Workers: 2, QueueSize: 512}, Token: "tok"})
	_, _ = w1, w2

	// Shard 0's link runs through the fault proxy; shard 1 dials direct.
	// The first connection carries about 6 upstream frames before the
	// scripted kill below and the last one about 22, so a seeded fault is
	// planned at frame 2–5, where every connection reaches.
	chaos, err := netchaos.New(netchaos.Config{
		Target:    addr1,
		Seed:      seed,
		Weights:   netchaos.Weights{Kill: 0.7, Trickle: 0.1},
		MinFrames: 2,
		MaxFrames: 6,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer chaos.Close()

	f, err := NewCluster(ClusterConfig{
		Workers: []RemoteShardConfig{
			{Addr: chaos.Addr(), Token: "tok", MaxAttempts: 10000,
				BackoffMin: 2 * time.Millisecond, BackoffMax: 50 * time.Millisecond,
				ControlTimeout: 3 * time.Second, KeepAlive: 50 * time.Millisecond, Logf: t.Logf},
			{Addr: addr2, Token: "tok", Logf: t.Logf},
		},
		Hub: HubConfig{QueueSize: 512},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()

	// untilUp retries a control operation that a fault on the chaos link
	// cut short. An aborted operation (link down mid-control) must leave
	// the home where it was with nothing lost, so such failures are
	// retried, not fatal — the differential check at the end is the
	// arbiter.
	untilUp := func(what string, op func() error) {
		deadline := time.Now().Add(30 * time.Second)
		for {
			err := op()
			if err == nil {
				return
			}
			if !errors.Is(err, ErrShardUnavailable) && !errors.Is(err, ErrBackpressure) {
				t.Fatalf("%s: %v", what, err)
			}
			if time.Now().After(deadline) {
				t.Fatalf("%s never succeeded: %v", what, err)
			}
			time.Sleep(10 * time.Millisecond)
		}
	}
	untilUp("register", func() error { return f.Register("home", sys, TenantOptions{QueueSize: 512}) })
	var mu sync.Mutex
	var gotSeqs []uint64
	if err := f.SetAlarmRoute("home", func(ta TenantAlarm) {
		mu.Lock()
		gotSeqs = append(gotSeqs, ta.Seq)
		mu.Unlock()
	}); err != nil {
		t.Fatal(err)
	}

	// Find the shard behind the fault proxy by its dial address, and make
	// sure the home serves through it — the soak is about that link.
	chaosShard, other := -1, -1
	for _, ss := range f.FleetStats().Shards {
		if ss.Health.Addr == chaos.Addr() {
			chaosShard = ss.Shard
		} else {
			other = ss.Shard
		}
	}
	if chaosShard < 0 || other < 0 {
		t.Fatalf("could not locate the chaos shard among %+v", f.Shards())
	}
	if at, _ := f.ShardOf("home"); at != chaosShard {
		untilUp("placing home on the chaos shard", func() error { return f.Migrate("home", chaosShard) })
	}

	// migrateUnderFire flips the home between worker processes while the
	// seeded faults run, killing the chaos-side link right as the handoff
	// starts.
	migrations := 0
	migrateUnderFire := func(to int, killFirst bool) {
		if killFirst {
			chaos.KillAll()
		}
		untilUp(fmt.Sprintf("migrate to %d", to), func() error { return f.Migrate("home", to) })
		migrations++
	}

	third := len(evs) / 3
	submit := func(lo, hi int) {
		for _, ev := range evs[lo:hi] {
			for {
				err := f.Submit("home", ev)
				if err == nil {
					break
				}
				// Mid-migration the gap buffer can fill; yield and retry
				// rather than shedding (the baseline sheds nothing).
				if errors.Is(err, ErrBackpressure) {
					time.Sleep(time.Millisecond)
					continue
				}
				t.Fatalf("submit %d: %v", ev.Seq, err)
			}
		}
	}

	submit(0, third)
	chaos.KillAll() // scripted link kill on top of the seeded schedule
	submit(third, 2*third)
	// Cross-process migration off the chaos shard, with the link killed as
	// the handoff begins — then back onto it.
	migrateUnderFire(other, true)
	if now, _ := f.ShardOf("home"); now != other {
		t.Fatalf("home on shard %d after migration, want %d", now, other)
	}
	migrateUnderFire(chaosShard, false)
	submit(2*third, len(evs))

	waitFor(t, "cluster drain", func() bool {
		return f.Stats().Total.Processed == uint64(len(evs))
	})
	st := f.Stats()
	if st.Total.Processed != uint64(len(evs)) || st.Total.Dropped != 0 || st.Total.Errors != 0 {
		t.Fatalf("cluster counters %+v: want %d processed, zero dropped/errors", st.Total, len(evs))
	}

	waitFor(t, "alarm parity", func() bool {
		mu.Lock()
		defer mu.Unlock()
		return len(gotSeqs) >= len(wantSeqs)
	})
	mu.Lock()
	got := append([]uint64(nil), gotSeqs...)
	mu.Unlock()
	if len(got) != len(wantSeqs) {
		t.Fatalf("alarm count %d != baseline %d (loss or duplication)", len(got), len(wantSeqs))
	}
	// The single producer and per-tenant event ordering make the alarm
	// sequence deterministic — compare in order, not as a set.
	for i := range got {
		if got[i] != wantSeqs[i] {
			t.Fatalf("alarm seqs diverge at %d: %d != %d", i, got[i], wantSeqs[i])
		}
	}

	// The chaos must actually have bitten, and the link must have healed.
	if cs := chaos.Stats(); cs.Killed == 0 {
		t.Errorf("no kills landed (proxy %+v): the soak only exercised the happy path", cs)
	}
	var chaosHealth ShardHealth
	for _, ss := range f.FleetStats().Shards {
		if ss.Shard == chaosShard {
			chaosHealth = ss.Health
		}
	}
	if chaosHealth.Reconnects == 0 {
		t.Error("chaos-side link never reconnected")
	}
	if chaosHealth.Link != "connected" {
		t.Errorf("chaos-side link finished %q, want connected", chaosHealth.Link)
	}
	t.Logf("soak: %d migrations, link %+v, proxy %+v", migrations, chaosHealth, chaos.Stats())

	// Differential finish: the checkpoint fetched over the wire from the
	// worker process must match the uninterrupted single-process run byte
	// for byte.
	var buf bytes.Buffer
	if err := f.Export("home", ExportOptions{Model: &buf, State: &buf}); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), wantExport) {
		t.Fatalf("final checkpoint diverges from the uninterrupted run (%d vs %d bytes)", buf.Len(), len(wantExport))
	}
}
