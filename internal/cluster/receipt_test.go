package cluster

import (
	"sync"
	"testing"
	"time"

	"github.com/causaliot/causaliot/internal/wire"
)

// waitWithin polls cond on a 1 ms ticker until it holds, failing the test
// after limit, and reports how long it took.
func waitWithin(t *testing.T, limit time.Duration, what string, cond func() bool) time.Duration {
	t.Helper()
	start := time.Now()
	tick := time.NewTicker(time.Millisecond)
	defer tick.Stop()
	for !cond() {
		if time.Since(start) > limit {
			t.Fatalf("%s: not within %v", what, limit)
		}
		<-tick.C
	}
	return time.Since(start)
}

// receiptSlack is the scheduling allowance added to wire.ReceiptDelay where
// a test waits for the fallback.
const receiptSlack = 2 * time.Second

// countingSink records the alarm seqs a tenant's sink receives.
type countingSink struct {
	mu   sync.Mutex
	seqs []uint64
}

func (s *countingSink) sink(a wire.Alarm) {
	s.mu.Lock()
	s.seqs = append(s.seqs, a.Seq)
	s.mu.Unlock()
}

func (s *countingSink) len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.seqs)
}

// TestWorkerQuietRouterReceipts: a router that submits nothing still
// confirms the alarms it dispatches, the keepalive far away, so the
// worker's bank empties by wire.ReceiptLag and the ReceiptDelay fallback.
func TestWorkerQuietRouterReceipts(t *testing.T) {
	backend := newFakeBackend("")
	w, addr := startWorker(t, WorkerConfig{Backend: backend})
	p, err := Open(ProxyConfig{Addr: addr, KeepAlive: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	var got countingSink
	if err := p.Register("t1", []byte("model"), nil, 64, 0, false, got.sink); err != nil {
		t.Fatal(err)
	}
	tn := w.tenant("t1")
	// A burst below the receipt lag waits for the fallback; one past it
	// nudges the link early and leaves the fallback the rest.
	total := 0
	for _, burst := range []int{wire.ReceiptLag / 2, 3*wire.ReceiptLag + 5} {
		for range burst {
			total++
			backend.raise("t1", wire.Alarm{Seq: uint64(total), Score: 0.5})
		}
		waitWithin(t, 10*time.Second, "alarm dispatch", func() bool { return got.len() == total })
		took := waitWithin(t, wire.ReceiptDelay+receiptSlack, "bank drain", func() bool { return tn.rx.Banked() == 0 })
		t.Logf("burst of %d: bank drained %v after the last dispatch, %d receipt frames so far", burst, took, w.Stats().AlarmReceipts)
	}
	st := w.Stats()
	if st.AlarmReceipts == 0 || st.AlarmsDropped != 0 {
		t.Fatalf("receipts %d dropped %d, want >0 and 0", st.AlarmReceipts, st.AlarmsDropped)
	}
	if ps := p.Stats(); ps.Alarms != uint64(total) || ps.DuplicateAlarms != 0 {
		t.Fatalf("proxy dispatched %d (%d duplicates), want %d and 0", ps.Alarms, ps.DuplicateAlarms, total)
	}
}

// TestProxyReceiptsRideSubmits: while the router streams events, the
// tenant's receipts ride the link's event writes, so its alarms cost far
// fewer receipt frames than alarms, and the worker's bank still drains.
func TestProxyReceiptsRideSubmits(t *testing.T) {
	backend := newFakeBackend("")
	w, addr := startWorker(t, WorkerConfig{Backend: backend})
	p, err := Open(ProxyConfig{Addr: addr, KeepAlive: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	var got countingSink
	if err := p.Register("t1", []byte("model"), nil, 64, 0, false, got.sink); err != nil {
		t.Fatal(err)
	}
	const rounds, round = 32, 16
	seq := uint64(0)
	for r := 1; r <= rounds; r++ {
		// Each round raises a burst of alarms, then streams events whose
		// writes carry the burst's receipt.
		for range round {
			backend.raise("t1", wire.Alarm{Seq: uint64(r), Score: 0.5})
		}
		waitWithin(t, 10*time.Second, "alarm dispatch", func() bool { return got.len() == r*round })
		for range 4 {
			seq++
			if err := p.Submit("t1", testEvent(seq)); err != nil {
				t.Fatal(err)
			}
		}
	}
	tn := w.tenant("t1")
	waitWithin(t, wire.ReceiptDelay+receiptSlack, "bank drain", func() bool { return tn.rx.Banked() == 0 })
	st := w.Stats()
	if n := uint64(rounds * round); st.AlarmReceipts == 0 || st.AlarmReceipts*4 > n {
		t.Fatalf("%d receipt frames for %d alarms, want at most a quarter", st.AlarmReceipts, n)
	}
	if st.AlarmsDropped != 0 {
		t.Fatalf("%d alarms dropped", st.AlarmsDropped)
	}
	t.Logf("%d receipt frames for %d alarms", st.AlarmReceipts, rounds*round)
}
