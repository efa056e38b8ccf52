package main

import (
	"errors"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"github.com/causaliot/causaliot"
	"github.com/causaliot/causaliot/internal/wire"
)

const (
	// roundLen is one round's send time. A run is many short rounds and
	// every end-to-end figure is the median over them, so the seconds in
	// which a shared host stalls the process move it little.
	roundLen = 500 * time.Millisecond
	// latencyShare is the share of a traced run's rounds that an
	// unthrottled workload runs paced at its rate, for the alarm latency
	// and its per-layer split (a closed loop's latency only says how full
	// it keeps its queues). An untraced run of such a workload runs
	// unthrottled throughout.
	latencyShare = 0.3
	// burstRun is how many consecutive events the in-process producer
	// submits to one home before moving to the next.
	burstRun = 64
	// sampleEvery is the stats sampler's tick.
	sampleEvery = 50 * time.Millisecond
	// pacedTick is the shortest wait between two passes of the paced
	// generator: each pass sends every event due, flushes, and sleeps. The
	// Go runtime wakes a sleeper on an idle processor no finer than about
	// a millisecond anyway; stating the tick makes the batching explicit.
	// The delay it adds is part of every latency, taken from the due time.
	pacedTick = time.Millisecond
	// migrateEvery is cluster-migrate's handoff cadence.
	migrateEvery = 250 * time.Millisecond
	// drainTimeout bounds the wait for the host to decide every offered
	// event; alarmTimeout the wait for every raised alarm to reach its
	// producer.
	drainTimeout = 60 * time.Second
	alarmTimeout = 5 * time.Second
	// lateBound is the generator lateness (p99, send time − due time)
	// beyond which a paced round is invalid: 20 ticks, far above the few
	// milliseconds of timer jitter a shared VM shows, far below the
	// unbounded lag of a rate the stack cannot sustain. growthBound is
	// the rise in median sampled queue depth, first quarter to last, that
	// marks the offered rate as unsustainable.
	lateBound   = 20 * time.Millisecond
	growthBound = 256
)

// round is one measured slice of a run.
type round struct {
	warmup     bool
	traced     bool
	paced      bool
	events     int64
	wallNs     int64 // first send → host reports every offered event decided
	cpuNs      int64
	mallocs    uint64
	lat        []int64 // alarm latency samples, due → receipt
	lateP99    int64   // paced: generator lateness
	depth      []int   // sampled total queue depth
	valid      bool
	invalidWhy string
}

// runner drives one workload over an already set-up stack.
type runner struct {
	sp    spec
	stk   *stack
	homes []*home
	rec   *recorder
	ver   *verifier
	trace bool
	// rounds is the number of rounds. Round 0 warms the stack up and
	// enters no figure; rounds below mainRounds are of the workload's own
	// kind (unthrottled, or paced on wire-paced), the rest paced for
	// latency.
	rounds, mainRounds int

	offered    int64
	submitErrs atomic.Int64
	late       []int64 // in-process paced generator: send time − due time
	service    causaliot.TenantStats

	// sampler output, appended to the current round
	sampleMu  sync.Mutex
	curDepth  []int
	pendMax   int
	retxStart uint64
	retxEnd   uint64

	// migrator output
	migWall   []int64
	migFailed int
	migDone   int
}

func cpuNow() int64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return ru.Utime.Nano() + ru.Stime.Nano()
}

func mallocsNow() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

// measure runs every round over seconds of total send time.
func (r *runner) measure(seconds int) ([]round, error) {
	measured := max(2, int(time.Duration(seconds)*time.Second/roundLen))
	r.rounds = 1 + measured
	r.mainRounds = r.rounds
	if r.trace && !r.sp.paced {
		r.mainRounds -= max(1, int(latencyShare*float64(measured)))
	}
	stopSampler := r.startSampler()
	stopMigrator := r.startMigrator()
	out := make([]round, 0, r.rounds)
	var err error
	for i := 0; i < r.rounds; i++ {
		if i == r.mainRounds {
			// Handoffs run through the unthrottled rounds only: a
			// handoff's pause sets the paced rounds' latency tail, and
			// that pause is fleet.migrate_ms's to report.
			stopMigrator()
			stopMigrator = func() {}
		}
		var rd round
		if rd, err = r.round(i); err != nil {
			break
		}
		out = append(out, rd)
	}
	stopMigrator()
	stopSampler()
	return out, err
}

func (r *runner) round(i int) (round, error) {
	rd := round{warmup: i == 0, traced: r.trace && i%2 == 1, paced: r.sp.paced || i >= r.mainRounds, valid: true}
	// Every round starts from a collected heap, so the previous round's
	// verification garbage is not collected on this round's clock.
	runtime.GC()
	r.sampleMu.Lock()
	r.curDepth = nil
	r.sampleMu.Unlock()
	r.rec.on.Store(rd.traced)
	r.rec.paced.Store(rd.paced)
	offered0 := r.offered
	cpu0, mallocs0 := cpuNow(), mallocsNow()
	t0 := nanos()
	deadline := t0 + int64(roundLen)
	if err := r.produce(deadline, rd.paced); err != nil {
		r.rec.on.Store(false)
		return rd, err
	}
	rd.events = r.offered - offered0
	want := uint64(r.offered)
	drainBy := time.Now().Add(drainTimeout)
	for {
		done := r.stk.processed() + uint64(r.stk.nacks.Load()) + uint64(r.submitErrs.Load())
		if done >= want {
			break
		}
		if time.Now().After(drainBy) {
			r.rec.on.Store(false)
			return rd, fmt.Errorf("round %d: host decided %d of %d offered events within %v", i, done, want, drainTimeout)
		}
		time.Sleep(time.Millisecond)
	}
	rd.wallNs = nanos() - t0
	rd.cpuNs = cpuNow() - cpu0
	rd.mallocs = mallocsNow() - mallocs0
	if i == r.mainRounds-1 {
		// The hub's service percentiles cover its most recent events:
		// read them where the workload's own rounds end.
		r.service = r.stk.host.Stats().Total
	}
	r.awaitAlarms()
	r.rec.on.Store(false)
	if rd.paced {
		for _, h := range r.homes {
			h.mu.Lock()
			for _, a := range h.alarms {
				if a.lat >= 0 {
					rd.lat = append(rd.lat, a.lat)
				}
			}
			h.mu.Unlock()
		}
	}
	if err := r.ver.check(r.homes); err != nil {
		return rd, err
	}
	r.sampleMu.Lock()
	rd.depth = r.curDepth
	r.sampleMu.Unlock()
	if rd.paced {
		late := append([]int64(nil), r.late...)
		r.late = r.late[:0]
		for _, p := range r.stk.prods {
			late = append(late, p.late...)
			p.late = p.late[:0]
		}
		rd.lateP99 = percentile(sortedInt64(late), 0.99)
		if rd.lateP99 > int64(lateBound) {
			rd.valid, rd.invalidWhy = false, fmt.Sprintf("generator p99 lateness %v > %v", time.Duration(rd.lateP99), lateBound)
		} else if growing(rd.depth) {
			rd.valid, rd.invalidWhy = false, "sampled queue depth kept growing"
		}
	}
	return rd, nil
}

// growing reports whether the median sampled queue depth rose by more
// than growthBound from the round's first quarter to its last. Medians,
// because a sample that lands just after a pass's batch reads high.
func growing(depth []int) bool {
	q := len(depth) / 4
	if q == 0 {
		return false
	}
	med := func(v []int) int {
		s := append([]int(nil), v...)
		sort.Ints(s)
		return s[len(s)/2]
	}
	return med(depth[len(depth)-q:])-med(depth[:q]) > growthBound
}

// awaitAlarms waits until every alarm the host raised reached a producer
// or was counted as dropped on the way, bounded by alarmTimeout; the
// parity check later counts whatever is still missing.
func (r *runner) awaitAlarms() {
	by := time.Now().Add(alarmTimeout)
	for time.Now().Before(by) {
		raised := r.stk.host.Stats().Total.Alarms
		var got uint64
		for _, h := range r.homes {
			h.mu.Lock()
			got += h.received
			h.mu.Unlock()
		}
		if r.stk.ws != nil {
			got += r.stk.ws.Stats().AlarmsDropped
		}
		if got >= raised {
			return
		}
		time.Sleep(time.Millisecond)
	}
}

// produce runs the producers until deadline and waits for them.
func (r *runner) produce(deadline int64, paced bool) error {
	if r.sp.conns == 0 {
		if paced {
			return r.produceInProcessPaced(deadline)
		}
		return r.produceInProcess(deadline)
	}
	var wg sync.WaitGroup
	errs := make([]error, len(r.stk.prods))
	counts := make([]int64, len(r.stk.prods))
	for i, p := range r.stk.prods {
		wg.Add(1)
		go func(i int, p *producer) {
			defer wg.Done()
			before := p.sent
			if paced {
				errs[i] = r.producePaced(p, deadline)
			} else {
				errs[i] = r.produceBurst(p, deadline)
			}
			counts[i] = p.sent - before
		}(i, p)
	}
	wg.Wait()
	for _, c := range counts {
		r.offered += c
	}
	return errors.Join(errs...)
}

// produceInProcess is hub-burst's closed loop: one goroutine submits runs
// of burstRun events per home, round-robin; under the Block policy it
// waits on full queues.
func (r *runner) produceInProcess(deadline int64) error {
	host := r.stk.host
	traced := r.rec.on.Load()
	for nanos() < deadline {
		for _, h := range r.homes {
			due := nanos()
			for k := 0; k < burstRun; k++ {
				seq := h.next
				h.next++
				h.due.put(seq, due)
				if err := host.Submit(h.name, h.stream.event(seq)); err != nil {
					r.submitErrs.Add(1)
					h.skip(seq)
				}
				if traced && seq%spanSample == 0 {
					r.rec.span(span{Name: "producer.send", Home: h.name, Seq: seq, Start: due, End: nanos()})
				}
			}
			r.offered += burstRun
		}
	}
	return nil
}

// produceInProcessPaced is hub-burst's open loop: events fall due on a
// fixed wall-clock schedule, one home after another; each pass submits
// every event now due and sleeps.
func (r *runner) produceInProcessPaced(deadline int64) error {
	host := r.stk.host
	interval := int64(float64(time.Second) / r.sp.rate)
	start := nanos()
	var i int64
	for {
		now := nanos()
		if now >= deadline {
			return nil
		}
		for n := (now-start)/interval + 1; i < n; i++ {
			h := r.homes[i%int64(len(r.homes))]
			seq := h.next
			h.next++
			due := start + i*interval
			h.due.put(seq, due)
			r.late = append(r.late, nanos()-due)
			if err := host.Submit(h.name, h.stream.event(seq)); err != nil {
				r.submitErrs.Add(1)
				h.skip(seq)
			}
			r.offered++
		}
		if wait := max(start+i*interval, now+int64(pacedTick)) - nanos(); wait > 0 {
			time.Sleep(time.Duration(wait))
		}
	}
}

func wireEvent(h *home, seq uint64) wire.Event {
	e := h.stream.event(seq)
	return wire.Event{Seq: seq, Time: e.Time, Device: e.Device, Value: e.Value}
}

// send hands one event to the session, absorbing its typed backpressure: a
// full retransmit window flushes and yields until acks free a slot.
func (p *producer) send(ev wire.Event) error {
	for full := false; ; full = true {
		err := p.sc.Send(ev)
		if err == nil {
			p.sent++
			if full {
				p.windowFull++
			}
			return nil
		}
		if !errors.Is(err, wire.ErrSendWindowFull) {
			return err
		}
		if err := p.sc.Flush(); err != nil {
			return err
		}
		runtime.Gosched()
	}
}

// produceBurst streams unthrottled.
func (r *runner) produceBurst(p *producer, deadline int64) error {
	h := p.home
	traced := r.rec.on.Load()
	for nanos() < deadline {
		for k := 0; k < burstRun; k++ {
			seq := h.next
			h.next++
			t0 := nanos()
			h.due.put(seq, t0)
			if err := p.send(wireEvent(h, seq)); err != nil {
				return err
			}
			if traced {
				t1 := nanos()
				p.sendNs += t1 - t0
				p.sendEvents++
				if seq%spanSample == 0 {
					r.rec.span(span{Name: "producer.send", Home: h.name, Seq: seq, Start: t0, End: t1})
				}
			}
		}
	}
	t0 := nanos()
	err := p.sc.Flush()
	if traced {
		p.sendNs += nanos() - t0
	}
	return err
}

// producePaced is the wire producers' open loop: events fall due on a
// fixed wall-clock schedule; each pass sends every event now due, flushes,
// and sleeps at least pacedTick. Lateness is recorded per event.
func (r *runner) producePaced(p *producer, deadline int64) error {
	h := p.home
	traced := r.rec.on.Load()
	// Send time is a per-layer figure of the workload's own rounds: the
	// paced ones only on wire-paced.
	timeSends := traced && r.sp.paced
	interval := int64(float64(time.Second) * float64(len(r.stk.prods)) / r.sp.rate)
	start := nanos()
	var i int64
	for {
		now := nanos()
		if now >= deadline {
			break
		}
		for n := (now-start)/interval + 1; i < n; i++ {
			seq := h.next
			h.next++
			due := start + i*interval
			h.due.put(seq, due)
			t0 := nanos()
			p.late = append(p.late, t0-due)
			if err := p.send(wireEvent(h, seq)); err != nil {
				return err
			}
			if traced {
				t1 := nanos()
				if timeSends {
					p.sendNs += t1 - t0
					p.sendEvents++
				}
				if seq%spanSample == 0 {
					r.rec.span(span{Name: "producer.send", Home: h.name, Seq: seq, Start: due, End: t1})
				}
			}
		}
		t0 := nanos()
		if err := p.sc.Flush(); err != nil {
			return err
		}
		if timeSends {
			p.sendNs += nanos() - t0
		}
		next := max(start+i*interval, now+int64(pacedTick))
		if wait := next - nanos(); wait > 0 {
			time.Sleep(time.Duration(wait))
		}
	}
	return p.sc.Flush()
}

// startSampler samples the host's queue depth (and, on the cluster, the
// shard links' health) on a fixed tick, for the paced rounds' validity
// check and the per-layer figures.
func (r *runner) startSampler() (stop func()) {
	quit := make(chan struct{})
	done := make(chan struct{})
	if r.stk.fleet != nil {
		r.retxStart = r.retransmits()
	}
	go func() {
		defer close(done)
		tick := time.NewTicker(sampleEvery)
		defer tick.Stop()
		for {
			select {
			case <-quit:
				return
			case <-tick.C:
			}
			d := r.stk.host.Stats().Total.QueueDepth
			pend := 0
			if r.stk.fleet != nil {
				for _, sh := range r.stk.fleet.FleetStats().Shards {
					if sh.Health.PendingEvents > pend {
						pend = sh.Health.PendingEvents
					}
				}
			}
			r.sampleMu.Lock()
			r.curDepth = append(r.curDepth, d)
			if pend > r.pendMax {
				r.pendMax = pend
			}
			r.sampleMu.Unlock()
		}
	}()
	return func() {
		close(quit)
		<-done
		if r.stk.fleet != nil {
			r.retxEnd = r.retransmits()
		}
	}
}

func (r *runner) retransmits() uint64 {
	var n uint64
	for _, sh := range r.stk.fleet.FleetStats().Shards {
		n += sh.Health.Retransmits
	}
	return n
}

// startMigrator bounces home-0 between the two cluster workers every
// migrateEvery for the whole measured interval, timing each handoff.
func (r *runner) startMigrator() (stop func()) {
	f := r.stk.fleet
	if f == nil {
		return func() {}
	}
	quit := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		tick := time.NewTicker(migrateEvery)
		defer tick.Stop()
		for {
			select {
			case <-quit:
				return
			case <-tick.C:
			}
			ids := f.Shards()
			cur, err := f.ShardOf(r.homes[0].name)
			if err != nil || len(ids) < 2 {
				r.migFailed++
				continue
			}
			to := ids[0]
			if to == cur {
				to = ids[1]
			}
			t0 := nanos()
			if err := f.Migrate(r.homes[0].name, to); err != nil {
				r.migFailed++
				continue
			}
			r.migWall = append(r.migWall, nanos()-t0)
			r.migDone++
		}
	}()
	return func() {
		close(quit)
		<-done
	}
}
