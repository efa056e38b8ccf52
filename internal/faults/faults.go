// Package faults is the deterministic chaos harness for the serving stack:
// seeded fault schedules that decide, per handled event, whether a tenant's
// processor succeeds, errors, panics, stalls, or wedges, plus processor
// wrappers that execute those schedules and a fake clock for driving the
// hub's quarantine backoff without real sleeps.
//
// Everything here is reproducible: the same seed, length, and weights yield
// the same schedule, so a chaos test that fails replays bit-for-bit.
package faults

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"github.com/causaliot/causaliot/internal/hub"
)

// Kind names one injected fault.
type Kind int

const (
	// OK injects nothing: the event passes through to the inner processor.
	OK Kind = iota
	// Error makes Handle return ErrInjected.
	Error
	// Panic makes Handle panic.
	Panic
	// Slow delays Handle by the processor's SlowDelay before succeeding.
	Slow
	// Wedge blocks Handle until the processor's Release channel closes
	// (forever when Release is nil) — the stuck-processor failure mode.
	Wedge
)

func (k Kind) String() string {
	switch k {
	case OK:
		return "ok"
	case Error:
		return "error"
	case Panic:
		return "panic"
	case Slow:
		return "slow"
	case Wedge:
		return "wedge"
	default:
		return fmt.Sprintf("kind(%d)", int(k))
	}
}

// ErrInjected marks a scheduled fault, distinguishable from organic
// processor errors with errors.Is.
var ErrInjected = errors.New("faults: injected failure")

// Weights are the per-event fault probabilities; the remainder is OK. The
// sum must not exceed 1.
type Weights struct {
	Error float64
	Panic float64
	Slow  float64
	Wedge float64
}

// Schedule is a deterministic fault plan: At(i) names the fault injected
// into the i-th handled event. Identical (seed, length, weights) yield an
// identical schedule.
type Schedule struct {
	kinds []Kind
}

// NewSchedule draws a fault plan of the given length from the seed.
func NewSchedule(seed int64, length int, w Weights) (*Schedule, error) {
	if length < 0 {
		return nil, fmt.Errorf("faults: negative schedule length %d", length)
	}
	if w.Error < 0 || w.Panic < 0 || w.Slow < 0 || w.Wedge < 0 {
		return nil, errors.New("faults: negative fault weight")
	}
	if sum := w.Error + w.Panic + w.Slow + w.Wedge; sum > 1 {
		return nil, fmt.Errorf("faults: fault weights sum to %v > 1", sum)
	}
	rng := rand.New(rand.NewSource(seed))
	kinds := make([]Kind, length)
	for i := range kinds {
		r := rng.Float64()
		switch {
		case r < w.Error:
			kinds[i] = Error
		case r < w.Error+w.Panic:
			kinds[i] = Panic
		case r < w.Error+w.Panic+w.Slow:
			kinds[i] = Slow
		case r < w.Error+w.Panic+w.Slow+w.Wedge:
			kinds[i] = Wedge
		default:
			kinds[i] = OK
		}
	}
	return &Schedule{kinds: kinds}, nil
}

// Len returns the schedule length.
func (s *Schedule) Len() int { return len(s.kinds) }

// At returns the fault scheduled for the i-th event; indices beyond the
// schedule are OK, so a finite schedule fronts an infinite stream.
func (s *Schedule) At(i int) Kind {
	if i < 0 || i >= len(s.kinds) {
		return OK
	}
	return s.kinds[i]
}

// Count returns how many events of the schedule carry the given fault.
func (s *Schedule) Count(k Kind) int {
	n := 0
	for _, kind := range s.kinds {
		if kind == k {
			n++
		}
	}
	return n
}

// Proc executes a fault schedule in front of an inner processor: the i-th
// Handle call suffers Schedule.At(i). The hub serializes Handle per tenant,
// but Calls is atomic so tests can observe progress concurrently.
type Proc struct {
	// Inner handles events whose fault is OK or Slow (after the delay);
	// nil succeeds without side effects.
	Inner hub.Processor
	// Schedule is the fault plan; nil injects nothing.
	Schedule *Schedule
	// SlowDelay is the Slow fault's stall; defaults to 1ms.
	SlowDelay time.Duration
	// Release unblocks Wedge faults when closed; nil wedges forever.
	Release <-chan struct{}

	calls atomic.Int64
}

// Calls reports how many events the processor has been handed so far.
func (p *Proc) Calls() int { return int(p.calls.Load()) }

func (p *Proc) Handle(ev hub.Event) (bool, error) {
	i := int(p.calls.Add(1)) - 1
	kind := OK
	if p.Schedule != nil {
		kind = p.Schedule.At(i)
	}
	switch kind {
	case Error:
		return false, fmt.Errorf("%w at event %d", ErrInjected, i)
	case Panic:
		panic(fmt.Sprintf("faults: injected panic at event %d", i))
	case Slow:
		d := p.SlowDelay
		if d <= 0 {
			d = time.Millisecond
		}
		time.Sleep(d)
	case Wedge:
		if p.Release == nil {
			select {} // wedged forever
		}
		<-p.Release
	}
	if p.Inner != nil {
		return p.Inner.Handle(ev)
	}
	return false, nil
}

// FailFirst errors on the first N events and succeeds afterwards — the
// shape that trips quarantine and then proves readmission probes work.
type FailFirst struct {
	N     int
	calls atomic.Int64
}

func (p *FailFirst) Handle(hub.Event) (bool, error) {
	if i := int(p.calls.Add(1)) - 1; i < p.N {
		return false, fmt.Errorf("%w at event %d", ErrInjected, i)
	}
	return false, nil
}

// Calls reports how many events the processor has been handed so far.
func (p *FailFirst) Calls() int { return int(p.calls.Load()) }

// Clock is a deterministic, manually advanced time source for the hub's
// quarantine backoff and sampled service times: chaos tests step it
// instead of sleeping.
type Clock struct {
	mu sync.Mutex
	t  time.Time
}

// NewClock starts a fake clock at the given instant.
func NewClock(start time.Time) *Clock { return &Clock{t: start} }

// Now returns the clock's current instant (hub.Config.Clock-compatible).
func (c *Clock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

// Advance moves the clock forward.
func (c *Clock) Advance(d time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.t = c.t.Add(d)
}
