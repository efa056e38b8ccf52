package wire

import (
	"errors"
	"fmt"
	"math/rand"
	"net"
	"strings"
	"testing"
	"time"
)

// seqVocab is a Decide vocabulary over bare sequence numbers. Its backend
// refuses the listed sequences; Nacks and Acks encode as text so a frame's
// answer reads "nack 7 ack 8".
type seqVocab struct {
	refuse   map[uint64]bool
	admitted []uint64
}

func (v *seqVocab) Seq(s *uint64) uint64 { return *s }

func (v *seqVocab) Submit(items []uint64) (int, error) {
	for i, s := range items {
		if v.refuse[s] {
			return i, errors.New("refused")
		}
		v.admitted = append(v.admitted, s)
	}
	return len(items), nil
}

func (v *seqVocab) AppendNack(dst []byte, s *uint64, _ error) []byte {
	return fmt.Appendf(dst, "nack %d ", *s)
}

func (v *seqVocab) AppendAck(dst []byte, wm uint64) []byte {
	return fmt.Appendf(dst, "ack %d ", wm)
}

// TestStreamDecide runs frames in order through one Receiver with an ack
// every 4 items: the duplicate prefix, a non-increasing frame, a refusal
// mid-frame, and an all-duplicate frame that still earns its Ack (rule:
// a duplicate is decided too).
func TestStreamDecide(t *testing.T) {
	e := &Endpoint{AckEvery: 4}
	var r Receiver
	v := &seqVocab{refuse: map[uint64]bool{7: true}}
	for _, tc := range []struct {
		name     string
		frame    []uint64
		want     string
		err      error
		admitted string
	}{
		{"fresh, below the cadence", []uint64{1, 2, 3}, "", nil, "[1 2 3]"},
		{"duplicate prefix", []uint64{2, 3, 4, 5}, "ack 5", nil, "[4 5]"},
		{"non-increasing", []uint64{4, 5, 6, 5}, "", ErrSeqOrder, "[]"},
		{"refusal mid-frame", []uint64{6, 7, 8}, "nack 7", nil, "[6 8]"},
		{"all duplicates", []uint64{7, 8}, "ack 8", nil, "[]"},
	} {
		v.admitted = nil
		out, err := Decide(e, &r, v, tc.frame, nil)
		if !errors.Is(err, tc.err) {
			t.Fatalf("%s: error %v, want %v", tc.name, err, tc.err)
		}
		if got := strings.TrimSpace(string(out)); got != tc.want {
			t.Errorf("%s: answered %q, want %q", tc.name, got, tc.want)
		}
		if got := fmt.Sprint(v.admitted); got != tc.admitted {
			t.Errorf("%s: admitted %s, want %s", tc.name, got, tc.admitted)
		}
	}
	if wm, _ := r.Ack(); wm != 8 {
		t.Errorf("watermark %d, want 8", wm)
	}
	if ev, nk, dup := e.Events.Load(), e.Nacks.Load(), e.Duplicates.Load(); ev != 7 || nk != 1 || dup != 4 {
		t.Errorf("events %d nacks %d duplicates %d, want 7 1 4 (a refused frame counts nothing)", ev, nk, dup)
	}
}

// alarmPipe is a Writer whose frames the test reads back as session-alarm
// indices.
type alarmPipe struct {
	w *Writer
	r *Reader
}

func newAlarmPipe(t *testing.T) alarmPipe {
	a, b := net.Pipe()
	w := NewWriter(a, 64, 0, 0, nil)
	t.Cleanup(func() {
		w.Finish()
		b.Close()
	})
	b.SetReadDeadline(time.Now().Add(5 * time.Second))
	return alarmPipe{w: w, r: NewReader(b, 0)}
}

func (p alarmPipe) read(t *testing.T, n int) []uint64 {
	t.Helper()
	var got []uint64
	for range n {
		ft, payload := nextFrame(t, p.r)
		idx, _, err := ParseSessionAlarm(payload)
		if ft != FrameSessionAlarm || err != nil {
			t.Fatalf("%s frame: %v", ft, err)
		}
		got = append(got, idx)
	}
	return got
}

// TestStreamAlarmBank steps one bank of three entries through overflow,
// attach and replay, a cumulative receipt, a stale detach, and a live push.
func TestStreamAlarmBank(t *testing.T) {
	e := &Endpoint{AlarmRing: 3}
	var r Receiver
	w1, w2 := newAlarmPipe(t), newAlarmPipe(t)
	push := func(n int) {
		for range n {
			r.Push(e, Alarm{Score: 1}, AppendSessionAlarm)
		}
	}
	for _, step := range []struct {
		name string
		do   func()
		from alarmPipe
		want []uint64 // alarm indices the step delivers to from
	}{
		{"overflow evicts the oldest", func() { push(5) }, w1, nil},
		{"attach replays in order", func() { r.Attach(e, w1.w, 0) }, w1, []uint64{3, 4, 5}},
		{"live push evicts the oldest unconfirmed", func() { push(1) }, w1, []uint64{6}},
		{"receipt prunes, re-attach replays the rest", func() {
			r.Confirm(5)
			r.Attach(e, w2.w, 0)
		}, w2, []uint64{6}},
		{"stale detach keeps the newer writer", func() {
			if r.Detach(w1.w) {
				t.Error("detached a writer that was not attached")
			}
			push(1)
		}, w2, []uint64{7}},
		{"detach banks", func() {
			if !r.Detach(w2.w) {
				t.Error("attached writer not detached")
			}
			push(1)
		}, w2, nil},
		{"attach past the receipt", func() { r.Attach(e, w1.w, 7) }, w1, []uint64{8}},
		{"a receipt beyond the last index prunes nothing", func() { r.Attach(e, w2.w, 99) }, w2, []uint64{8}},
	} {
		step.do()
		if got := step.from.read(t, len(step.want)); fmt.Sprint(got) != fmt.Sprint(step.want) {
			t.Errorf("%s: read %v, want %v", step.name, got, step.want)
		}
	}
	if _, idx := r.Ack(); idx != 8 {
		t.Errorf("alarm index %d, want 8", idx)
	}
	if a, buf, rep, drop := e.Alarms.Load(), e.AlarmsBuffered.Load(), e.AlarmReplays.Load(), e.AlarmsDropped.Load(); a != 2 || buf != 6 || rep != 6 || drop != 3 {
		t.Errorf("alarms %d buffered %d replays %d dropped %d, want 2 6 6 3", a, buf, rep, drop)
	}
}

// TestStreamAlarmBankQueueFull: an alarm refused by a full writer queue
// waits in the bank until the queue has room, then the drain sends it
// ahead of any later alarm, so the peer's index dedup never sees a later
// index first.
func TestStreamAlarmBankQueueFull(t *testing.T) {
	e := &Endpoint{AlarmRing: 8}
	var r Receiver
	w, rd := pluggedWriter(t, 1, 0)
	r.Attach(e, w, 0)
	if r.Push(e, Alarm{}, AppendSessionAlarm) {
		t.Fatal("first push refused with room in the queue")
	}
	if !r.Push(e, Alarm{}, AppendSessionAlarm) {
		t.Fatal("second push not refused by the full queue")
	}
	if ft, _ := nextFrame(t, rd); ft != FramePing {
		t.Fatalf("plug: %s", ft)
	}
	// The writer takes the first alarm and blocks writing it; the drain
	// queues the second behind it, so the third push is refused too.
	drained := func() bool {
		r.alarmMu.Lock()
		defer r.alarmMu.Unlock()
		return !r.draining
	}
	waitFor(t, "the drain to queue the second alarm", drained)
	if !r.Push(e, Alarm{}, AppendSessionAlarm) {
		t.Fatal("third push not refused by the queue the drain filled")
	}
	if got := fmt.Sprint(alarmPipe{r: rd}.read(t, 3)); got != "[1 2 3]" {
		t.Fatalf("read %s, want [1 2 3]", got)
	}
	waitFor(t, "the drain of the third alarm", drained)
	if a, buf, rep := e.Alarms.Load(), e.AlarmsBuffered.Load(), e.AlarmReplays.Load(); a != 1 || buf != 2 || rep != 2 {
		t.Errorf("alarms %d buffered %d replays %d, want 1 2 2", a, buf, rep)
	}
}

// TestStreamAlarmBurstDrains: a burst that ends on a full writer queue is
// delivered whole, in index order, with no later push or attach to carry
// its tail.
func TestStreamAlarmBurstDrains(t *testing.T) {
	e := &Endpoint{AlarmRing: 64}
	var r Receiver
	a, b := net.Pipe()
	w := NewWriter(a, 1, 0, 0, nil)
	t.Cleanup(func() {
		w.Finish()
		b.Close()
	})
	b.SetReadDeadline(time.Now().Add(5 * time.Second))
	rd := NewReader(b, 0)
	w.Send(AppendPing(nil)) // the plug: the writer blocks on it until read
	waitWriter(t, "writer to take the plug", w, func() bool { return w.frames == 0 })
	r.Attach(e, w, 0)
	const burst = 20
	for range burst {
		r.Push(e, Alarm{}, AppendSessionAlarm)
	}
	if ft, _ := nextFrame(t, rd); ft != FramePing {
		t.Fatalf("plug: %s", ft)
	}
	got := alarmPipe{r: rd}.read(t, burst)
	for i, idx := range got {
		if idx != uint64(i+1) {
			t.Fatalf("read %v, want 1..%d in order", got, burst)
		}
	}
}

// TestStreamAttachWaitsUnlocked: a replay that finds the writer's queue
// full waits for space with the bank unlocked, so a push from the stream
// thread returns at once, and the alarms still reach the peer in index
// order.
func TestStreamAttachWaitsUnlocked(t *testing.T) {
	e := &Endpoint{AlarmRing: 8}
	var r Receiver
	r.Push(e, Alarm{}, AppendSessionAlarm)
	w, rd := pluggedWriter(t, 1, 0)
	w.Send(AppendPing(nil)) // fills the one-frame queue behind the plug
	attached := make(chan struct{})
	go func() {
		r.Attach(e, w, 0)
		close(attached)
	}()
	pushed := make(chan bool, 1)
	go func() {
		for !r.Attached(w) {
			time.Sleep(time.Millisecond)
		}
		pushed <- r.Push(e, Alarm{}, AppendSessionAlarm)
	}()
	select {
	case full := <-pushed:
		if !full {
			t.Error("push found room in a full queue")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("push blocked behind the replay")
	}
	for range 2 {
		if ft, _ := nextFrame(t, rd); ft != FramePing {
			t.Fatalf("plug: %s", ft)
		}
	}
	if got := fmt.Sprint(alarmPipe{r: rd}.read(t, 2)); got != "[1 2]" {
		t.Fatalf("read %s, want [1 2]", got)
	}
	<-attached
}

// TestStreamWindow steps a three-event window through a full refusal, an
// order refusal, and pruning by an Ack, a Nack and a resume watermark.
func TestStreamWindow(t *testing.T) {
	w := NewWindow(3)
	add := func(seqs ...uint64) error {
		for _, s := range seqs {
			if err := w.Add(BatchEvent{Link: s}); err != nil {
				return err
			}
		}
		return nil
	}
	pending := func() string {
		var seqs []uint64
		for _, be := range w.Items() {
			seqs = append(seqs, be.Link)
		}
		return fmt.Sprint(seqs)
	}
	for _, step := range []struct {
		name string
		do   func() error
		err  error
		want string
	}{
		{"fill", func() error { return add(1, 2, 3) }, nil, "[1 2 3]"},
		{"full window refused", func() error { return add(4) }, ErrSendWindowFull, "[1 2 3]"},
		{"order refused", func() error { return add(3) }, ErrSeqOrder, "[1 2 3]"},
		{"ack prunes", func() error { w.Confirm(1); return nil }, nil, "[2 3]"},
		{"stale ack ignored", func() error {
			if w.Confirm(1) {
				return errors.New("stale ack advanced the window")
			}
			return nil
		}, nil, "[2 3]"},
		{"nack prunes through the refused event", func() error { w.Confirm(2); return nil }, nil, "[3]"},
		{"resume watermark past the window", func() error { w.Confirm(5); return nil }, nil, "[]"},
		{"sends continue above the watermark", func() error { return add(6) }, nil, "[6]"},
		{"below the watermark refused", func() error { return add(4) }, ErrSeqOrder, "[6]"},
	} {
		if err := step.do(); !errors.Is(err, step.err) {
			t.Fatalf("%s: error %v, want %v", step.name, err, step.err)
		}
		if got := pending(); got != step.want {
			t.Errorf("%s: window %s, want %s", step.name, got, step.want)
		}
	}
	if w.Acked() != 5 || w.Last() != 6 {
		t.Errorf("acked %d last %d, want 5 6", w.Acked(), w.Last())
	}
}

// TestStreamBackoff checks each delay against its doubling base, the cap,
// and that the jitter is a function of the seed alone.
func TestStreamBackoff(t *testing.T) {
	for _, tc := range []struct {
		name     string
		min, max time.Duration
		seed     int64
	}{
		{"defaults", 0, 0, 0},
		{"short cap", 10 * time.Millisecond, 35 * time.Millisecond, 7},
		{"wide", time.Millisecond, time.Second, 42},
	} {
		lo, hi := tc.min, tc.max
		if lo == 0 {
			lo, hi = 50*time.Millisecond, 5*time.Second
		}
		b, again, other := NewBackoff(tc.min, tc.max, tc.seed), NewBackoff(tc.min, tc.max, tc.seed), NewBackoff(tc.min, tc.max, tc.seed+2)
		same, differs := true, false
		for n := range 12 {
			base := min(lo<<n, hi)
			d := b.Delay(n)
			if d < base || d > base+base/2 {
				t.Errorf("%s: attempt %d waits %v, want [%v, %v]", tc.name, n, d, base, base+base/2)
			}
			same = same && again.Delay(n) == d
			differs = differs || other.Delay(n) != d
		}
		if !same {
			t.Errorf("%s: the same seed drew different jitter", tc.name)
		}
		if !differs {
			t.Errorf("%s: seeds %d and %d drew the same jitter", tc.name, tc.seed, tc.seed+2)
		}
	}
}

// TestStreamWindowChurn drives a window through seeded rounds of adds and
// partial confirms against a plain slice: Items stays oldest-first and
// equal to the reference, the backing array stays within one growth past
// five fourths of the limit, and a steady full window confirms and refills
// without allocating.
func TestStreamWindowChurn(t *testing.T) {
	const limit = 64
	w := NewWindow(limit)
	rng := rand.New(rand.NewSource(5))
	var ref []uint64
	var next uint64
	// The array grows only when more than four fifths of it are live, so
	// from at most five fourths of the limit.
	maxCap := cap(append(make([]BatchEvent, limit*5/4), BatchEvent{}))
	for round := range 2000 {
		for n := rng.Intn(limit); n > 0 && !w.Full(); n-- {
			next++
			if err := w.Add(BatchEvent{Link: next}); err != nil {
				t.Fatalf("round %d: add %d: %v", round, next, err)
			}
			ref = append(ref, next)
		}
		if len(ref) > 0 {
			k := rng.Intn(len(ref) + 1)
			if k > 0 {
				w.Confirm(ref[k-1])
				ref = ref[k:]
			}
		}
		items := w.Items()
		if len(items) != len(ref) {
			t.Fatalf("round %d: %d items, want %d", round, len(items), len(ref))
		}
		for i, be := range items {
			if be.Link != ref[i] {
				t.Fatalf("round %d: item %d is %d, want %d", round, i, be.Link, ref[i])
			}
		}
		if c := cap(w.items.buf); c > maxCap {
			t.Fatalf("round %d: backing array of %d for a window of %d, want at most %d", round, c, limit, maxCap)
		}
	}
	w = fillWindow(limit)
	if allocs := testing.AllocsPerRun(100, func() { confirmAndRefill(&w, 8) }); allocs != 0 {
		t.Errorf("steady confirm and refill: %v allocs, want 0", allocs)
	}
}

// fillWindow returns a full window of limit events.
func fillWindow(limit int) Window {
	w := NewWindow(limit)
	for !w.Full() {
		w.Add(BatchEvent{Link: w.Last() + 1, Ev: Event{Seq: w.Last() + 1, Device: "light"}})
	}
	return w
}

// confirmAndRefill confirms the k oldest events of a full window and adds
// k new ones: one ack's worth of a producer running at the window limit.
func confirmAndRefill(w *Window, k int) {
	w.Confirm(w.Items()[k-1].Link)
	for range k {
		w.Add(BatchEvent{Link: w.Last() + 1, Ev: Event{Seq: w.Last() + 1, Device: "light"}})
	}
}

// BenchmarkWindowConfirm is a cluster proxy's full 4096-event window
// confirmed 64 events at a time and refilled: one op is one ack.
func BenchmarkWindowConfirm(b *testing.B) {
	w := fillWindow(4096)
	b.ReportAllocs()
	b.ResetTimer()
	for range b.N {
		confirmAndRefill(&w, 64)
	}
}
