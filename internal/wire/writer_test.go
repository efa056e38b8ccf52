package wire

import (
	"fmt"
	"net"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// pluggedWriter returns a Writer over one end of a synchronous pipe whose
// goroutine is parked inside the socket write of a Ping frame, so frames
// sent next accumulate in the pending buffer until the test reads the
// other end. The returned reader yields the Ping first.
func pluggedWriter(t *testing.T, maxFrames, peerMax int) (*Writer, *Reader) {
	t.Helper()
	a, b := net.Pipe()
	w := NewWriter(a, maxFrames, peerMax, 0, nil)
	t.Cleanup(func() {
		w.Finish()
		b.Close()
	})
	w.Send(AppendPing(nil))
	waitWriter(t, "writer to take the plug", w, func() bool { return w.frames == 0 })
	return w, NewReader(b, 0)
}

// waitWriter polls cond under the writer's mutex.
func waitWriter(t *testing.T, what string, w *Writer, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		w.mu.Lock()
		ok := cond()
		w.mu.Unlock()
		if ok {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("timeout waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// returned runs f in a goroutine and reports its completion on the channel.
func returned(f func()) chan struct{} {
	done := make(chan struct{})
	go func() {
		f()
		close(done)
	}()
	return done
}

func assertBlocked(t *testing.T, what string, done chan struct{}) {
	t.Helper()
	select {
	case <-done:
		t.Fatalf("%s returned; want it blocked", what)
	case <-time.After(50 * time.Millisecond):
	}
}

func assertReturns(t *testing.T, what string, done chan struct{}) {
	t.Helper()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatalf("%s still blocked", what)
	}
}

func nextFrame(t *testing.T, r *Reader) (FrameType, []byte) {
	t.Helper()
	ft, p, err := r.Next()
	if err != nil {
		t.Fatalf("Next: %v", err)
	}
	return ft, p
}

func batchEvent(link uint64, device string) BatchEvent {
	return BatchEvent{Link: link, Ev: Event{Seq: link * 10, Time: time.Unix(0, int64(link)).UTC(), Device: device, Value: float64(link)}}
}

// readBatches reads SubmitBatch frames for tenant until want events have
// arrived, checking each event against batchEvent, and returns the frame
// sizes. maxBytes, when positive, bounds each frame's length field.
func readBatches(t *testing.T, r *Reader, tenant string, want, maxBytes int) []int {
	t.Helper()
	var sizes []int
	for next := uint64(1); next <= uint64(want); {
		ft, p := nextFrame(t, r)
		if ft != FrameSubmitBatch {
			t.Fatalf("after %d of %d %s events: %s frame", next-1, want, tenant, ft)
		}
		if maxBytes > 0 && len(p)+1 > maxBytes {
			t.Fatalf("%d-byte frame exceeds the peer's %d", len(p)+1, maxBytes)
		}
		name, evs, err := new(Names).ParseSubmitBatch(p, nil)
		if err != nil || name != tenant {
			t.Fatalf("batch = %q, %v; want tenant %q", name, err, tenant)
		}
		for _, be := range evs {
			if be != batchEvent(next, be.Ev.Device) {
				t.Fatalf("%s event %+v, want link %d", tenant, be, next)
			}
			next++
		}
		sizes = append(sizes, len(evs))
	}
	return sizes
}

func TestWireWriterMergesInSendOrder(t *testing.T) {
	const n, batch = 19, 8
	w, r := pluggedWriter(t, 64, DefaultMaxFrame)
	for i := uint64(1); i <= n; i++ {
		if err := sendEvent(w, "A", batchEvent(i, "light"), batch); err != nil {
			t.Fatal(err)
		}
	}
	quiesce, _ := AppendTenantFrame(nil, FrameQuiesce, "A")
	w.Send(quiesce)
	for i := uint64(1); i <= 3; i++ {
		if err := sendEvent(w, "B", batchEvent(i, "door"), batch); err != nil {
			t.Fatal(err)
		}
	}
	if ft, _ := nextFrame(t, r); ft != FramePing {
		t.Fatalf("first frame %s, want the plug", ft)
	}
	if sizes := readBatches(t, r, "A", n, 0); fmt.Sprint(sizes) != "[8 8 3]" {
		t.Fatalf("A batch sizes = %v, want [8 8 3]", sizes)
	}
	if ft, p := nextFrame(t, r); ft != FrameQuiesce || string(p[2:]) != "A" {
		t.Fatalf("after A's events: %s %q, want quiesce A", ft, p)
	}
	if sizes := readBatches(t, r, "B", 3, 0); fmt.Sprint(sizes) != "[3]" {
		t.Fatalf("B batch sizes = %v, want [3]", sizes)
	}
}

func TestWireWriterBatchLimits(t *testing.T) {
	// 40-byte names: a 6-byte batch head (type, tenant "T", count) plus 74
	// bytes per event fits two events under 200 bytes, not three.
	dev := strings.Repeat("d", 40)
	for _, tc := range []struct {
		peerMax, batch int
		want           string
	}{
		{200, 8, "[2 2 2 1]"},
		{DefaultMaxFrame, 3, "[3 3 1]"},
	} {
		w, r := pluggedWriter(t, 64, tc.peerMax)
		for i := uint64(1); i <= 7; i++ {
			if err := sendEvent(w, "T", batchEvent(i, dev), tc.batch); err != nil {
				t.Fatal(err)
			}
		}
		nextFrame(t, r)
		sizes := readBatches(t, r, "T", 7, tc.peerMax)
		if fmt.Sprint(sizes) != tc.want {
			t.Fatalf("peerMax %d batch %d: sizes %v, want %s", tc.peerMax, tc.batch, sizes, tc.want)
		}
	}
}

func TestWireWriterCapCountsFrames(t *testing.T) {
	w, r := pluggedWriter(t, 3, DefaultMaxFrame)
	w.Send(AppendPong(nil))
	w.Send(AppendPong(nil))
	if err := sendEvent(w, "A", batchEvent(1, "light"), 8); err != nil {
		t.Fatal(err)
	}
	// At the cap: merging into the open batch adds no frame, so it still
	// goes through; a new frame is refused or blocks.
	assertReturns(t, "merging SendEvents", returned(func() { sendEvent(w, "A", batchEvent(2, "light"), 8) }))
	if w.TrySend(AppendPong(nil)) {
		t.Fatal("TrySend accepted a frame at the cap")
	}
	send := returned(func() { w.Send(AppendPong(nil)) })
	assertBlocked(t, "Send at the cap", send)
	event := returned(func() { sendEvent(w, "B", batchEvent(1, "light"), 8) })
	assertBlocked(t, "SendEvents opening a batch at the cap", event)
	var got []FrameType
	for i := 0; i < 6; i++ {
		ft, _ := nextFrame(t, r)
		got = append(got, ft)
	}
	// The blocked Send and SendEvents race for the room the read frees.
	want := fmt.Sprint([]FrameType{FramePing, FramePong, FramePong, FrameSubmitBatch})
	if fmt.Sprint(got[:4]) != want || got[4] == got[5] || got[4]+got[5] != FramePong+FrameSubmitBatch {
		t.Fatalf("frames = %v, want %s then a pong and a submit-batch", got, want)
	}
	assertReturns(t, "Send after the peer read", send)
	assertReturns(t, "SendEvents after the peer read", event)
}

func TestWireWriterSendWaitReachesSocket(t *testing.T) {
	a, b := net.Pipe()
	defer b.Close()
	w := NewWriter(a, 8, 0, 0, nil)
	defer w.Finish()
	wait := returned(func() { w.SendWait(AppendPong(nil), time.Minute) })
	// A pipe write returns only once the peer has read every byte.
	assertBlocked(t, "SendWait before the peer read", wait)
	if ft, _ := nextFrame(t, NewReader(b, 0)); ft != FramePong {
		t.Fatalf("frame %s, want pong", ft)
	}
	assertReturns(t, "SendWait after the peer read", wait)
}

func TestWireWriterFinishReleasesSenders(t *testing.T) {
	w, _ := pluggedWriter(t, 1, 0)
	w.Send(AppendPong(nil))
	send := returned(func() { w.Send(AppendPong(nil)) })
	event := returned(func() { sendEvent(w, "A", batchEvent(1, "light"), 8) })
	wait := returned(func() { w.SendWait(AppendPong(nil), time.Minute) })
	assertBlocked(t, "Send at the cap", send)
	w.Finish()
	assertReturns(t, "Send after Finish", send)
	assertReturns(t, "SendEvents after Finish", event)
	assertReturns(t, "SendWait after Finish", wait)
}

func TestWireWriterDiscardsAfterFailure(t *testing.T) {
	for _, stall := range []bool{false, true} {
		a, b := net.Pipe()
		var stalled atomic.Bool
		w := NewWriter(a, 2, 0, 20*time.Millisecond, func() { stalled.Store(true) })
		if !stall {
			b.Close() // the next write fails outright
		}
		w.Send(AppendPing(nil))
		waitWriter(t, "the write to fail", w, func() bool { return w.failed })
		if stall {
			waitWriter(t, "onStall", w, stalled.Load)
		} else if stalled.Load() {
			t.Fatal("onStall ran for a write that did not time out")
		}
		// Nothing may block or accumulate on a dead connection.
		for i := 0; i < 10; i++ {
			w.Send(AppendPong(nil))
			if !w.TrySend(AppendPong(nil)) {
				t.Fatal("TrySend refused on a failed writer")
			}
			if err := sendEvent(w, "A", batchEvent(uint64(i+1), "light"), 8); err != nil {
				t.Fatal(err)
			}
		}
		assertReturns(t, "SendWait on a failed writer", returned(func() { w.SendWait(AppendPong(nil), time.Minute) }))
		w.mu.Lock()
		pending := len(w.buf)
		w.mu.Unlock()
		if pending != 0 {
			t.Fatalf("failed writer holds %d pending bytes", pending)
		}
		w.Finish()
		b.Close()
	}
}

// sendEvent queues one event through SendEvents.
func sendEvent(w *Writer, tenant string, be BatchEvent, maxBatch int) error {
	_, err := w.SendEvents(tenant, []BatchEvent{be}, maxBatch)
	return err
}

func TestWireWriterSendEventsSplitsOneCall(t *testing.T) {
	w, r := pluggedWriter(t, 64, DefaultMaxFrame)
	bes := make([]BatchEvent, 19)
	for i := range bes {
		bes[i] = batchEvent(uint64(i+1), "light")
	}
	if n, err := w.SendEvents("A", bes, 8); n != len(bes) || err != nil {
		t.Fatalf("SendEvents = %d, %v", n, err)
	}
	nextFrame(t, r)
	if sizes := readBatches(t, r, "A", len(bes), 0); fmt.Sprint(sizes) != "[8 8 3]" {
		t.Fatalf("batch sizes = %v, want [8 8 3]", sizes)
	}
}
