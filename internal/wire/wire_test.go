package wire

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"math"
	"reflect"
	"strings"
	"testing"
	"time"
)

func readOne(t *testing.T, buf []byte, max int) (FrameType, []byte) {
	t.Helper()
	r := NewReader(bytes.NewReader(buf), max)
	ft, p, err := r.Next()
	if err != nil {
		t.Fatalf("Next: %v", err)
	}
	return ft, p
}

// TestHelloRoundTrip: a plain v1 Hello, which the server refuses, parses
// with the session flag false.
func TestHelloRoundTrip(t *testing.T) {
	frame, err := appendHello(nil, FrameHello, "secret", "home-3")
	if err != nil {
		t.Fatal(err)
	}
	ft, p := readOne(t, frame, 0)
	if ft != FrameHello {
		t.Fatalf("type = %v", ft)
	}
	ver, token, tenant, session, err := ParseHello(p)
	if err != nil {
		t.Fatal(err)
	}
	if ver != Version || token != "secret" || tenant != "home-3" || session {
		t.Fatalf("hello = %d %q %q session=%v", ver, token, tenant, session)
	}
}

// TestHelloSessionCompat: the session capability rides as a trailing byte a
// v1 parser would ignore, and ParseHello reports it without disturbing the
// v1 fields.
func TestHelloSessionCompat(t *testing.T) {
	frame, err := AppendHelloSession(nil, "secret", "home-3")
	if err != nil {
		t.Fatal(err)
	}
	ft, p := readOne(t, frame, 0)
	if ft != FrameHello {
		t.Fatalf("type = %v", ft)
	}
	ver, token, tenant, session, err := ParseHello(p)
	if err != nil {
		t.Fatal(err)
	}
	if ver != Version || token != "secret" || tenant != "home-3" || !session {
		t.Fatalf("session hello = %d %q %q session=%v", ver, token, tenant, session)
	}
}

func TestSessionFrameRoundTrips(t *testing.T) {
	frame, err := AppendResume(nil, "sess-1", 17)
	if err != nil {
		t.Fatal(err)
	}
	if ft, p := readOne(t, frame, 0); ft != FrameResume {
		t.Fatalf("type = %v", ft)
	} else if name, idx, err := ParseResume(p); err != nil || name != "sess-1" || idx != 17 {
		t.Fatalf("resume = %q %d %v", name, idx, err)
	}
	if _, _, err := ParseResume([]byte{0, 0, 0, 0, 0, 0, 0, 0, 0, 0}); !errors.Is(err, ErrBadFrame) {
		t.Fatalf("empty session name error = %v", err)
	}
	if ft, p := readOne(t, AppendResumeOK(nil, 500, 9), 0); ft != FrameResumeOK {
		t.Fatalf("type = %v", ft)
	} else if wm, idx, err := ParseResumeOK(p); err != nil || wm != 500 || idx != 9 {
		t.Fatalf("resume-ok = %d %d %v", wm, idx, err)
	}
	if ft, p := readOne(t, AppendAck(nil, 321), 0); ft != FrameAck {
		t.Fatalf("type = %v", ft)
	} else if seq, err := ParseAck(p); err != nil || seq != 321 {
		t.Fatalf("ack = %d %v", seq, err)
	}
	if ft, p := readOne(t, AppendAlarmAck(nil, 7), 0); ft != FrameAlarmAck {
		t.Fatalf("type = %v", ft)
	} else if idx, err := ParseAlarmAck(p); err != nil || idx != 7 {
		t.Fatalf("alarm-ack = %d %v", idx, err)
	}
	if ft, _ := readOne(t, AppendPing(nil), 0); ft != FramePing {
		t.Fatalf("ping type = %v", ft)
	}
	if ft, _ := readOne(t, AppendPong(nil), 0); ft != FramePong {
		t.Fatalf("pong type = %v", ft)
	}
}

// TestEventRetxRoundTrip: a retransmitted event parses identically to the
// original under the distinct frame type.
func TestEventRetxRoundTrip(t *testing.T) {
	want := Event{Seq: 88, Time: time.Unix(0, 5).UTC(), Device: "lamp", Value: 2}
	frame, err := AppendEventRetx(nil, want)
	if err != nil {
		t.Fatal(err)
	}
	ft, p := readOne(t, frame, 0)
	if ft != FrameEventRetx {
		t.Fatalf("type = %v", ft)
	}
	got, err := ParseEvent(p)
	if err != nil {
		t.Fatal(err)
	}
	if got.Seq != want.Seq || !got.Time.Equal(want.Time) || got.Device != want.Device || got.Value != want.Value {
		t.Fatalf("event = %+v, want %+v", got, want)
	}
}

func TestSessionAlarmRoundTrip(t *testing.T) {
	want := Alarm{Seq: 4, Score: 0.5, Events: []AlarmEvent{{Device: "d", State: 1, Score: 0.5}}}
	frame, err := AppendSessionAlarm(nil, 23, want)
	if err != nil {
		t.Fatal(err)
	}
	ft, p := readOne(t, frame, 0)
	if ft != FrameSessionAlarm {
		t.Fatalf("type = %v", ft)
	}
	idx, got, err := ParseSessionAlarm(p)
	if err != nil || idx != 23 {
		t.Fatalf("session alarm idx = %d, err %v", idx, err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("alarm = %+v, want %+v", got, want)
	}
}

func TestEventRoundTrip(t *testing.T) {
	want := Event{
		Seq:    1<<63 + 7,
		Time:   time.Date(2026, 8, 8, 12, 30, 0, 123456789, time.UTC),
		Device: "kitchen light",
		Value:  -3.75,
	}
	frame, err := AppendEvent(nil, want)
	if err != nil {
		t.Fatal(err)
	}
	ft, p := readOne(t, frame, 0)
	if ft != FrameEvent {
		t.Fatalf("type = %v", ft)
	}
	got, err := ParseEvent(p)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Time.Equal(want.Time) || got.Seq != want.Seq || got.Device != want.Device || got.Value != want.Value {
		t.Fatalf("event = %+v, want %+v", got, want)
	}
}

func TestNackRoundTrip(t *testing.T) {
	want := Nack{Seq: 42, Code: CodeBackpressure, Detail: "queue full"}
	frame, err := AppendNack(nil, want)
	if err != nil {
		t.Fatal(err)
	}
	ft, p := readOne(t, frame, 0)
	if ft != FrameNack {
		t.Fatalf("type = %v", ft)
	}
	got, err := ParseNack(p)
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("nack = %+v, want %+v", got, want)
	}
	if !strings.Contains(got.Error(), "backpressure") {
		t.Errorf("nack error = %q", got.Error())
	}
}

func TestAlarmRoundTrip(t *testing.T) {
	want := Alarm{
		Seq:    99,
		Score:  0.9921,
		Abrupt: true,
		Events: []AlarmEvent{
			{Device: "light", State: 1, Score: 0.99, Context: []ContextEntry{
				{Name: "presence@t-1", State: 0},
				{Name: "presence@t-2", State: 0},
			}},
			{Device: "heater", State: 1, Score: 0.7},
		},
	}
	frame, err := AppendSessionAlarm(nil, 12, want)
	if err != nil {
		t.Fatal(err)
	}
	ft, p := readOne(t, frame, 0)
	if ft != FrameSessionAlarm {
		t.Fatalf("type = %v", ft)
	}
	idx, got, err := ParseSessionAlarm(p)
	if err != nil {
		t.Fatal(err)
	}
	if idx != 12 || !reflect.DeepEqual(got, want) {
		t.Fatalf("alarm = %+v, want %+v", got, want)
	}
}

// goldenAlarm is a fixed multi-event alarm with several context entries,
// in the canonical name order.
var goldenAlarm = Alarm{
	Seq:    4242,
	Score:  0.98765,
	Abrupt: true,
	Events: []AlarmEvent{
		{Device: "light", State: 1, Score: 0.98765, Context: []ContextEntry{
			{Name: "door@t-1", State: 1},
			{Name: "light@t-1", State: 0},
			{Name: "presence@t-1", State: 0},
			{Name: "presence@t-2", State: 1},
		}},
		{Device: "heater", State: 1, Score: 0.61, Context: []ContextEntry{{Name: "light@t-1", State: 1}}},
		{Device: "fan", State: 0, Score: 0.42},
	},
}

// TestAlarmFrameGolden pins the encoded bytes of goldenAlarm in both alarm
// frames, as the protocol's first release encoded them: any change
// to the alarm's field layout or context order breaks v1 peers, and this
// test catches it. Each frame also decodes back to the same alarm.
func TestAlarmFrameGolden(t *testing.T) {
	const body = "00000000000010923fef9ad42c3c9eed01000300056c69676874000000013fef9ad42c3c9eed00040008646f6f7240742d310000000100096c6967687440742d3100000000000c70726573656e636540742d3100000000000c70726573656e636540742d32000000010006686561746572000000013fe3851eb851eb85000100096c6967687440742d3100000001000366616e000000003fdae147ae147ae10000"
	cases := []struct {
		name   string
		encode func() ([]byte, error)
		parse  func([]byte) (Alarm, error)
		want   string
	}{
		{"SessionAlarm", func() ([]byte, error) { return AppendSessionAlarm(nil, 7, goldenAlarm) },
			func(p []byte) (Alarm, error) { _, a, err := ParseSessionAlarm(p); return a, err },
			"000000aa0d0000000000000007" + body},
		{"AlarmStream", func() ([]byte, error) { return AppendAlarmStream(nil, "home-3", 11, goldenAlarm) },
			func(p []byte) (Alarm, error) { _, _, a, err := ParseAlarmStream(p); return a, err },
			"000000b22a0006686f6d652d33000000000000000b" + body},
	}
	for _, tc := range cases {
		frame, err := tc.encode()
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if got := hex.EncodeToString(frame); got != tc.want {
			t.Errorf("%s frame:\n got %s\nwant %s", tc.name, got, tc.want)
		}
		got, err := tc.parse(frame[headerLen+1:])
		if err != nil || !reflect.DeepEqual(got, goldenAlarm) {
			t.Errorf("%s: parsed %+v, %v", tc.name, got, err)
		}
	}
}

// TestAlarmDecoderRefusesImpossibleValues patches values the detector
// never produces into goldenAlarm's encoding, in both alarm frames: every
// decoder must refuse them with ErrBadFrame. The offsets are
// into the alarm body (see TestAlarmFrameGolden's hex): the alarm score at
// 8, then the first event's state at 26, its score at 30, and its first
// context entry's state at 50.
func TestAlarmDecoderRefusesImpossibleValues(t *testing.T) {
	const (
		alarmScore = 8
		eventState = 26
		eventScore = 30
		ctxState   = 50
	)
	score := func(v float64) []byte { return binary.BigEndian.AppendUint64(nil, math.Float64bits(v)) }
	state := func(v uint32) []byte { return binary.BigEndian.AppendUint32(nil, v) }
	patches := []struct {
		name string
		at   int
		was  []byte
		bad  []byte
	}{
		{"alarm score NaN", alarmScore, score(0.98765), score(math.NaN())},
		{"alarm score +Inf", alarmScore, score(0.98765), score(math.Inf(1))},
		{"alarm score -Inf", alarmScore, score(0.98765), score(math.Inf(-1))},
		{"alarm score below 0", alarmScore, score(0.98765), score(-0.25)},
		{"alarm score above 1", alarmScore, score(0.98765), score(math.Nextafter(1, 2))},
		{"event score NaN", eventScore, score(0.98765), score(math.NaN())},
		{"event score +Inf", eventScore, score(0.98765), score(math.Inf(1))},
		{"event score above 1", eventScore, score(0.98765), score(1.5)},
		{"event score below 0", eventScore, score(0.98765), score(-math.SmallestNonzeroFloat64)},
		{"event state 2", eventState, state(1), state(2)},
		{"event state -1", eventState, state(1), state(math.MaxUint32)},
		{"context state 2", ctxState, state(1), state(2)},
		{"context state -1", ctxState, state(1), state(math.MaxUint32)},
	}
	body := alarmBodyLen(goldenAlarm)
	decoders := []struct {
		name   string
		encode func() ([]byte, error)
		parse  func([]byte) error
	}{
		{"SessionAlarm", func() ([]byte, error) { return AppendSessionAlarm(nil, 7, goldenAlarm) },
			func(p []byte) error { _, _, err := ParseSessionAlarm(p); return err }},
		{"AlarmStream", func() ([]byte, error) { return AppendAlarmStream(nil, "home-3", 11, goldenAlarm) },
			func(p []byte) error { _, _, _, err := ParseAlarmStream(p); return err }},
	}
	for _, dec := range decoders {
		frame, err := dec.encode()
		if err != nil {
			t.Fatal(err)
		}
		payload := frame[headerLen+1:]
		off := len(payload) - body // the alarm body is every frame's suffix
		if err := dec.parse(payload); err != nil {
			t.Fatalf("%s: unpatched frame refused: %v", dec.name, err)
		}
		for _, pc := range patches {
			at := off + pc.at
			if !bytes.Equal(payload[at:at+len(pc.was)], pc.was) {
				t.Fatalf("%s/%s: bytes at %d are %x, want %x", dec.name, pc.name, pc.at, payload[at:at+len(pc.was)], pc.was)
			}
			bad := append([]byte(nil), payload...)
			copy(bad[at:], pc.bad)
			if err := dec.parse(bad); !errors.Is(err, ErrBadFrame) {
				t.Errorf("%s/%s: err = %v, want ErrBadFrame", dec.name, pc.name, err)
			}
		}
	}
}

func TestWelcomeByeRoundTrip(t *testing.T) {
	ft, p := readOne(t, AppendWelcome(nil, 12345, CapEventBatch), 0)
	if ft != FrameWelcome {
		t.Fatalf("type = %v", ft)
	}
	ver, max, caps, err := ParseWelcome(p)
	if err != nil || ver != Version || max != 12345 || caps != CapEventBatch {
		t.Fatalf("welcome = %d %d %d %v", ver, max, caps, err)
	}
	// A v1 Welcome (no capability byte) parses with no capabilities.
	if _, _, caps, err := ParseWelcome(p[:5]); err != nil || caps != 0 {
		t.Fatalf("v1 welcome caps = %d, %v", caps, err)
	}
	if ft, _ := readOne(t, AppendBye(nil), 0); ft != FrameBye {
		t.Fatalf("bye type = %v", ft)
	}
}

func TestReaderFrameTooLarge(t *testing.T) {
	frame, err := AppendEvent(nil, Event{Device: strings.Repeat("x", 4096)})
	if err != nil {
		t.Fatal(err)
	}
	r := NewReader(bytes.NewReader(frame), 64)
	if _, _, err := r.Next(); !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("oversize frame error = %v", err)
	}
}

func TestReaderTruncation(t *testing.T) {
	frame, err := AppendEvent(nil, Event{Seq: 1, Device: "light"})
	if err != nil {
		t.Fatal(err)
	}
	// Clean EOF between frames is io.EOF, not an error wrap.
	r := NewReader(bytes.NewReader(nil), 0)
	if _, _, err := r.Next(); err != io.EOF {
		t.Fatalf("empty stream error = %v", err)
	}
	// A cut inside the header or body is ErrBadFrame.
	for _, cut := range []int{2, len(frame) - 3} {
		r := NewReader(bytes.NewReader(frame[:cut]), 0)
		if _, _, err := r.Next(); !errors.Is(err, ErrBadFrame) {
			t.Fatalf("cut at %d error = %v", cut, err)
		}
	}
}

// TestParseNeverPanics drives every parser over truncations and bit-flipped
// mutations of valid payloads: malformed input must error, never panic.
func TestParseNeverPanics(t *testing.T) {
	eventFrame, _ := AppendEvent(nil, Event{Seq: 9, Device: "light", Value: 1})
	helloFrame, _ := AppendHelloSession(nil, "tok", "home")
	nackFrame, _ := AppendNack(nil, Nack{Seq: 3, Code: CodeInternal, Detail: "x"})
	resumeFrame, _ := AppendResume(nil, "sess", 9)
	sessAlarmFrame, _ := AppendSessionAlarm(nil, 2, Alarm{Seq: 1, Events: []AlarmEvent{
		{Device: "light", State: 1, Context: []ContextEntry{{Name: "p@t-1", State: 1}}},
	}})
	cases := []struct {
		payload []byte
		parse   func([]byte) error
	}{
		{eventFrame[5:], func(p []byte) error { _, err := ParseEvent(p); return err }},
		{helloFrame[5:], func(p []byte) error { _, _, _, _, err := ParseHello(p); return err }},
		{nackFrame[5:], func(p []byte) error { _, err := ParseNack(p); return err }},
		{resumeFrame[5:], func(p []byte) error { _, _, err := ParseResume(p); return err }},
		{sessAlarmFrame[5:], func(p []byte) error { _, _, err := ParseSessionAlarm(p); return err }},
	}
	for _, tc := range cases {
		for cut := 0; cut <= len(tc.payload); cut++ {
			tc.parse(tc.payload[:cut])
		}
		for i := range tc.payload {
			for bit := 0; bit < 8; bit++ {
				mut := append([]byte(nil), tc.payload...)
				mut[i] ^= 1 << bit
				tc.parse(mut)
			}
		}
	}
}

// TestAlarmCountGuard: a forged event count far beyond the payload size is
// refused instead of driving a huge allocation loop.
func TestAlarmCountGuard(t *testing.T) {
	frame, _ := AppendSessionAlarm(nil, 1, Alarm{Seq: 1})
	p := append([]byte(nil), frame[5:]...)
	p[len(p)-2], p[len(p)-1] = 0xff, 0xff // nevents = 65535
	if _, _, err := ParseSessionAlarm(p); !errors.Is(err, ErrBadFrame) {
		t.Fatalf("forged count error = %v", err)
	}
}

func TestAppendStringTooLong(t *testing.T) {
	if _, err := AppendHelloSession(nil, strings.Repeat("x", 70000), "t"); !errors.Is(err, ErrBadFrame) {
		t.Fatalf("oversize string error = %v", err)
	}
}

func TestCodeAndFrameTypeStrings(t *testing.T) {
	for c := CodeBackpressure; c <= CodeInternal; c++ {
		if strings.HasPrefix(c.String(), "code(") {
			t.Errorf("code %d has no name", c)
		}
	}
	if Code(200).String() != "code(200)" {
		t.Errorf("unknown code string = %q", Code(200).String())
	}
	for ft := FrameHello; ft <= FrameEventBatch; ft++ {
		// Type 5 was the plain connection's Alarm frame, retired with it.
		if named := !strings.HasPrefix(ft.String(), "frame("); named != (ft != 5) {
			t.Errorf("frame type %d named %q", ft, ft.String())
		}
	}
}

// loopReader serves the same bytes forever without allocating.
type loopReader struct {
	b   []byte
	off int
}

func (l *loopReader) Read(p []byte) (int, error) {
	n := copy(p, l.b[l.off:])
	l.off = (l.off + n) % len(l.b)
	return n, nil
}

func TestReaderNextZeroAllocs(t *testing.T) {
	frame, err := AppendEvent(nil, Event{Seq: 1, Device: "light"})
	if err != nil {
		t.Fatal(err)
	}
	r := NewReader(&loopReader{b: frame}, 0)
	r.Next()
	if n := testing.AllocsPerRun(1000, func() {
		if ft, _, err := r.Next(); err != nil || ft != FrameEvent {
			t.Fatalf("Next = %v, %v", ft, err)
		}
	}); n != 0 {
		t.Fatalf("Reader.Next: %v allocs per frame, want 0", n)
	}
}

func TestNamesDecodeZeroAllocs(t *testing.T) {
	ev, err := AppendEvent(nil, Event{Seq: 1, Device: "light"})
	if err != nil {
		t.Fatal(err)
	}
	evs := []BatchEvent{{Link: 1, Ev: Event{Device: "light"}}, {Link: 2, Ev: Event{Device: "door"}}}
	batch, err := AppendSubmitBatch(nil, "home-0", evs)
	if err != nil {
		t.Fatal(err)
	}
	var names Names
	scratch := make([]BatchEvent, 0, len(evs))
	if n := testing.AllocsPerRun(1000, func() {
		if got, err := names.ParseEvent(ev[headerLen+1:]); err != nil || got.Device != "light" {
			t.Fatalf("ParseEvent = %+v, %v", got, err)
		}
		tenant, got, err := names.ParseSubmitBatch(batch[headerLen+1:], scratch[:0])
		if err != nil || tenant != "home-0" || len(got) != 2 || got[1].Ev.Device != "door" {
			t.Fatalf("ParseSubmitBatch = %q %+v, %v", tenant, got, err)
		}
	}); n != 0 {
		t.Fatalf("decoding repeated names: %v allocs per run, want 0", n)
	}
}

func TestNamesCapped(t *testing.T) {
	var names Names
	decode := func(name string) {
		t.Helper()
		frame, _ := AppendEvent(nil, Event{Device: name})
		if got, err := names.ParseEvent(frame[headerLen+1:]); err != nil || got.Device != name {
			t.Fatalf("ParseEvent = %+v, %v; want device %q", got, err, name)
		}
	}
	decode(strings.Repeat("x", maxNameLen+1))
	if len(names.m) != 0 {
		t.Fatalf("a name longer than %d bytes was interned", maxNameLen)
	}
	for i := 0; i < 2*maxNames; i++ {
		decode(fmt.Sprintf("dev-%d", i))
	}
	if len(names.m) != maxNames {
		t.Fatalf("table holds %d names, want the cap %d", len(names.m), maxNames)
	}
}
