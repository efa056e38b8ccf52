package wire

import (
	"bytes"
	"reflect"
	"testing"
	"time"
)

// FuzzWireFrames is the error-never-panic contract for the decoders that
// read untrusted network input: no payload may crash ParseEvent,
// ParseEventBatch, ParseSubmitBatch, ParseHello or the two alarm decoders,
// and no batch decoder may return more events than the payload's bytes can
// encode. Each input is fed to every decoder, the event decoders with and
// without a name table. A Hello that decodes, with or without the session
// byte, must re-encode in its form and decode to the same fields; an alarm
// that decodes must re-encode and decode to an equal alarm.
func FuzzWireFrames(f *testing.F) {
	now := time.Unix(1700000000, 0)
	evs := []Event{{Seq: 1, Time: now, Device: "light", Value: 1}, {Seq: 2, Time: now, Device: "door"}}
	payload := func(frame []byte, err error) []byte {
		if err != nil {
			f.Fatal(err)
		}
		return frame[headerLen+1:]
	}
	f.Add(payload(AppendEvent(nil, evs[0])))
	f.Add(payload(appendEventBatch(nil, evs)))
	f.Add(payload(appendEventBatch(nil, nil)))
	f.Add(payload(AppendSubmitBatch(nil, "home-0", []BatchEvent{{Link: 1, Ev: evs[0]}, {Link: 2, Ev: evs[1]}})))
	f.Add(payload(appendHello(nil, FrameHello, "tok", "home-0")))
	f.Add(payload(AppendHelloSession(nil, "tok", "home-0")))
	f.Add(payload(appendHello(nil, FrameHello, "", "")))
	f.Add(payload(AppendHelloSession(nil, "", "")))
	f.Add(payload(AppendSessionAlarm(nil, 7, goldenAlarm)))
	f.Add(payload(AppendSessionAlarm(nil, 1, Alarm{Seq: 3})))
	f.Add(payload(AppendAlarmStream(nil, "home-3", 11, goldenAlarm)))
	f.Add([]byte{})
	f.Add([]byte{0xff, 0xff})
	f.Fuzz(func(t *testing.T, p []byte) {
		for _, names := range []*Names{nil, new(Names)} {
			names.ParseEvent(p)
			got, err := names.ParseEventBatch(p, nil)
			if err == nil && len(got)*eventBodyMin > len(p) {
				t.Fatalf("EventBatch: %d events from %d bytes", len(got), len(p))
			}
			if err != nil && len(got) != 0 {
				t.Fatalf("EventBatch: error %v with %d events", err, len(got))
			}
			_, bes, err := names.ParseSubmitBatch(p, nil)
			if err == nil && len(bes)*(8+eventBodyMin) > len(p) {
				t.Fatalf("SubmitBatch: %d events from %d bytes", len(bes), len(p))
			}
			if err != nil && len(bes) != 0 {
				t.Fatalf("SubmitBatch: error %v with %d events", err, len(bes))
			}
		}
		if _, token, tenant, session, err := ParseHello(p); err == nil {
			helloRoundTrip(t, token, tenant, session)
		}
		if idx, a, err := ParseSessionAlarm(p); err == nil {
			alarmRoundTrip(t, a, func(a Alarm) ([]byte, error) { return AppendSessionAlarm(nil, idx, a) },
				func(p []byte) (Alarm, error) { _, a, err := ParseSessionAlarm(p); return a, err })
		}
		if tenant, idx, a, err := ParseAlarmStream(p); err == nil {
			alarmRoundTrip(t, a, func(a Alarm) ([]byte, error) { return AppendAlarmStream(nil, tenant, idx, a) },
				func(p []byte) (Alarm, error) { _, _, a, err := ParseAlarmStream(p); return a, err })
		}
	})
}

// helloRoundTrip re-encodes a decoded Hello in its form, plain or with the
// session byte, and decodes it again: the fields must come back unchanged.
func helloRoundTrip(t *testing.T, token, tenant string, session bool) {
	t.Helper()
	enc := AppendHelloSession
	if !session {
		enc = func(dst []byte, token, tenant string) ([]byte, error) {
			return appendHello(dst, FrameHello, token, tenant)
		}
	}
	frame, err := enc(nil, token, tenant)
	if err != nil {
		t.Fatalf("re-encode hello %q %q: %v", token, tenant, err)
	}
	ver, tok, ten, sess, err := ParseHello(frame[headerLen+1:])
	if err != nil || ver != Version || tok != token || ten != tenant || sess != session {
		t.Fatalf("hello round trip: %d %q %q %v %v, want %d %q %q %v", ver, tok, ten, sess, err, Version, token, tenant, session)
	}
}

// alarmRoundTrip re-encodes a decoded alarm and decodes it again: the
// result must equal the first decode, and encode to the same bytes.
func alarmRoundTrip(t *testing.T, a Alarm, enc func(Alarm) ([]byte, error), parse func([]byte) (Alarm, error)) {
	t.Helper()
	frame, err := enc(a)
	if err != nil {
		t.Fatalf("re-encode %+v: %v", a, err)
	}
	got, err := parse(frame[headerLen+1:])
	if err != nil {
		t.Fatalf("re-parse %+v: %v", a, err)
	}
	again, err := enc(got)
	if err != nil || !bytes.Equal(again, frame) {
		t.Fatalf("round trip re-encodes differently: %x, want %x (%v)", again, frame, err)
	}
	if !reflect.DeepEqual(got, a) {
		t.Fatalf("round trip: %+v, want %+v", got, a)
	}
}
