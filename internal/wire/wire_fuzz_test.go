package wire

import (
	"testing"
	"time"
)

// FuzzWireFrames is the error-never-panic contract for the decoders that
// read untrusted network input: no payload may crash ParseEvent,
// ParseEventBatch, ParseSubmitBatch or ParseHello, and no batch decoder may
// return more events than the payload's bytes can encode. Each input is fed
// to every decoder, with and without a name table.
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
	f.Add(payload(AppendHello(nil, "tok", "home-0")))
	f.Add(payload(AppendHelloSession(nil, "tok", "home-0")))
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
		ParseHello(p)
	})
}
