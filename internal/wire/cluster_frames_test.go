package wire

import (
	"bytes"
	"errors"
	"reflect"
	"testing"
	"time"
)

// readOne decodes the single frame encoded in buf, asserting the type.
func readClusterFrame(t *testing.T, buf []byte, want FrameType) []byte {
	t.Helper()
	r := NewReader(bytes.NewReader(buf), 0)
	ft, p, err := r.Next()
	if err != nil {
		t.Fatalf("Next: %v", err)
	}
	if ft != want {
		t.Fatalf("frame type = %v, want %v", ft, want)
	}
	out := make([]byte, len(p))
	copy(out, p)
	return out
}

func TestClusterFrameRoundTrips(t *testing.T) {
	t.Run("shard-hello", func(t *testing.T) {
		buf, err := AppendShardHello(nil, "tok", "router-1")
		if err != nil {
			t.Fatal(err)
		}
		v, tok, router, err := ParseShardHello(readClusterFrame(t, buf, FrameShardHello))
		if err != nil || v != Version || tok != "tok" || router != "router-1" {
			t.Fatalf("got v=%d tok=%q router=%q err=%v", v, tok, router, err)
		}
	})
	t.Run("shard-welcome", func(t *testing.T) {
		buf := AppendShardWelcome(nil, 777)
		v, max, err := ParseShardWelcome(readClusterFrame(t, buf, FrameShardWelcome))
		if err != nil || v != Version || max != 777 {
			t.Fatalf("got v=%d max=%d err=%v", v, max, err)
		}
	})
	t.Run("register-tenant", func(t *testing.T) {
		in := RegisterTenant{Tenant: "home-3", Flags: RegFlagHasState, Queue: 512, Policy: 2}
		buf, err := AppendRegisterTenant(nil, in)
		if err != nil {
			t.Fatal(err)
		}
		out, err := ParseRegisterTenant(readClusterFrame(t, buf, FrameRegisterTenant))
		if err != nil || out != in {
			t.Fatalf("got %+v err=%v, want %+v", out, err, in)
		}
	})
	t.Run("envelope-chunk", func(t *testing.T) {
		in := EnvelopeChunk{Tenant: "home-3", Kind: EnvState, Data: []byte("abcdef")}
		buf, err := AppendEnvelopeChunk(nil, in)
		if err != nil {
			t.Fatal(err)
		}
		out, err := ParseEnvelopeChunk(readClusterFrame(t, buf, FrameEnvelopeChunk))
		if err != nil || out.Tenant != in.Tenant || out.Kind != in.Kind || !bytes.Equal(out.Data, in.Data) {
			t.Fatalf("got %+v err=%v, want %+v", out, err, in)
		}
	})
	t.Run("tenant-ok", func(t *testing.T) {
		in := TenantOK{Op: OpQuiesce, Tenant: "home-3", Watermark: 42, AlarmIdx: 7}
		buf, err := AppendTenantOK(nil, in)
		if err != nil {
			t.Fatal(err)
		}
		out, err := ParseTenantOK(readClusterFrame(t, buf, FrameTenantOK))
		if err != nil || out != in {
			t.Fatalf("got %+v err=%v, want %+v", out, err, in)
		}
	})
	t.Run("shard-err", func(t *testing.T) {
		in := ShardErr{Op: OpRegister, Tenant: "home-3", Code: CodeUnknownTenant, Detail: "no such"}
		buf, err := AppendShardErr(nil, in)
		if err != nil {
			t.Fatal(err)
		}
		out, err := ParseShardErr(readClusterFrame(t, buf, FrameShardErr))
		if err != nil || out != in {
			t.Fatalf("got %+v err=%v, want %+v", out, err, in)
		}
	})
	t.Run("submit-batch", func(t *testing.T) {
		now := time.Unix(0, 1712345678e9).UTC()
		in := []BatchEvent{
			{Link: 1, Ev: Event{Seq: 10, Time: now, Device: "lamp", Value: 1}},
			{Link: 2, Ev: Event{Seq: 11, Time: now.Add(time.Second), Device: "door", Value: 0}},
		}
		buf, err := AppendSubmitBatch(nil, "home-3", in)
		if err != nil {
			t.Fatal(err)
		}
		tenant, out, err := new(Names).ParseSubmitBatch(readClusterFrame(t, buf, FrameSubmitBatch), nil)
		if err != nil || tenant != "home-3" || !reflect.DeepEqual(out, in) {
			t.Fatalf("got tenant=%q %+v err=%v, want %+v", tenant, out, err, in)
		}
	})
	t.Run("shard-ack", func(t *testing.T) {
		buf, err := AppendShardAck(nil, "home-3", 99)
		if err != nil {
			t.Fatal(err)
		}
		tenant, wm, err := ParseShardAck(readClusterFrame(t, buf, FrameShardAck))
		if err != nil || tenant != "home-3" || wm != 99 {
			t.Fatalf("got tenant=%q wm=%d err=%v", tenant, wm, err)
		}
	})
	t.Run("shard-nack", func(t *testing.T) {
		in := ShardNack{Tenant: "home-3", Link: 5, Code: CodeBackpressure, Detail: "full"}
		buf, err := AppendShardNack(nil, in)
		if err != nil {
			t.Fatal(err)
		}
		out, err := ParseShardNack(readClusterFrame(t, buf, FrameShardNack))
		if err != nil || out != in {
			t.Fatalf("got %+v err=%v, want %+v", out, err, in)
		}
	})
	t.Run("alarm-stream", func(t *testing.T) {
		in := Alarm{Seq: 8, Score: 0.25, Abrupt: true, Events: []AlarmEvent{
			{Device: "lamp", State: 1, Score: 0.5, Context: []ContextEntry{{Name: "door", State: 0}}},
		}}
		buf, err := AppendAlarmStream(nil, "home-3", 4, in)
		if err != nil {
			t.Fatal(err)
		}
		tenant, idx, out, err := ParseAlarmStream(readClusterFrame(t, buf, FrameAlarmStream))
		if err != nil || tenant != "home-3" || idx != 4 || !reflect.DeepEqual(out, in) {
			t.Fatalf("got tenant=%q idx=%d %+v err=%v", tenant, idx, out, err)
		}
	})
	t.Run("alarm-stream-ack", func(t *testing.T) {
		buf, err := AppendAlarmStreamAck(nil, "home-3", 4)
		if err != nil {
			t.Fatal(err)
		}
		tenant, idx, err := ParseAlarmStreamAck(readClusterFrame(t, buf, FrameAlarmStreamAck))
		if err != nil || tenant != "home-3" || idx != 4 {
			t.Fatalf("got tenant=%q idx=%d err=%v", tenant, idx, err)
		}
	})
	t.Run("resume-tenant", func(t *testing.T) {
		buf, err := AppendResumeTenant(nil, "home-3", 6)
		if err != nil {
			t.Fatal(err)
		}
		tenant, idx, err := ParseResumeTenant(readClusterFrame(t, buf, FrameResumeTenant))
		if err != nil || tenant != "home-3" || idx != 6 {
			t.Fatalf("got tenant=%q idx=%d err=%v", tenant, idx, err)
		}
	})
	t.Run("tenant-frames", func(t *testing.T) {
		for _, ft := range []FrameType{FrameEnvelopeDone, FrameQuiesce, FrameExportEnvelope, FrameDeregisterTenant, FrameFlushTenant} {
			buf, err := AppendTenantFrame(nil, ft, "home-3")
			if err != nil {
				t.Fatal(err)
			}
			tenant, err := ParseTenantFrame(readClusterFrame(t, buf, ft))
			if err != nil || tenant != "home-3" {
				t.Fatalf("%v: got tenant=%q err=%v", ft, tenant, err)
			}
		}
	})
	t.Run("shard-stats", func(t *testing.T) {
		doc := []byte(`{"events":1}`)
		buf := AppendShardStats(nil, doc)
		if got := readClusterFrame(t, buf, FrameShardStats); !bytes.Equal(got, doc) {
			t.Fatalf("got %q, want %q", got, doc)
		}
		buf = AppendShardStatsReq(nil)
		if got := readClusterFrame(t, buf, FrameShardStatsReq); len(got) != 0 {
			t.Fatalf("stats-req payload = %q, want empty", got)
		}
	})
	t.Run("drain", func(t *testing.T) {
		buf := AppendDrain(nil, 2500)
		ms, err := ParseDrain(readClusterFrame(t, buf, FrameDrain))
		if err != nil || ms != 2500 {
			t.Fatalf("got ms=%d err=%v", ms, err)
		}
	})
}

// Every cluster parser must reject a truncated payload with ErrBadFrame
// (never panic, never return partial data silently).
func TestClusterFrameTruncation(t *testing.T) {
	now := time.Unix(0, 1712345678e9).UTC()
	full := map[string][]byte{}
	add := func(name string, buf []byte, err error) {
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		full[name] = buf[headerLen+1:] // strip length header + type byte
	}
	b, err := AppendShardHello(nil, "tok", "r")
	add("shard-hello", b, err)
	add("shard-welcome", AppendShardWelcome(nil, 1), nil)
	b, err = AppendRegisterTenant(nil, RegisterTenant{Tenant: "t", Queue: 1})
	add("register-tenant", b, err)
	b, err = AppendEnvelopeChunk(nil, EnvelopeChunk{Tenant: "t", Kind: EnvModel, Data: []byte{1}})
	add("envelope-chunk", b, err)
	b, err = AppendTenantOK(nil, TenantOK{Op: OpResume, Tenant: "t", Watermark: 1, AlarmIdx: 1})
	add("tenant-ok", b, err)
	b, err = AppendShardErr(nil, ShardErr{Op: OpResume, Tenant: "t", Code: CodeInternal, Detail: "d"})
	add("shard-err", b, err)
	b, err = AppendSubmitBatch(nil, "t", []BatchEvent{{Link: 1, Ev: Event{Seq: 1, Time: now, Device: "d", Value: 1}}})
	add("submit-batch", b, err)
	b, err = AppendShardAck(nil, "t", 1)
	add("shard-ack", b, err)
	b, err = AppendShardNack(nil, ShardNack{Tenant: "t", Link: 1, Code: CodeInternal, Detail: "d"})
	add("shard-nack", b, err)
	b, err = AppendAlarmStream(nil, "t", 1, Alarm{Seq: 1, Events: []AlarmEvent{{Device: "d"}}})
	add("alarm-stream", b, err)
	b, err = AppendAlarmStreamAck(nil, "t", 1)
	add("alarm-stream-ack", b, err)
	b, err = AppendResumeTenant(nil, "t", 1)
	add("resume-tenant", b, err)
	b, err = AppendTenantFrame(nil, FrameQuiesce, "t")
	add("tenant-frame", b, err)
	add("drain", AppendDrain(nil, 1), nil)

	parse := map[string]func([]byte) error{
		"shard-hello":      func(p []byte) error { _, _, _, err := ParseShardHello(p); return err },
		"shard-welcome":    func(p []byte) error { _, _, err := ParseShardWelcome(p); return err },
		"register-tenant":  func(p []byte) error { _, err := ParseRegisterTenant(p); return err },
		"envelope-chunk":   func(p []byte) error { _, err := ParseEnvelopeChunk(p); return err },
		"tenant-ok":        func(p []byte) error { _, err := ParseTenantOK(p); return err },
		"shard-err":        func(p []byte) error { _, err := ParseShardErr(p); return err },
		"submit-batch":     func(p []byte) error { _, _, err := new(Names).ParseSubmitBatch(p, nil); return err },
		"shard-ack":        func(p []byte) error { _, _, err := ParseShardAck(p); return err },
		"shard-nack":       func(p []byte) error { _, err := ParseShardNack(p); return err },
		"alarm-stream":     func(p []byte) error { _, _, _, err := ParseAlarmStream(p); return err },
		"alarm-stream-ack": func(p []byte) error { _, _, err := ParseAlarmStreamAck(p); return err },
		"resume-tenant":    func(p []byte) error { _, _, err := ParseResumeTenant(p); return err },
		"tenant-frame":     func(p []byte) error { _, err := ParseTenantFrame(p); return err },
		"drain":            func(p []byte) error { _, err := ParseDrain(p); return err },
	}
	for name, payload := range full {
		fn := parse[name]
		if fn == nil {
			t.Fatalf("no parser registered for %s", name)
		}
		if err := fn(payload); err != nil {
			t.Errorf("%s: full payload rejected: %v", name, err)
		}
		// envelope-chunk's trailing bytes ARE the data section, so only
		// cuts inside the fixed prefix are malformed.
		limit := len(payload)
		if name == "envelope-chunk" {
			limit = 4 // u16 tenant len + 1-byte tenant + kind byte
		}
		for cut := 0; cut < limit; cut++ {
			err := fn(payload[:cut])
			if err == nil {
				// A cut that still parses must be an empty-tenant reject
				// case already covered; cluster payloads all have required
				// fields, so any nil here is a real hole.
				t.Errorf("%s: truncation at %d/%d accepted", name, cut, len(payload))
			} else if !errors.Is(err, ErrBadFrame) {
				t.Errorf("%s: truncation at %d returned %v, not ErrBadFrame", name, cut, err)
			}
		}
	}
}
