package main

import (
	"fmt"
	"math"

	"github.com/causaliot/causaliot"
)

// parity is the outcome of replaying every home's exact event sequence
// through a standalone Monitor and matching the served alarms against it.
type parity struct {
	events   int64 // events replayed
	expected int64 // alarms the reference raised
	missing  int64 // reference alarms the producer never received
	wrong    int64 // received alarms that differ from, or are absent in, the reference
	firstBad string
	// observeNs and mallocs cover the ObserveEvent calls alone: the
	// single-goroutine baseline beside the served figures.
	observeNs int64
	mallocs   uint64
}

// verifier keeps one reference Monitor per home and checks the served
// alarms after every round, between the timed windows, so the benchmark
// never holds more than one round of alarms.
type verifier struct {
	refs []*causaliot.Monitor
	from []uint64 // next sequence number to replay, per home
	last []uint64 // highest served alarm seq seen, per home
	p    parity
}

func newVerifier(homes []*home, models []*causaliot.System) (*verifier, error) {
	v := &verifier{from: make([]uint64, len(homes)), last: make([]uint64, len(homes))}
	for i, h := range homes {
		mon, err := models[h.model].NewMonitor()
		if err != nil {
			v.close()
			return nil, err
		}
		v.refs = append(v.refs, mon)
		v.from[i] = 1
	}
	return v, nil
}

func (v *verifier) close() {
	for _, m := range v.refs {
		m.Close()
	}
	v.refs = nil
}

// check replays each home's events sent since the last check (less the
// ones the host refused) and compares them with the alarms received, then
// drops the received alarms. Producers must be stopped.
func (v *verifier) check(homes []*home) error {
	for i, h := range homes {
		h.mu.Lock()
		served := h.alarms
		h.alarms = nil
		skipped := h.skipped
		h.mu.Unlock()
		var ref []alarmRec
		mon := v.refs[i]
		m0 := mallocsNow()
		t0 := nanos()
		for seq := v.from[i]; seq < h.next; seq++ {
			if skipped[seq] {
				continue
			}
			det, err := mon.ObserveEvent(h.stream.event(seq))
			if err != nil {
				return fmt.Errorf("reference %s seq %d: %w", h.name, seq, err)
			}
			if det.Alarm != nil {
				a := alarmRec{seq: seq, score: det.Score, abrupt: det.Alarm.Abrupt, events: len(det.Alarm.Events)}
				if a.events > 0 {
					a.device, a.state = det.Alarm.Events[0].Device, det.Alarm.Events[0].State
				}
				ref = append(ref, a)
			}
			v.p.events++
		}
		v.p.observeNs += nanos() - t0
		v.p.mallocs += mallocsNow() - m0
		v.from[i] = h.next
		v.p.expected += int64(len(ref))
		v.last[i] = v.p.compare(h.name, v.last[i], served, ref)
	}
	return nil
}

// compare walks served and reference alarms in Seq order and returns the
// highest served seq. A reference alarm never received is missing; a
// received alarm out of order, not in the reference, or with different
// content is wrong.
func (p *parity) compare(name string, last uint64, served, ref []alarmRec) uint64 {
	bad := func(format string, args ...any) {
		p.wrong++
		if p.firstBad == "" {
			p.firstBad = name + ": " + fmt.Sprintf(format, args...)
		}
	}
	i, j := 0, 0
	for i < len(served) || j < len(ref) {
		switch {
		case i < len(served) && served[i].seq <= last:
			bad("alarm seq %d after %d", served[i].seq, last)
			i++
		case j == len(ref) || (i < len(served) && served[i].seq < ref[j].seq):
			bad("alarm at seq %d not raised by the reference", served[i].seq)
			last = served[i].seq
			i++
		case i == len(served) || ref[j].seq < served[i].seq:
			p.missing++
			j++
		default:
			s, r := served[i], ref[j]
			if math.Float64bits(s.score) != math.Float64bits(r.score) || s.events != r.events ||
				s.device != r.device || s.state != r.state || s.abrupt != r.abrupt {
				bad("alarm at seq %d differs: served %+v, reference %+v", s.seq, s, r)
			}
			last = s.seq
			i++
			j++
		}
	}
	return last
}
