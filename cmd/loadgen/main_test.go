package main

import (
	"strings"
	"testing"
)

func TestParseFlagsValidation(t *testing.T) {
	cases := []struct {
		args []string
		want string
	}{
		{nil, "-addr or -self-serve"},
		{[]string{"-addr", "x:1", "-self-serve"}, "mutually exclusive"},
		{[]string{"-self-serve", "-conns", "0"}, "-conns"},
		{[]string{"-self-serve", "-homes", "-1"}, "-homes"},
		{[]string{"-self-serve", "-events", "-1"}, "-events"},
		{[]string{"-self-serve", "-rate", "-5"}, "-rate"},
		{[]string{"-self-serve", "-days", "0"}, "-days"},
		{[]string{"-self-serve", "-tau", "-1"}, "-tau"},
		{[]string{"-self-serve", "-kmax", "0"}, "-kmax"},
		{[]string{"-self-serve", "-shards", "0"}, "-shards"},
		{[]string{"-self-serve", "-workers", "-1"}, "-workers"},
		{[]string{"-self-serve", "-queue", "0"}, "-queue"},
		{[]string{"-self-serve", "-models", "0"}, "-models"},
		{[]string{"-addr", "x:1", "-models", "2"}, "-models"},
	}
	for _, tc := range cases {
		if _, err := parseFlags(tc.args); err == nil {
			t.Errorf("%v accepted", tc.args)
		} else if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%v: error %q does not mention %q", tc.args, err, tc.want)
		}
	}
	cfg, err := parseFlags([]string{"-self-serve", "-conns", "6"})
	if err != nil {
		t.Fatal(err)
	}
	if cfg.homes != 6 {
		t.Errorf("homes defaulted to %d, want conns (6)", cfg.homes)
	}
}

// TestServeSmoke is the happy-path load run the Makefile drives: a
// self-served fleet (and a router over two cluster workers with home-0
// migrating under load), one session per home, every frame accepted, and
// the alarm accounting closed — every alarm raised server-side was pushed
// at raise time or banked in its session, none was dropped, and every one
// reached its producer exactly once.
func TestServeSmoke(t *testing.T) {
	for _, tc := range []struct {
		name             string
		shards, cluster  int
		migrate, workers int
	}{
		{name: "fleet", shards: 2, workers: 1},
		{name: "cluster", cluster: 2, migrate: 4, workers: 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rep, err := runLoad(config{
				selfServe: true,
				conns:     4,
				homes:     4,
				events:    300,
				days:      1,
				trainDays: 1,
				seed:      3,
				testbed:   "contextact",
				token:     "tok",
				tau:       2,
				kmax:      1,
				shards:    tc.shards,
				cluster:   tc.cluster,
				migrate:   tc.migrate,
				workers:   tc.workers,
				queue:     1024,
				policy:    "block",
			})
			if err != nil {
				t.Fatal(err)
			}
			if rep.EventsSent != 4*300 {
				t.Errorf("events sent = %d, want 1200", rep.EventsSent)
			}
			if rep.EventsNacked != 0 {
				t.Errorf("block policy nacked %d events", rep.EventsNacked)
			}
			srv := rep.Server
			if srv == nil {
				t.Fatal("self-serve report missing server stats")
			}
			if srv.Wire.Events != rep.EventsSent || srv.Wire.Nacks != 0 {
				t.Errorf("server accepted %d/%d events, %d nacks", srv.Wire.Events, rep.EventsSent, srv.Wire.Nacks)
			}
			if tc.migrate > 0 && (rep.Cluster == nil || rep.Cluster.Migrations+rep.Cluster.MigrationsFailed != tc.migrate) {
				t.Errorf("cluster report = %+v, want %d migrations attempted", rep.Cluster, tc.migrate)
			}
			// Zero silent alarm drops: every alarm the hub raised was pushed
			// to its session's connection at raise time or banked in the
			// session for a replay (or shows up in the fleet's explicit drop
			// counter), and no session's replay ring overflowed.
			raised := srv.Hub.Total.Alarms
			accounted := srv.Wire.Alarms + srv.Wire.AlarmsBuffered
			if srv.Fleet != nil {
				accounted += srv.Fleet.AlarmsDropped
			}
			if raised != accounted || srv.Wire.AlarmsDropped != 0 {
				t.Errorf("alarm accounting open: raised %d, accounted %d (pushed %d, banked %d), wire drops %d",
					raised, accounted, srv.Wire.Alarms, srv.Wire.AlarmsBuffered, srv.Wire.AlarmsDropped)
			}
			if rep.Alarms != raised {
				t.Errorf("clients received %d alarms, hub raised %d", rep.Alarms, raised)
			}
			if rep.Alarms > 0 {
				if rep.AlarmLatency.Samples == 0 || rep.AlarmLatency.P50 <= 0 {
					t.Errorf("alarms arrived but latency not measured: %+v", rep.AlarmLatency)
				}
				if rep.AlarmLatency.P50 > rep.AlarmLatency.P99 || rep.AlarmLatency.P99 > rep.AlarmLatency.Max {
					t.Errorf("latency percentiles disordered: %+v", rep.AlarmLatency)
				}
			}
		})
	}
}

// TestServeSmokeBackpressure floods a reject-policy server with a one-slot
// queue: overflow must surface as NACK frames, and the NACK + accepted
// counts must exactly cover every frame sent — nothing vanishes.
func TestServeSmokeBackpressure(t *testing.T) {
	rep, err := runLoad(config{
		selfServe: true,
		conns:     4,
		homes:     4,
		events:    500,
		days:      1,
		trainDays: 1,
		seed:      3,
		testbed:   "contextact",
		tau:       2,
		kmax:      1,
		shards:    1,
		workers:   1,
		queue:     1,
		policy:    "reject",
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.EventsNacked == 0 {
		t.Fatal("reject policy under flood produced no nacks")
	}
	srv := rep.Server
	if srv == nil {
		t.Fatal("self-serve report missing server stats")
	}
	if srv.Wire.Nacks != rep.EventsNacked {
		t.Errorf("clients saw %d nacks, server sent %d", rep.EventsNacked, srv.Wire.Nacks)
	}
	if got := srv.Wire.Events + srv.Wire.Nacks; got != rep.EventsSent {
		t.Errorf("accepted (%d) + nacked (%d) = %d, want every sent frame (%d)",
			srv.Wire.Events, srv.Wire.Nacks, got, rep.EventsSent)
	}
}

// TestChaosSmoke runs the -chaos path: session producers through the seeded
// fault proxy must land every event exactly once regardless of what the
// proxy injects, and the report must carry the recovery metrics.
func TestChaosSmoke(t *testing.T) {
	rep, err := runLoad(config{
		selfServe: true,
		conns:     4,
		homes:     4,
		events:    500,
		days:      1,
		trainDays: 1,
		seed:      3,
		chaos:     42,
		testbed:   "contextact",
		token:     "tok",
		tau:       2,
		kmax:      1,
		shards:    1,
		workers:   1,
		queue:     1024,
		policy:    "block",
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Chaos == nil {
		t.Fatal("chaos run produced no chaos report")
	}
	if rep.Chaos.GaveUp != 0 {
		t.Fatalf("%d sessions gave up", rep.Chaos.GaveUp)
	}
	srv := rep.Server
	if srv == nil {
		t.Fatal("self-serve report missing server stats")
	}
	// Exactly-once through the chaos: admissions equal unique events sent;
	// everything the proxy made the sessions resend was deduplicated at the
	// watermark, never admitted twice.
	if srv.Wire.Events != rep.EventsSent {
		t.Errorf("server admitted %d events, %d sent", srv.Wire.Events, rep.EventsSent)
	}
	if srv.Wire.Duplicates > srv.Wire.Retransmits {
		t.Errorf("duplicates (%d) exceed retransmits (%d)", srv.Wire.Duplicates, srv.Wire.Retransmits)
	}
	if rep.Chaos.Reconnects > 0 && rep.Chaos.RecoveryLatency.Samples != int(rep.Chaos.Reconnects) {
		t.Errorf("%d reconnects but %d recovery samples", rep.Chaos.Reconnects, rep.Chaos.RecoveryLatency.Samples)
	}
	raised := srv.Hub.Total.Alarms
	accounted := srv.Wire.Alarms + srv.Wire.AlarmReplays + srv.Wire.AlarmsBuffered + srv.Wire.AlarmsDropped
	if raised > accounted {
		t.Errorf("alarm accounting open under chaos: raised %d, accounted %d", raised, accounted)
	}
}
