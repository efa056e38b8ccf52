// Command perfbench is CausalIoT's serving benchmark. It runs one workload
// against the serving stack (causaliot.Train → Hub/Fleet → wire sessions →
// cluster workers), checks every served alarm against a reference replay,
// and prints the workload's metrics as one JSON object on the last line of
// standard output.
//
//	perfbench --workload hub-burst --seed 1 --seconds 16 --trace 0
//
// --trace 0 reports the end-to-end metrics; --trace 1 makes a separate
// traced run that reports the per-layer metrics and the per-event budget.
// Every layer is measured from outside, by timing calls into its public
// surface. README.md describes the workloads and maps each layer metric
// to the end-to-end metric it should move.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
	"time"

	"github.com/causaliot/causaliot/internal/wire"
)

// setupReps is how many times each run sets the stack up; setup_s is the
// median and the last stack serves.
const setupReps = 3

// outDir receives the full result and the span log of every run, relative
// to the checkout the benchmark runs in.
const outDir = ".bench_build/perfbench"

type options struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
}

// result is the benchmark's contract line.
type result struct {
	Correct   bool    `json:"correct"`
	Attempted int64   `json:"attempted"`
	Failed    int64   `json:"failed"`
	Metrics   metrics `json:"metrics"`
}

// env records where and how a result was taken.
type env struct {
	Workload   string `json:"workload"`
	Seed       int64  `json:"seed"`
	Seconds    int    `json:"seconds"`
	Trace      bool   `json:"trace"`
	GoVersion  string `json:"go_version"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"nproc"`
	Commit     string `json:"commit"`
}

func main() {
	var o options
	var trace int
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.StringVar(&o.workload, "workload", "", "hub-burst | wire-burst | wire-paced | cluster-migrate")
	fs.Int64Var(&o.seed, "seed", 1, "traffic synthesis seed")
	fs.IntVar(&o.seconds, "seconds", 16, "measured send time, split over the rounds")
	fs.IntVar(&trace, "trace", 0, "1 = traced run (per-layer metrics)")
	if err := fs.Parse(os.Args[1:]); err != nil {
		os.Exit(2)
	}
	o.trace = trace == 1
	if _, ok := specs[o.workload]; !ok || o.seconds < 1 || (trace != 0 && trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workload %q, seconds %d, trace %d)\n", o.workload, o.seconds, trace)
		os.Exit(2)
	}
	res, report, err := execute(o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	e := env{
		Workload: o.workload, Seed: o.seed, Seconds: o.seconds, Trace: o.trace,
		GoVersion: runtime.Version(), GOMAXPROCS: runtime.GOMAXPROCS(0), NumCPU: runtime.NumCPU(),
		Commit: commit(),
	}
	envLine, _ := json.Marshal(e)
	fmt.Printf("env %s\n", envLine)
	fmt.Print(report)
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	full, _ := json.MarshalIndent(struct {
		Env    env    `json:"env"`
		Result result `json:"result"`
		Report string `json:"report"`
	}{e, res, report}, "", "  ")
	name := fmt.Sprintf("%s-seed%d-trace%d.json", o.workload, o.seed, trace)
	if err := writeFile(filepath.Join(outDir, name), full); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: writing result:", err)
	}
	fmt.Println(string(line))
}

func writeFile(path string, data []byte) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// commit names the source revision: the build's VCS stamp when built in a
// git checkout, else PERFBENCH_COMMIT, else "unknown".
func commit() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	if c := os.Getenv("PERFBENCH_COMMIT"); c != "" {
		return c
	}
	return "unknown"
}

// execute synthesizes the traffic, sets the stack up setupReps times,
// measures, tears down, verifies, and assembles the metrics. The returned
// report is the human-readable part of standard output.
func execute(o options) (result, string, error) {
	sp := specs[o.workload]
	t, err := synthesizeTraffic(o.seed, sp.models, sp.homes)
	if err != nil {
		return result{}, "", err
	}
	homes := newHomes(sp, t, o.trace)
	rec := newRecorder()
	var layers layerTimes
	if o.trace {
		if layers, err = timeTrainingLayers(t); err != nil {
			return result{}, "", err
		}
	}
	var setups, trains, registers []float64
	var stk *stack
	for rep := 0; rep < setupReps; rep++ {
		s, d, err := buildStack(sp, t, homes, rec, o.trace)
		if err != nil {
			return result{}, "", fmt.Errorf("setup: %w", err)
		}
		setups = append(setups, d.Seconds())
		var train int64
		for _, ns := range s.trainNs {
			train += ns
		}
		trains = append(trains, float64(train)/1e9)
		if s.traced != nil {
			registers = append(registers, float64(s.traced.registerNs.Load())/1e6)
		}
		if rep < setupReps-1 {
			if err := s.close(); err != nil {
				return result{}, "", fmt.Errorf("setup teardown: %w", err)
			}
			continue
		}
		stk = s
	}

	ver, err := newVerifier(homes, stk.models)
	if err != nil {
		stk.close()
		return result{}, "", err
	}
	r := &runner{sp: sp, stk: stk, homes: homes, rec: rec, ver: ver, trace: o.trace}
	var envIn0, envOut0 uint64
	if stk.fleet != nil {
		envIn0, envOut0 = envelopeBytes(stk)
	}
	rds, measureErr := r.measure(o.seconds)
	// Final figures are read with every home still registered.
	end := stk.host.Stats()
	var wireDropped uint64
	if stk.ws != nil {
		wireDropped = stk.ws.Stats().AlarmsDropped
	}
	var fleetDropped, envIn1, envOut1 uint64
	var workerProcessed []uint64
	if stk.fleet != nil {
		fleetDropped = stk.fleet.FleetStats().AlarmsDropped
		envIn1, envOut1 = envelopeBytes(stk)
		for _, w := range stk.workers {
			workerProcessed = append(workerProcessed, w.Hub().Stats().Total.Processed)
		}
	}
	gaveUp := stk.gaveUp.Load()
	ver.close()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	heapMB := float64(ms.HeapInuse) / (1 << 20)
	closeErr := stk.close()
	if measureErr != nil {
		return result{}, "", measureErr
	}
	if closeErr != nil {
		return result{}, "", fmt.Errorf("teardown: %w", closeErr)
	}
	par := ver.p

	var sb strings.Builder
	line := func(format string, args ...any) { fmt.Fprintf(&sb, format+"\n", args...) }
	refused := stk.nacks.Load() + r.submitErrs.Load()
	// Throughput, CPU and allocations come from the workload's own mode
	// (unthrottled, or paced on wire-paced); alarm latency only from
	// paced rounds. Invalid paced rounds are left out; a run needs a valid
	// round of its own mode to be correct, while an unthrottled workload
	// whose paced rounds were all invalid only lacks its (ungated) latency.
	mainRound := func(rd round) bool { return rd.valid && !rd.warmup && rd.paced == sp.paced }
	untraced := func(rd round) bool { return mainRound(rd) && !rd.traced }
	tracedOnly := func(rd round) bool { return mainRound(rd) && rd.traced }
	count := func(keep func(round) bool) (n int) {
		for _, rd := range rds {
			if keep(rd) {
				n++
			}
		}
		return n
	}
	res := result{
		Correct:   par.wrong == 0 && count(mainRound) > 0 && par.events == r.offered-refused,
		Attempted: r.offered + par.expected + int64(r.migDone+r.migFailed),
		Failed:    refused + par.missing + int64(r.migFailed) + gaveUp,
		Metrics:   metrics{},
	}
	line("parity: %d events replayed, %d alarms expected, %d missing, %d wrong", par.events, par.expected, par.missing, par.wrong)
	if par.firstBad != "" {
		line("parity: first mismatch: %s", par.firstBad)
	}
	line("failures: offered=%d nacked=%d submit_errors=%d alarms_missing=%d/%d alarms_dropped(hub=%d fleet=%d wire=%d) migrations_failed=%d/%d sessions_gave_up=%d",
		r.offered, stk.nacks.Load(), r.submitErrs.Load(), par.missing, par.expected, end.AlarmsDropped, fleetDropped, wireDropped,
		r.migFailed, r.migDone+r.migFailed, gaveUp)
	for i, rd := range rds {
		tag := "untraced"
		if rd.traced {
			tag = "traced"
		}
		if rd.warmup {
			tag = "warmup"
		}
		if rd.paced {
			tag += "/paced"
		} else {
			tag += "/burst"
		}
		lat := sortedInt64(rd.lat)
		desc := fmt.Sprintf("round %d %-15s events=%d served/s=%.0f cpu_us/ev=%.3f allocs/ev=%.4f alarms=%d p50=%.3fms p90=%.3fms",
			i, tag, rd.events, float64(rd.events)/(float64(rd.wallNs)/1e9), float64(rd.cpuNs)/float64(rd.events)/1e3,
			float64(rd.mallocs)/float64(rd.events), len(lat), float64(percentile(lat, 0.5))/1e6, float64(percentile(lat, 0.9))/1e6)
		if rd.paced {
			desc += fmt.Sprintf(" late_p99=%.1fus", float64(rd.lateP99)/1e3)
		}
		if !rd.valid {
			desc += " INVALID: " + rd.invalidWhy
		}
		line("%s", desc)
	}

	served := func(rd round) float64 { return float64(rd.events) / (float64(rd.wallNs) / 1e9) }
	cpuPer := func(rd round) float64 { return float64(rd.cpuNs) / float64(rd.events) / 1e3 }
	// Alarm latency, from the untraced paced rounds: the median of each
	// round's percentile, and every sample pooled.
	latUntraced := func(rd round) bool { return rd.valid && !rd.warmup && rd.paced && !rd.traced }
	latQ := func(q float64) float64 {
		return median(perRound(rds, latUntraced, func(rd round) float64 {
			return float64(percentile(sortedInt64(rd.lat), q)) / 1e6
		}))
	}
	var all []int64
	for _, rd := range rds {
		if latUntraced(rd) {
			all = append(all, rd.lat...)
		}
	}
	all = sortedInt64(all)
	if count(func(rd round) bool { return !rd.warmup && rd.paced }) > 0 {
		if len(all) == 0 {
			line("alarm latency: no valid untraced paced round; the latency figures read 0")
		}
		line("alarm latency (untraced paced rounds): median of round p50 %.3fms, p90 %.3fms; pooled samples=%d p50=%.3fms p90=%.3fms p99=%.3fms max=%.3fms",
			latQ(0.5), latQ(0.9), len(all), float64(percentile(all, 0.5))/1e6, float64(percentile(all, 0.9))/1e6,
			float64(percentile(all, 0.99))/1e6, float64(percentile(all, 1))/1e6)
	}
	if !o.trace {
		m := res.Metrics
		m.set("setup_s", median(setups), "s")
		m.set("served_events_per_s", median(perRound(rds, mainRound, served)), "1/s")
		m.set("cpu_us_per_event", median(perRound(rds, mainRound, cpuPer)), "us")
		m.set("allocs_per_event", median(perRound(rds, mainRound, func(rd round) float64 { return float64(rd.mallocs) / float64(rd.events) })), "count")
		m.set("heap_mb", heapMB, "MB")
		line("setup_s reps: %v", setups)
		return res, sb.String(), nil
	}

	// Traced run: per-layer metrics from the traced rounds, the untraced
	// rounds of the same process as the overhead baseline.
	m := res.Metrics
	// Alarm latency is recorded here, ungated: across seeds on a shared
	// 2-vCPU VM its run-to-run spread exceeds any bound the benchmark may
	// set (see README.md).
	m.set("alarm_p50_ms", latQ(0.5), "ms")
	m.set("alarm_p90_ms", latQ(0.9), "ms")
	m.set("preprocess.process_s", float64(layers.preprocessNs)/1e9, "s")
	m.set("pc.mine_s", float64(layers.mineNs)/1e9, "s")
	m.set("monitor.threshold_s", float64(layers.thresholdNs)/1e9, "s")
	m.set("causaliot.train_s", median(trains), "s")
	m.set("host.register_ms", median(registers), "ms")
	// Latency layers decompose alarm latency, so they come from the paced
	// rounds; throughput layers from the workload's own rounds.
	us := func(name string, q float64) float64 {
		return float64(percentile(sortedInt64(rec.take(name, true)), q)) / 1e3
	}
	submits := rec.take("host.submit_ns", sp.paced)
	m.set("wire.open_ms", meanOf(rec.take("wire.open_ns", false))/1e6, "ms")
	var sendNs, sendEvents, sent, windowFull int64
	for _, p := range stk.prods {
		sendNs += p.sendNs
		sendEvents += p.sendEvents
		sent += p.sent
		windowFull += p.windowFull
	}
	m.set("wire.send_ns", ratio(float64(sendNs), float64(sendEvents)), "ns")
	m.set("wire.window_full_frac", ratio(float64(windowFull), float64(sent)), "ratio")
	m.set("wire.bytes_per_event", ratio(float64(stk.wireBytes.Load()), float64(r.offered)), "B")
	m.set("wire.parse_ns", parseNs(homes[0]), "ns")
	m.set("wire.ingress_us_p50", us("wire.ingress_ns", 0.5), "us")
	m.set("wire.ingress_us_p90", us("wire.ingress_ns", 0.9), "us")
	m.set("host.submit_ns_mean", meanOf(submits), "ns")
	m.set("host.submit_ns_p99", float64(percentile(sortedInt64(submits), 0.99)), "ns")
	m.set("host.detect_us_p50", us("host.detect_ns", 0.5), "us")
	m.set("host.detect_us_p90", us("host.detect_ns", 0.9), "us")
	m.set("wire.egress_us_p50", us("wire.egress_ns", 0.5), "us")
	m.set("wire.egress_us_p90", us("wire.egress_ns", 0.9), "us")
	m.set("hub.service_us_p50", float64(r.service.P50)/1e3, "us")
	m.set("hub.service_us_p99", float64(r.service.P99)/1e3, "us")
	var depths []int64
	for _, rd := range rds {
		if mainRound(rd) {
			for _, d := range rd.depth {
				depths = append(depths, int64(d))
			}
		}
	}
	m.set("hub.queue_depth_mean", meanOf(depths), "count")
	m.set("hub.queue_depth_max", float64(percentile(sortedInt64(depths), 1)), "count")
	m.set("hub.grouped_drains_per_kevent", ratio(float64(end.GroupedDrains)*1000, float64(r.offered)), "count")
	m.set("monitor.observe_ns", ratio(float64(par.observeNs), float64(par.events)), "ns")
	m.set("monitor.allocs_per_event", ratio(float64(par.mallocs), float64(par.events)), "count")
	mig := sortedInt64(r.migWall)
	m.set("fleet.migrate_ms_p50", float64(percentile(mig, 0.5))/1e6, "ms")
	m.set("fleet.migrate_ms_max", float64(percentile(mig, 1))/1e6, "ms")
	m.set("cluster.envelope_kb_per_migration", ratio(float64(envIn1-envIn0+envOut1-envOut0)/1024, float64(r.migDone)), "KB")
	m.set("cluster.pending_max", float64(r.pendMax), "count")
	m.set("cluster.retransmits", float64(r.retxEnd-r.retxStart), "count")
	m.set("cluster.shard_skew", skew(workerProcessed), "ratio")
	m.set("runtime.gc_cpu_frac", ms.GCCPUFraction, "ratio")
	m.set("gen.late_us_p99", median(perRound(rds, func(rd round) bool { return !rd.warmup && rd.paced }, func(rd round) float64 { return float64(rd.lateP99) / 1e3 })), "us")
	tracedServed := median(perRound(rds, tracedOnly, served))
	untracedServed := median(perRound(rds, untraced, served))
	m.set("trace.overhead_frac", 1-ratio(tracedServed, untracedServed), "ratio")

	line("train layers: preprocess %.3fs + mine %.3fs + threshold %.3fs; causaliot.Train %.3fs (remainder: compile/fingerprint %.3fs)",
		float64(layers.preprocessNs)/1e9, float64(layers.mineNs)/1e9, float64(layers.thresholdNs)/1e9, median(trains),
		median(trains)-float64(layers.preprocessNs+layers.mineNs+layers.thresholdNs)/1e9)
	cpuTraced := median(perRound(rds, tracedOnly, cpuPer)) * 1e3
	alarmsPerEvent := ratio(float64(par.expected), float64(par.events))
	var rows []budgetRow
	if sp.conns > 0 {
		rows = append(rows,
			budgetRow{"wire.send_ns", m["wire.send_ns"].Value, "producer wall time in Send+Flush"},
			budgetRow{"wire.parse_ns", m["wire.parse_ns"].Value, "standalone ParseEvent over this traffic"})
	}
	rows = append(rows,
		budgetRow{"host.submit_ns_mean", m["host.submit_ns_mean"].Value, "wall time inside Host.Submit (route, enqueue, Block waits)"},
		budgetRow{"hub.service (p50)", m["hub.service_us_p50"].Value * 1e3, "per-event observe time the hub reports"})
	if sp.conns > 0 {
		rows = append(rows, budgetRow{"wire.egress (p50/event)", m["wire.egress_us_p50"].Value * 1e3 * alarmsPerEvent, "sink → producer OnAlarm (paced rounds), × alarms per event"})
	}
	printBudget(&sb, o.workload, cpuTraced, rows)
	if err := rec.writeSpans(filepath.Join(outDir, "spans-"+o.workload+".jsonl")); err != nil {
		line("spans: write failed: %v", err)
	} else {
		line("spans: %d kept, %d over the cap, written to %s", len(rec.spans), rec.lost, filepath.Join(outDir, "spans-"+o.workload+".jsonl"))
	}
	return res, sb.String(), nil
}

func envelopeBytes(stk *stack) (in, out uint64) {
	for _, sh := range stk.fleet.FleetStats().Shards {
		in += sh.Health.EnvelopeBytesIn
		out += sh.Health.EnvelopeBytesOut
	}
	return in, out
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func meanOf(v []int64) float64 {
	if len(v) == 0 {
		return 0
	}
	var s float64
	for _, x := range v {
		s += float64(x)
	}
	return s / float64(len(v))
}

// skew is max/min events processed across the cluster workers.
func skew(processed []uint64) float64 {
	if len(processed) == 0 {
		return 0
	}
	lo, hi := processed[0], processed[0]
	for _, p := range processed {
		lo, hi = min(lo, p), max(hi, p)
	}
	return ratio(float64(hi), float64(max(lo, 1)))
}

// parseNs times wire.ParseEvent standalone over the frames of the first
// events one home was sent: the median of five passes.
func parseNs(h *home) float64 {
	n := uint64(1 << 16)
	if h.next-1 < n {
		n = h.next - 1
	}
	if n == 0 {
		return 0
	}
	var frames []byte
	var offs []int
	for seq := uint64(1); seq <= n; seq++ {
		offs = append(offs, len(frames))
		var err error
		if frames, err = wire.AppendEvent(frames, wireEvent(h, seq)); err != nil {
			return 0
		}
	}
	offs = append(offs, len(frames))
	var passes []float64
	for pass := 0; pass < 5; pass++ {
		t0 := time.Now()
		for i := 0; i < len(offs)-1; i++ {
			// Each frame is a 4-byte length and a 1-byte type before
			// the payload ParseEvent decodes.
			if _, err := wire.ParseEvent(frames[offs[i]+5 : offs[i+1]]); err != nil {
				return 0
			}
		}
		passes = append(passes, float64(time.Since(t0).Nanoseconds())/float64(n))
	}
	return median(passes)
}
