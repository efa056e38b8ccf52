# Tier-1 is the seed verification contract; vet and the race tier add
# static analysis and the race detector so every PR exercises the
# concurrent serving hub under -race; the chaos tier replays the seeded
# fault schedules (panics, injected errors, wedged processors, kill/resume)
# against the supervised hub. `make check` runs all of them.

GO ?= go

.PHONY: tier1 vet race chaos netchaos fleet-soak serve-smoke cluster-smoke fuzz check bench-smoke bench-paper serve-demo perfbench perfbench-pairs loc

tier1:
	$(GO) build ./... && $(GO) test ./...

# staticcheck is optional tooling: run it when installed, otherwise fall
# back to go vet's analyzers only (never fail the build over a missing
# binary). The gofmt step checks tracked files only (git ls-files), so the
# untracked source copies under .bench_build/ never fail it; it fails when
# the list is empty (no git checkout) or gofmt itself errors. perfbench is
# its own module, so `go vet ./...` never reaches it; it is vetted on its
# own, which also compiles it against this checkout's API.
vet:
	$(GO) vet ./...
	cd perfbench && $(GO) vet ./...
	@files=$$(git ls-files '*.go'); \
	if [ -z "$$files" ]; then echo "gofmt: git ls-files lists no Go files"; exit 1; fi; \
	unformatted=$$(gofmt -l $$files) || exit 1; \
	if [ -n "$$unformatted" ]; then \
		echo "gofmt -l lists unformatted files:"; echo "$$unformatted"; exit 1; \
	fi
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./... ; \
	else \
		echo "staticcheck not installed; skipped" ; \
	fi

race:
	$(GO) test -race ./...

# Chaos tier: deterministic fault-schedule tests (internal/faults driving
# the supervised hub), the checkpoint kill/resume equivalence tests, the
# model-lifecycle swap/drift stress and soak tests, the fleet
# router/migration suite, and the wire-protocol server tests, all under the
# race detector.
chaos: fleet-soak serve-smoke cluster-smoke netchaos
	$(GO) test -race -run 'Chaos|Checkpoint|Quarantine|Wedged|Panic|CloseRace|Stress|SIGTERM|Adaptive|Soak|Fleet|Migrat|Router|Ring|Wire|Server|Session|Stream' \
		./internal/hub ./internal/faults ./internal/fleet ./internal/wire ./cmd/causaliot .

# Network-chaos tier: the seeded TCP fault proxy (internal/netchaos) driving
# wire sessions through kills, corruptions, trickles, flaps, and partitions.
# The root-level soaks are gated behind CAUSALIOT_NETCHAOS=1 so plain
# `go test ./...` (tier-1) keeps its wall-clock budget; this target sets the
# gate and runs them under -race, with the proxy's own unit tests.
netchaos:
	CAUSALIOT_NETCHAOS=1 $(GO) test -race -run 'TestNetchaos' -v .
	$(GO) test -race ./internal/netchaos

# Fleet rebalance soak: an N-shard fleet with a mid-stream shard add
# (rebalance) and an explicit live migration must land bit-identical to a
# single hub on the same trace — alarms, scores, checkpoint state — with
# zero dropped or duplicated events. Runs under -race.
fleet-soak:
	$(GO) test -race -run 'TestFleetRebalanceSoak' -v .

# Wire-serving smoke: boots the full TCP stack in-process (loadgen against
# a self-served fleet) and checks the end-to-end accounting — every frame
# accepted or NACKed, every alarm pushed or counted as dropped. Runs under
# -race.
serve-smoke:
	$(GO) test -race -run 'TestServeSmoke' -v ./cmd/loadgen

# Cluster smoke: the multi-process serving path under -race — the remote
# shard proxy/worker suite, the facade differential tests (cluster router
# vs single hub, byte-identical exports, the sentinel mapping table), and
# the serve -worker / -cluster CLI end-to-end run (two worker processes
# plus a router, SIGTERM shutdown).
cluster-smoke:
	$(GO) test -race -run 'TestCluster|TestWorker|TestProxy' -v . ./internal/cluster
	$(GO) test -race -run 'TestServeCluster' -v ./cmd/causaliot

# Short fuzz pass over the model and checkpoint deserializers and the wire
# frame decoders (the error-never-panic contract), and over the CI test's
# popcount kernel against the scalar one (bit-identical results); extend
# -fuzztime for a deeper run.
fuzz:
	$(GO) test -fuzz FuzzLoad -fuzztime 10s .
	$(GO) test -fuzz FuzzRestoreMonitor -fuzztime 10s .
	$(GO) test -fuzz FuzzRestoreLifecycle -fuzztime 10s .
	$(GO) test -fuzz FuzzWireFrames -fuzztime 10s ./internal/wire
	$(GO) test -fuzz '^FuzzGSquare$$' -fuzztime 10s ./internal/stats

# Bench bitrot smoke: compile and run every benchmark exactly once (no
# timing) so a refactor can't silently strand a benchmark that no longer
# builds or crashes on its first iteration.
bench-smoke:
	$(GO) test -bench=. -benchtime=1x -run='^$$' ./...

check: tier1 vet race chaos bench-smoke

# Size of the product: non-test Go lines of the tracked files outside
# perfbench/, per top-level directory (files at the root count under "."),
# then the total.
loc:
	@git ls-files '*.go' ':!:*_test.go' ':!:perfbench/' | while read -r f; do \
		d=$${f%%/*}; [ "$$d" = "$$f" ] && d=.; echo "$$d $$(wc -l < "$$f")"; \
	done | awk '{n[$$1] += $$2; t += $$2} \
		END {for (d in n) printf "%-10s %7d\n", d, n[d] | "sort"; close("sort"); printf "%-10s %7d\n", "total", t}'

# One serving-benchmark workload built from this checkout, at the
# benchmark's run length and untraced:
#   make perfbench W=cluster-migrate SEED=101
W ?= cluster-migrate
SEED ?= 1
perfbench:
	bash perfbench/run.sh --workload $(W) --seed $(SEED) --seconds 16 --trace 0

# Alternating pairs of one workload, base revision against this checkout:
#   make perfbench-pairs BASE=<rev> W=cluster-migrate SEEDS="101 102 103"
# BASE is exported with git archive into .bench_build/base-<rev> and built
# there by its own run.sh. The order alternates per seed so neither tree
# always runs first: the base tree first on odd seeds, this checkout first
# on even ones. Each run prints one JSON line: the tree, the seed and the
# run's result line. TRACE=1 adds the per-layer split.
BASE ?= HEAD
SEEDS ?= 1 2 3
TRACE ?= 0
perfbench-pairs:
	@rev=$$(git rev-parse --short $(BASE)) && base=.bench_build/base-$$rev && \
	if [ ! -d $$base ]; then mkdir -p $$base && git archive $$rev | tar -x -C $$base; fi && \
	for seed in $(SEEDS); do \
		trees="$$base ."; \
		if [ $$((seed % 2)) -eq 0 ]; then trees=". $$base"; fi; \
		for tree in $$trees; do \
			res=$$(bash $$tree/perfbench/run.sh --workload $(W) --seed $$seed --seconds 16 --trace $(TRACE) | tail -n 1) || exit 1; \
			name=change; [ $$tree = . ] || name=base-$$rev; \
			echo "{\"tree\":\"$$name\",\"workload\":\"$(W)\",\"seed\":$$seed,\"result\":$$res}"; \
		done; \
	done

# Full paper-reproduction benchmark suite (tables, figures, ablations).
bench-paper:
	$(GO) test -bench=. -benchmem -run='^$$' ./

# End-to-end demo of the serve mode on simulated traffic.
serve-demo:
	$(GO) run ./cmd/causaliot simulate -days 3 -seed 1 -out /tmp/causaliot-train.csv
	$(GO) run ./cmd/causaliot simulate -days 1 -seed 2 -out /tmp/causaliot-stream.csv
	$(GO) run ./cmd/causaliot serve -train /tmp/causaliot-train.csv -stream /tmp/causaliot-stream.csv \
		-tenants 8 -workers 4 -kmax 2
