# Test tiers. tier1 is the seed gate (must always stay green); tier2
# adds static analysis — go vet plus the domain lint suite (aiglint:
# AIG-literal discipline, emission determinism, dropped errors, metric
# names, ResponseWriter write errors, fault-point naming, and the
# concurrency-safety layer: lockheld, ctxflow, golifecycle, atomicmix)
# — and the race detector over the concurrency-safe telemetry
# layer and everything it instruments, including the fault-tolerance
# suite (checkpoint/resume byte-identity, panic quarantine, equivalence
# guards) in internal/harness. The packages whose workers, caches and
# shared gate structures build a spec's variants concurrently run again
# at one worker and at four (-cpu 1,4), so both the serial and the
# parallel path are raced.

.PHONY: tier1 tier2 lint size bench fuzz chaos serve smoke experiments

tier1:
	go build ./... && go test ./...

tier2:
	go vet ./... && go run ./cmd/aiglint ./... && go test -race ./...
	go test -race -cpu 1,4 ./internal/harness ./internal/opt ./internal/synth ./internal/tt

# lint runs only the domain analyzers, verbosely (finding counts,
# suppression counts, and per-analyzer timings — the ten analyzers run
# concurrently over one shared go/types load, so the whole module
# checks in seconds). Findings exit nonzero with file:line positions.
# Machine consumers (CI annotations) use `aiglint -json` instead.
lint:
	go run ./cmd/aiglint -v ./...

# size prints the two numbers ROADMAP tracks under Size: non-test Go
# lines outside perfbench/ and testdata/, and the aiglint findings that
# //lint:ignore directives suppress. A lint run that fails prints its
# findings and fails the target.
size:
	@echo "non-test Go lines: $$(git ls-files '*.go' ':!perfbench/**' ':!**/testdata/**' ':!*_test.go' | xargs cat | wc -l)"
	@out=$$(go run ./cmd/aiglint -json ./...) || { printf '%s\n' "$$out"; exit 1; }; \
	echo "suppressed lint findings: $$(printf '%s\n' "$$out" | grep -c '"suppressed":true')"

# serve runs the diversity-as-a-service daemon (see README "Serving").
# Override the listen address with AIGD_ADDR=:9000.
AIGD_ADDR ?= :8347

serve:
	go run ./cmd/aigd -addr $(AIGD_ADDR)

# smoke runs the four serving smokes CI runs, each against real daemons
# on localhost (needs curl and jq): aigd tracing and drain, sketch
# retrieval through aigw, 3-node cluster failover, and a rolling
# restart through drain, stop and rejoin. See scripts/smoke.sh.
smoke:
	scripts/smoke.sh aigd
	scripts/smoke.sh sketch
	scripts/smoke.sh cluster
	scripts/smoke.sh rolling_restart

# fuzz hammers the AIGER parser, the aigd request decoders, the
# optimization passes, two-level minimization and factoring, XAG/MIG
# cone rewriting and the dense eigensolver with coverage-guided random
# inputs: parse-or-error (never panic), round trips, every pass and flow
# returning a valid AIG equivalent to its input, covers and factored
# forms of tables of 1 to 10 variables realizing them and equal to the
# map-based oracles', AIG imports into XAGs and MIGs staying valid and
# equivalent through a rewriting pass, and the adjacency spectra of
# graphs of up to 300 nodes summing to 0 with squares summing to twice
# the edge count (and matching the Jacobi oracle up to 48 nodes).
# Override the budget with FUZZTIME=1m.
FUZZTIME ?= 10s

fuzz:
	go test -run '^$$' -fuzz '^FuzzRead$$' -fuzztime $(FUZZTIME) ./internal/aiger
	go test -run '^$$' -fuzz '^FuzzHandlers$$' -fuzztime $(FUZZTIME) ./internal/service
	go test -run '^$$' -fuzz '^FuzzOptimize$$' -fuzztime $(FUZZTIME) ./internal/opt
	go test -run '^$$' -fuzz '^FuzzFactor$$' -fuzztime $(FUZZTIME) ./internal/sop
	go test -run '^$$' -fuzz '^FuzzRewrite$$' -fuzztime $(FUZZTIME) ./internal/gatenet
	go test -run '^$$' -fuzz '^FuzzSpectrum$$' -fuzztime $(FUZZTIME) ./internal/graph

# chaos runs the deterministic fault-injection suite under the race
# detector: the faultinject registry's own tests, the client and
# cluster suites (partition mid-request, torn fill replies, replication
# killed mid-fan-out, eviction/re-admission), plus every TestChaos*
# scenario (atomic-write fault matrix, torn-checkpoint resume
# byte-identity, spill degradation, restart recovery sweeps, idempotent
# retry accounting). See README "Fault injection & chaos testing".
chaos:
	go test -race ./internal/faultinject ./internal/service/client ./internal/cluster
	go test -race -run '^TestChaos' ./internal/harness ./internal/service

# experiments regenerates the paper-scale artifacts with the commands
# EXPERIMENTS.md names — Tables I and II with their pair CSV and
# progress log (98 specs of at most 10 inputs, 2,058 pairs, three
# flows), Figure 2, and the early-stop example — from the repository
# root with relative paths, so every file is byte-stable. CI runs it and
# then `git diff --exit-code`: a change to any paper number shows up as
# a diff of the committed files.
experiments:
	go run ./cmd/repro -v -all -csv results_pairs.csv >results_tables.txt 2>results_progress.log
	go run ./cmd/repro -figure 2 >results_figure2.txt
	go run ./examples/earlystop >results_earlystop.txt

# bench runs every benchmark once; the pipeline benchmarks report a
# telemetry-derived per-stage breakdown (synthesis/profiling/
# optimization/metrics seconds per op) alongside ns/op. Repeated,
# host-recorded pipeline measurements come from perfbench/run.py.
# The recall contract test runs alongside so its deterministic
# recall-vs-cost numbers are snapshotted into BENCH_sketch.json.
bench:
	BENCH_SKETCH_JSON=BENCH_sketch.json \
		go test -run '^TestSketchRecallContract$$' -bench . -benchtime 1x .
