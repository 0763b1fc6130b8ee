# Convenience targets; everything is plain `go` underneath (stdlib only).

.PHONY: all build test vet race check wsbench-check loc fmt-check golden bench bench-fanout bench-log bench-dest bench-pipeline bench-gate bench-smoke load-smoke metrics-race metrics-smoke cover fuzz-smoke crash-smoke interop-smoke ci comparison examples outputs goldens clean

all: check

build:
	go build ./...

test:
	go test ./...

vet:
	go vet ./...

race:
	go test -race ./...

# Full pre-merge gate: compile, vet, tests, and the race detector over
# the concurrency-heavy packages, including the standalone spec endpoints
# that publish through the dispatch engine and the XPath evaluator every
# dispatch worker shares compiled filters of (the full -race sweep stays
# in `race`).
check: build vet test
	go test -race ./internal/dispatch ./internal/core ./internal/obs ./internal/cloudevents ./internal/wspush ./internal/destwriter ./internal/mqtt ./internal/wse ./internal/wsnt ./internal/wsen ./internal/wsbrk ./internal/xpath ./internal/filter

# The end-to-end benchmark lives in its own nested module (cmd/wsbench),
# which root `go build ./...` and `go test ./...` cannot see — yet it
# compiles against internal/dispatch, destwriter, mediation and transport.
# Vet and test it from inside, so a change to those packages cannot break
# the benchmark unnoticed.
wsbench-check:
	cd cmd/wsbench && go vet ./... && go test ./...

# Non-test line counts of the three packages whose size ROADMAP aim 2
# tracks as an outcome, plus the three spec packages that own the
# subscribe and management vocabulary core no longer carries and now
# deliver through the shared engine, and mediation, which lifts either
# family's subscribe into the broker's canonical one (so lines moved out of
# core cannot quietly regrow there), each against its ceiling — the count
# the last change that shrank it left behind. A package past its ceiling
# fails; a change that shrinks one lowers the number here.
LOC_CEILINGS = core:3330 dispatch:2071 destwriter:679 wse:1285 wsnt:1811 wsen:796 mediation:987
loc:
	@fail=0; for pc in $(LOC_CEILINGS); do p=$${pc%%:*}; max=$${pc##*:}; \
		n=$$(ls internal/$$p/*.go | grep -v _test | xargs cat | wc -l); \
		printf 'internal/%-11s %5d  (ceiling %d)\n' $$p $$n $$max; \
		if [ $$n -gt $$max ]; then echo "internal/$$p is past its ceiling"; fail=1; fi; \
	done; exit $$fail

# Fail when any file needs gofmt; print the offenders.
fmt-check:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then \
		echo "gofmt required on:"; echo "$$out"; exit 1; fi

# Wire-format golden probes only (the lint job's fast regression gate).
golden:
	go test ./internal/probes -run Golden

bench:
	go test -bench=. -benchmem ./...

# Render-once fan-out smoke (B13): one pass over the cached/uncached arms,
# with the in-benchmark conservation checks (delivered counts, identical
# wire bytes across arms) acting as the assertions. BENCH_COUNT repeats
# each benchmark and BENCHTIME sets iterations per repeat; the gate runs
# 5 repeats of 30 iterations and takes best-of-N to shed scheduler noise
# (on small shared runners a single co-tenant burst can double one
# repeat, so three repeats proved too few for the µs-scale arms).
BENCH_COUNT ?= 1
BENCHTIME ?= 1x

bench-fanout:
	go test -run '^$$' -bench BenchmarkRenderCacheFanout -benchtime=$(BENCHTIME) -count=$(BENCH_COUNT) .

# Event-log throughput (B15): the durable-ack price list — append under
# off/async/batch durability, plus the cursor replay path.
bench-log:
	go test -run '^$$' -bench BenchmarkEventLog -benchmem -count=$(BENCH_COUNT) .

# Per-destination batching fan-out (B16): batched vs per-subscriber arms
# over real loopback HTTP hosts with per-request destination latency. The
# in-benchmark conservation and wire-count checks are the assertions;
# scale with WSM_BENCH_SUBS / WSM_BENCH_HOSTS / WSM_BENCH_PUBLISHES.
bench-dest:
	go test -run '^$$' -bench BenchmarkDestBatchFanout -benchtime=1x -benchmem .

# Adaptive pipelining fan-out (B17): serial vs fixed vs adaptive in-flight
# windows per destination host, against slow / fast / flaky loopback hosts.
# Conservation and receiver-side per-subscriber ordering are asserted
# inside every arm; scale with WSM_B17_SUBS / WSM_B17_HOSTS /
# WSM_B17_PUBLISHES / WSM_B17_WORKERS / WSM_B17_SLOWLAT_US.
bench-pipeline:
	go test -run '^$$' -bench BenchmarkPipelinedFanout -benchtime=1x -benchmem .

# Blocking benchmark ratchet: rerun the four gated benchmarks (B13
# fan-out, B15 event log, B16 dest batching, B17 pipelining), convert with
# cmd/benchjson, and fail if any gated figure regresses more than
# BENCH_TOLERANCE percent against the checked-in bench_baseline.json — or
# silently stops running.
# The baseline records the stable macro figures (best-of-N): every B13
# arm, B15's fsync-bound arms (append/batch, batch-parallel, replay —
# the sub-10µs page-cache arms drift ±30% on shared hardware and are
# reported but not gated), both B16 arms, and B17's latency-dominated
# slow-host arms (the fast/flaky arms are CPU- and retry-timing-bound and
# stay informational). Regenerate it by running these four targets with
# the same BENCH_COUNT/BENCHTIME through
# `go run ./cmd/benchjson -o bench_baseline.json` and pruning to that set.
BENCH_TOLERANCE ?= 25

# The whole measurement+compare cycle retries up to BENCH_GATE_TRIES
# times: on small shared runners a co-tenant burst can outlast all five
# repeats of a µs-scale arm, and only a fresh cycle lands in a quiet
# window. A real regression is deterministic under best-of-5 and fails
# every attempt; noise is not, and passes one of them.
BENCH_GATE_TRIES ?= 3

bench-gate:
	@n=1; while :; do \
		echo "bench-gate: attempt $$n/$(BENCH_GATE_TRIES)"; \
		$(MAKE) bench-fanout BENCH_COUNT=5 BENCHTIME=30x > bench_gate.txt; \
		$(MAKE) bench-log BENCH_COUNT=5 >> bench_gate.txt; \
		$(MAKE) bench-dest >> bench_gate.txt; \
		$(MAKE) bench-pipeline >> bench_gate.txt; \
		if go run ./cmd/benchjson -gate bench_baseline.json -tolerance $(BENCH_TOLERANCE) < bench_gate.txt; then break; fi; \
		[ $$n -lt $(BENCH_GATE_TRIES) ] || { echo "bench-gate: regression persisted over $(BENCH_GATE_TRIES) attempts"; exit 1; }; \
		n=$$((n+1)); sleep 5; \
	done

# Blocking load smoke: a shrunken 10k-subscriber synthetic fan-out under
# the race detector, with the dispatch conservation law and receiver-side
# wire counts asserted at exit.
LOAD_SUBS ?= 10000
LOAD_HOSTS ?= 50
LOAD_PUBLISHES ?= 20

load-smoke:
	WSM_LOAD_SUBS=$(LOAD_SUBS) WSM_LOAD_HOSTS=$(LOAD_HOSTS) WSM_LOAD_PUBLISHES=$(LOAD_PUBLISHES) \
		go test -race -run '^TestLoadSmoke$$' -count=1 -timeout 600s ./internal/workload/load

# Non-blocking CI smoke: run every benchmark once so bench code cannot
# bit-rot, and publish a machine-readable BENCH_*.json baseline.
bench-smoke:
	go test -bench=. -benchtime=1x ./... > bench_smoke.txt
	go run ./cmd/benchjson -o BENCH_ci.json < bench_smoke.txt

# Race the metric-bearing packages: the scrape path (CounterFunc/GaugeFunc
# closures) runs concurrently with dispatch, so these three must stay clean
# under the detector.
metrics-race:
	go test -race ./internal/obs ./internal/dispatch ./internal/core ./internal/cloudevents ./internal/wspush ./internal/destwriter ./internal/mqtt

# End-to-end observability smoke: boot the real broker binary, poll until
# /metrics answers, require the core series and a healthy /healthz, then
# shut it down. Everything runs in one shell so the trap reliably reaps
# the background broker.
METRICS_SMOKE_ADDR ?= 127.0.0.1:18891

metrics-smoke:
	go build -o wsmessenger-smoke ./cmd/wsmessenger
	@set -e; ./wsmessenger-smoke -listen $(METRICS_SMOKE_ADDR) & pid=$$!; \
	trap 'kill $$pid 2>/dev/null; rm -f wsmessenger-smoke metrics_smoke.txt' EXIT; \
	ok=0; i=0; while [ $$i -lt 50 ]; do \
		if curl -fsS "http://$(METRICS_SMOKE_ADDR)/metrics" -o metrics_smoke.txt 2>/dev/null; then ok=1; break; fi; \
		i=$$((i+1)); sleep 0.1; done; \
	[ $$ok -eq 1 ] || { echo "metrics-smoke: /metrics never answered"; exit 1; }; \
	for series in wsm_published_total wsm_delivered_total wsm_subscribers wsm_dlq_depth wsm_breakers_open wsm_stage_seconds_bucket wsm_render_cache_hits_total wsm_dest_envelopes_total wsm_dest_active_writers wsm_dest_inflight wsm_dest_window wsm_dispatch_workers wsm_mqtt_connections wsm_mqtt_subscriptions; do \
		grep -q "$$series" metrics_smoke.txt || { echo "metrics-smoke: /metrics lacks $$series"; exit 1; }; done; \
	code=$$(curl -s -o /dev/null -w '%{http_code}' "http://$(METRICS_SMOKE_ADDR)/healthz"); \
	[ "$$code" = "200" ] || { echo "metrics-smoke: /healthz returned $$code, want 200"; exit 1; }; \
	echo "metrics-smoke: OK"

# Coverage gate with a ratcheted floor: the suite currently sits at ~84%
# of statements; the floor trails it by a small margin so genuine coverage
# regressions fail CI while flaky fractions of a percent do not. Raise the
# floor (never lower it) as coverage grows.
COVER_FLOOR ?= 82.0

cover:
	go test -count=1 -coverprofile=coverage.out ./...
	@total=$$(go tool cover -func=coverage.out | tail -1 | awk '{print $$3}' | tr -d '%'); \
	echo "cover: total $$total% of statements (floor $(COVER_FLOOR)%)"; \
	awk -v t="$$total" -v f="$(COVER_FLOOR)" 'BEGIN { exit (t+0 >= f+0) ? 0 : 1 }' || \
		{ echo "cover: coverage fell below the floor"; exit 1; }

# Fuzz smoke: run each native fuzz target for a bounded wall-clock slice
# over its checked-in corpus plus fresh mutations. `go test` accepts one
# -fuzz per invocation, so each target gets its own run.
FUZZTIME ?= 30s

fuzz-smoke:
	go test ./internal/xmldom -run '^$$' -fuzz '^FuzzParse$$' -fuzztime $(FUZZTIME)
	go test ./internal/wsa -run '^$$' -fuzz '^FuzzEPRRoundTrip$$' -fuzztime $(FUZZTIME)
	go test ./internal/eventlog -run '^$$' -fuzz '^FuzzDecodeRecord$$' -fuzztime $(FUZZTIME)
	go test ./internal/mqtt -run '^$$' -fuzz '^FuzzDecodePacket$$' -fuzztime $(FUZZTIME)

# Kill -9 chaos gate (blocking): SIGKILL a publishing broker child process
# mid-storm, restart it on the same data dir, repeat CRASH_CYCLES times
# under the race detector — no acknowledged publish may be lost, and the
# final cursor replay must be exactly-once and in order.
CRASH_CYCLES ?= 20

crash-smoke:
	WSM_CRASH_CYCLES=$(CRASH_CYCLES) go test ./internal/core -run '^TestKill9AckedPublishesSurvive$$' -count=1 -race

# Blocking front-door interop smoke, all four doors: WSE SOAP publish →
# CloudEvents HTTP consumer + WebSocket consumer + MQTT QoS 1 consumer,
# CloudEvents POST and MQTT QoS 1 PUBLISH → WSN 1.3 SOAP sink, identity,
# conservation law and wsm_ce_*/wsm_ws_*/wsm_mqtt_* metrics asserted,
# under -race, plus the packet-level MQTT QoS conformance matrix.
interop-smoke:
	go test -race -run '^TestFrontDoorInterop$$|^TestMQTTQoSConformanceMatrix$$' -count=1 ./internal/core

# Mirror of .github/workflows/ci.yml: the blocking jobs (check,
# wsbench-check, fmt-check, golden, metrics-race, metrics-smoke, cover,
# crash-smoke, bench-gate, load-smoke, interop-smoke) then the non-blocking
# bench and fuzz smokes (their failure is reported but does not fail
# `make ci`).
ci: check wsbench-check fmt-check loc golden metrics-race metrics-smoke cover crash-smoke bench-gate load-smoke interop-smoke
	-$(MAKE) bench-smoke
	-$(MAKE) fuzz-smoke

# Regenerate the paper's tables and figures with probe verification.
comparison:
	go run ./cmd/comparison -verify
	go run ./cmd/comparison -extension -verify

examples:
	go run ./examples/quickstart
	go run ./examples/mediation
	go run ./examples/gridmonitor
	go run ./examples/legacybridge
	go run ./examples/evolution

# Refresh the committed run transcripts.
outputs:
	go test ./... 2>&1 | tee test_output.txt
	go test -bench=. -benchmem ./... 2>&1 | tee bench_output.txt

# Refresh the golden wire-format files after an intentional format change.
goldens:
	go test ./internal/probes -run Golden -update

clean:
	go clean ./...
