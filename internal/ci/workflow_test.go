// Package ci pins the continuous-integration pipeline itself: the GitHub
// workflow must stay structurally valid YAML, every `make` target it
// invokes must exist, and the local `make ci` mirror must keep covering
// the workflow's blocking jobs. The checks are deliberately structural
// (stdlib only — no YAML parser) but strict enough that the classes of
// breakage that silently disable CI (tabs, renamed targets, a dropped
// job) fail a plain `go test ./...`.
package ci

import (
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

func repoRoot(t *testing.T) string {
	t.Helper()
	dir, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			t.Fatal("go.mod not found above working directory")
		}
		dir = parent
	}
}

func readWorkflow(t *testing.T) (string, []string) {
	t.Helper()
	path := filepath.Join(repoRoot(t), ".github", "workflows", "ci.yml")
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("workflow missing: %v", err)
	}
	text := string(raw)
	return text, strings.Split(strings.TrimRight(text, "\n"), "\n")
}

// TestWorkflowYAMLStructure rejects the YAML mistakes GitHub rejects:
// tab indentation, odd indent widths, and indent jumps deeper than one
// level at a time.
func TestWorkflowYAMLStructure(t *testing.T) {
	_, lines := readWorkflow(t)
	prevIndent := 0
	for i, line := range lines {
		n := i + 1
		if strings.TrimSpace(line) == "" || strings.HasPrefix(strings.TrimSpace(line), "#") {
			continue
		}
		if strings.Contains(line, "\t") {
			t.Errorf("line %d: tab character (YAML forbids tab indentation)", n)
		}
		indent := len(line) - len(strings.TrimLeft(line, " "))
		if indent%2 != 0 {
			t.Errorf("line %d: indent %d is not a multiple of 2", n, indent)
		}
		if indent > prevIndent+2 {
			t.Errorf("line %d: indent jumps from %d to %d", n, prevIndent, indent)
		}
		// A list item's keys may sit two deeper than the dash introduces.
		if strings.HasPrefix(strings.TrimSpace(line), "- ") {
			indent += 2
		}
		prevIndent = indent
	}
}

// TestWorkflowRequiredShape pins the jobs and settings the PR gate
// depends on.
func TestWorkflowRequiredShape(t *testing.T) {
	text, _ := readWorkflow(t)
	for _, want := range []string{
		"on:",
		"push:",
		"pull_request:",
		"jobs:",
		"  check:",
		"  wsbench-check:",
		"  lint:",
		"  metrics:",
		"  cover:",
		"  crash-smoke:",
		"  bench-gate:",
		"  load-smoke:",
		"  interop-smoke:",
		"  fuzz-smoke:",
		"  bench-smoke:",
		"uses: actions/checkout@",
		"uses: actions/setup-go@",
		"go-version-file: go.mod",
		"cache: true",             // module/build caching on every job
		"run: make check",         // the tier-1 gate
		"run: make wsbench-check", // the nested cmd/wsbench module, invisible to ./...
		"run: make fmt-check",     // gofmt -l, fail on diff
		"run: make loc",           // non-test line ceilings of core/dispatch/destwriter/wse/wsnt
		"run: make golden",        // wire-format golden probes
		"run: make metrics-race",  // -race over obs/dispatch/core
		"run: make metrics-smoke", // live /metrics + /healthz scrape
		"run: make cover",         // coverage with ratcheted floor
		"run: make crash-smoke",   // kill -9 durable-ack gate
		"run: make bench-gate",    // B13/B15/B16 ratchet vs bench_baseline.json
		"run: make load-smoke",    // 10k-subscriber -race fan-out with conservation
		"run: make interop-smoke", // SOAP ↔ CloudEvents ↔ WebSocket front doors
		"run: make fuzz-smoke",    // bounded fuzz over checked-in corpora
		"run: make bench-smoke",
		"run: make bench-fanout", // render-once fan-out smoke (B13)
		"uses: actions/upload-artifact@",
		"path: BENCH_ci.json",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("workflow lacks %q", want)
		}
	}
	// The smoke jobs must be non-blocking: continue-on-error inside each
	// job body (the fuzz check is bounded by the bench job's position so a
	// single continue-on-error cannot satisfy both).
	for _, job := range []string{"fuzz-smoke:\n", "bench-smoke:\n"} {
		idx := strings.Index(text, job)
		if idx < 0 {
			t.Errorf("workflow lacks a %s job", strings.TrimSuffix(job, ":\n"))
			continue
		}
		body := text[idx:]
		if next := strings.Index(body[len(job):], "\n  bench-smoke:"); next >= 0 {
			body = body[:len(job)+next]
		}
		if !strings.Contains(body, "continue-on-error: true") {
			t.Errorf("%s job must set continue-on-error: true", strings.TrimSuffix(job, ":\n"))
		}
	}
}

var makeRunRE = regexp.MustCompile(`run:\s*make\s+([A-Za-z0-9_-]+)`)

// makefileTargets parses target names and the `ci` target's prerequisite
// list out of the Makefile.
func makefileTargets(t *testing.T) (targets map[string]bool, ciPrereqs []string) {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join(repoRoot(t), "Makefile"))
	if err != nil {
		t.Fatal(err)
	}
	targets = map[string]bool{}
	targetRE := regexp.MustCompile(`^([A-Za-z0-9_-]+):(.*)$`)
	for _, line := range strings.Split(string(raw), "\n") {
		m := targetRE.FindStringSubmatch(line)
		if m == nil {
			continue
		}
		targets[m[1]] = true
		if m[1] == "ci" {
			ciPrereqs = strings.Fields(m[2])
		}
	}
	return targets, ciPrereqs
}

// TestWorkflowTargetsExist cross-checks every `run: make <target>` line
// against the Makefile so a target rename cannot break CI silently.
func TestWorkflowTargetsExist(t *testing.T) {
	text, _ := readWorkflow(t)
	targets, _ := makefileTargets(t)
	matches := makeRunRE.FindAllStringSubmatch(text, -1)
	if len(matches) == 0 {
		t.Fatal("workflow invokes no make targets")
	}
	for _, m := range matches {
		if !targets[m[1]] {
			t.Errorf("workflow runs `make %s` but the Makefile has no such target", m[1])
		}
	}
}

// TestMakeCIMirrorsWorkflow requires the local `make ci` target to cover
// every blocking make target the workflow runs.
func TestMakeCIMirrorsWorkflow(t *testing.T) {
	targets, prereqs := makefileTargets(t)
	if !targets["ci"] {
		t.Fatal("Makefile lacks a ci target")
	}
	have := map[string]bool{}
	for _, p := range prereqs {
		have[p] = true
	}
	for _, want := range []string{"check", "wsbench-check", "fmt-check", "loc", "golden", "metrics-race", "metrics-smoke", "cover", "crash-smoke", "bench-gate", "load-smoke", "interop-smoke"} {
		if !have[want] {
			t.Errorf("make ci must depend on %q (got %v)", want, prereqs)
		}
	}
}

// TestCIPrereqsRunInWorkflow is the reverse pin: every blocking target
// `make ci` depends on must actually be invoked by the workflow, so the
// local mirror cannot quietly grow stricter (or stay stuck on a job CI
// no longer runs) without the two drifting apart being caught.
func TestCIPrereqsRunInWorkflow(t *testing.T) {
	text, _ := readWorkflow(t)
	_, prereqs := makefileTargets(t)
	if len(prereqs) == 0 {
		t.Fatal("make ci has no prerequisites")
	}
	invoked := map[string]bool{}
	for _, m := range makeRunRE.FindAllStringSubmatch(text, -1) {
		invoked[m[1]] = true
	}
	for _, p := range prereqs {
		if !invoked[p] {
			t.Errorf("make ci depends on %q but the workflow never runs it", p)
		}
	}
}

// TestBlockingJobsHaveNoContinueOnError keeps the new gates blocking: a
// continue-on-error sneaking into the bench-gate or load-smoke job body
// would turn the ratchet advisory, which is exactly the failure mode the
// gate exists to prevent.
func TestBlockingJobsHaveNoContinueOnError(t *testing.T) {
	text, _ := readWorkflow(t)
	jobBody := func(name string) string {
		idx := strings.Index(text, "  "+name+":\n")
		if idx < 0 {
			t.Fatalf("workflow lacks a %s job", name)
		}
		body := text[idx+2:]
		if next := regexp.MustCompile(`\n  [a-z-]+:\n`).FindStringIndex(body); next != nil {
			body = body[:next[0]]
		}
		return body
	}
	for _, job := range []string{"check", "wsbench-check", "lint", "metrics", "cover", "crash-smoke", "bench-gate", "load-smoke", "interop-smoke"} {
		if strings.Contains(jobBody(job), "continue-on-error") {
			t.Errorf("%s job must stay blocking (found continue-on-error)", job)
		}
	}
}

// TestWsbenchCheckTargetPinned keeps the nested benchmark module under
// CI: root `go build ./...` and `go test ./...` stop at cmd/wsbench's own
// go.mod, so the target must enter the directory and both vet and test it.
func TestWsbenchCheckTargetPinned(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join(repoRoot(t), "Makefile"))
	if err != nil {
		t.Fatal(err)
	}
	want := "cd cmd/wsbench && go vet ./... && go test ./..."
	if !strings.Contains(string(raw), want) {
		t.Errorf("Makefile wsbench-check target must run %q", want)
	}
	if _, err := os.Stat(filepath.Join(repoRoot(t), "cmd", "wsbench", "go.mod")); err != nil {
		t.Errorf("cmd/wsbench must stay a nested module: %v", err)
	}
}

// TestLocCeilingsPinned keeps the tracked size outcome from drifting back:
// `make loc` must carry a ceiling for each tracked package and fail past
// it, and the packages must be within their ceilings right now — so plain
// `go test ./...` catches growth even where nobody runs make. The spec
// packages are tracked because they own the subscribe and management
// vocabulary core delegates to them and sit on the shared dispatch engine;
// mediation because it maps either family's subscribe onto the broker's.
func TestLocCeilingsPinned(t *testing.T) {
	root := repoRoot(t)
	raw, err := os.ReadFile(filepath.Join(root, "Makefile"))
	if err != nil {
		t.Fatal(err)
	}
	text := string(raw)
	if !strings.Contains(text, "exit $$fail") {
		t.Error("make loc must exit non-zero when a package is past its ceiling")
	}
	m := regexp.MustCompile(`(?m)^LOC_CEILINGS = (.*)$`).FindStringSubmatch(text)
	if m == nil {
		t.Fatal("Makefile lacks a LOC_CEILINGS line")
	}
	ceilings := map[string]int{}
	for _, pc := range strings.Fields(m[1]) {
		name, max, ok := strings.Cut(pc, ":")
		n, err := strconv.Atoi(max)
		if !ok || err != nil {
			t.Fatalf("LOC_CEILINGS entry %q is not package:lines", pc)
		}
		ceilings[name] = n
	}
	for _, pkg := range []string{"core", "dispatch", "destwriter", "wse", "wsnt", "wsen", "mediation"} {
		max, ok := ceilings[pkg]
		if !ok {
			t.Errorf("LOC_CEILINGS lacks internal/%s", pkg)
			continue
		}
		files, err := filepath.Glob(filepath.Join(root, "internal", pkg, "*.go"))
		if err != nil {
			t.Fatal(err)
		}
		lines := 0
		for _, f := range files {
			if strings.HasSuffix(f, "_test.go") {
				continue
			}
			src, err := os.ReadFile(f)
			if err != nil {
				t.Fatal(err)
			}
			lines += strings.Count(string(src), "\n")
		}
		if lines > max {
			t.Errorf("internal/%s has %d non-test lines, ceiling %d", pkg, lines, max)
		}
	}
}

// TestCheckRacesSpecEndpoints keeps the standalone spec endpoints in
// `make check`'s race sweep: wse.Source, wsnt.Producer, wsen.Producer and
// the wsbrk broker over them publish through the shared dispatch engine
// concurrently with subscription churn. The XPath evaluator and the filter
// package stay in it too: dispatch workers evaluate one compiled content
// filter from many goroutines at once.
func TestCheckRacesSpecEndpoints(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join(repoRoot(t), "Makefile"))
	if err != nil {
		t.Fatal(err)
	}
	_, rest, ok := strings.Cut(string(raw), "\ncheck:")
	if !ok {
		t.Fatal("Makefile lacks a check target")
	}
	race := ""
	for _, line := range strings.Split(rest, "\n") {
		if strings.Contains(line, "go test -race") {
			race = line
			break
		}
	}
	for _, pkg := range []string{"./internal/wse", "./internal/wsnt", "./internal/wsen", "./internal/wsbrk", "./internal/xpath", "./internal/filter"} {
		if !strings.Contains(race+" ", " "+pkg+" ") {
			t.Errorf("make check's race sweep lacks %s (got %q)", pkg, race)
		}
	}
}

// TestGoldenTargetRunsProbes keeps `make golden` pointed at the probe
// package's golden tests.
func TestGoldenTargetRunsProbes(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join(repoRoot(t), "Makefile"))
	if err != nil {
		t.Fatal(err)
	}
	want := "go test ./internal/probes -run Golden"
	if !strings.Contains(string(raw), want) {
		t.Errorf("Makefile golden target must run %q", want)
	}
}

// TestCoverAndFuzzTargetsPinned keeps the coverage floor and the fuzz
// targets wired to what CI expects: the floor variable must exist (so
// the ratchet is explicit, not buried in a shell one-liner) and the
// fuzz-smoke target must run every native fuzz target — `go test`
// accepts only one -fuzz per invocation, so each needs its own line.
func TestCoverAndFuzzTargetsPinned(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join(repoRoot(t), "Makefile"))
	if err != nil {
		t.Fatal(err)
	}
	text := string(raw)
	for _, want := range []string{
		"COVER_FLOOR",
		"-coverprofile",
		"-fuzz '^FuzzParse$$'",
		"-fuzz '^FuzzEPRRoundTrip$$'",
		"-fuzz '^FuzzDecodeRecord$$'",
		"-fuzz '^FuzzDecodePacket$$'",
		"-fuzztime $(FUZZTIME)",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("Makefile lacks %q", want)
		}
	}
}

// TestBenchGateTargetPinned keeps the benchmark ratchet honest: the
// bench-gate target must rerun all four gated benchmark targets (B13
// fan-out, B15 event log, B16 dest batching, B17 pipelining) and feed the
// combined output through cmd/benchjson against the checked-in baseline
// with an explicit tolerance.
func TestBenchGateTargetPinned(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join(repoRoot(t), "Makefile"))
	if err != nil {
		t.Fatal(err)
	}
	text := string(raw)
	for _, want := range []string{
		"BENCH_TOLERANCE ?= 25",
		"bench-fanout BENCH_COUNT=5 BENCHTIME=30x > bench_gate.txt",
		"bench-log BENCH_COUNT=5 >> bench_gate.txt",
		"bench-dest >> bench_gate.txt",
		"bench-pipeline >> bench_gate.txt",
		"-gate bench_baseline.json -tolerance $(BENCH_TOLERANCE)",
		"-bench BenchmarkDestBatchFanout",
		"-bench BenchmarkPipelinedFanout",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("Makefile lacks %q", want)
		}
	}
	if _, err := os.Stat(filepath.Join(repoRoot(t), "bench_baseline.json")); err != nil {
		t.Errorf("bench_baseline.json must be checked in: %v", err)
	}
}

// TestLoadSmokeTargetPinned keeps the load gate at the scale the claim is
// made over: 10k subscribers across 50 hosts under the race detector.
func TestLoadSmokeTargetPinned(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join(repoRoot(t), "Makefile"))
	if err != nil {
		t.Fatal(err)
	}
	text := string(raw)
	for _, want := range []string{
		"LOAD_SUBS ?= 10000",
		"LOAD_HOSTS ?= 50",
		"WSM_LOAD_SUBS=$(LOAD_SUBS)",
		"-run '^TestLoadSmoke$$'",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("Makefile lacks %q", want)
		}
	}
	loadLine := ""
	for _, line := range strings.Split(text, "\n") {
		if strings.Contains(line, "WSM_LOAD_SUBS=") {
			loadLine = line
		}
	}
	if !strings.Contains(loadLine, "-race") {
		// The go test invocation may wrap; join continuation lines first.
		joined := strings.ReplaceAll(text, "\\\n", " ")
		for _, line := range strings.Split(joined, "\n") {
			if strings.Contains(line, "WSM_LOAD_SUBS=") {
				loadLine = line
			}
		}
		if !strings.Contains(loadLine, "-race") {
			t.Errorf("load-smoke must run under -race (got %q)", loadLine)
		}
	}
}

// TestCrashSmokeTargetPinned keeps the kill -9 gate honest: the target
// must run the chaos harness under the race detector with a configurable
// cycle count defaulting to the 20 cycles the durability claim is made
// over.
func TestCrashSmokeTargetPinned(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join(repoRoot(t), "Makefile"))
	if err != nil {
		t.Fatal(err)
	}
	text := string(raw)
	for _, want := range []string{
		"CRASH_CYCLES ?= 20",
		"WSM_CRASH_CYCLES=$(CRASH_CYCLES)",
		"-run '^TestKill9AckedPublishesSurvive$$'",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("Makefile lacks %q", want)
		}
	}
	crashLine := ""
	for _, line := range strings.Split(text, "\n") {
		if strings.Contains(line, "WSM_CRASH_CYCLES=") {
			crashLine = line
		}
	}
	if !strings.Contains(crashLine, "-race") {
		t.Errorf("crash-smoke must run under -race (got %q)", crashLine)
	}
}

// TestInteropSmokeTargetPinned keeps the front-door interop gate honest:
// the target must drive the end-to-end interop test under the race
// detector, and the race sweeps must cover the front-door packages the
// gate exercises (cloudevents parsing, the WebSocket server).
func TestInteropSmokeTargetPinned(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join(repoRoot(t), "Makefile"))
	if err != nil {
		t.Fatal(err)
	}
	text := string(raw)
	for _, want := range []string{
		"-run '^TestFrontDoorInterop$$|^TestMQTTQoSConformanceMatrix$$'",
		"./internal/cloudevents ./internal/wspush",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("Makefile lacks %q", want)
		}
	}
	interopLine := ""
	for _, line := range strings.Split(text, "\n") {
		if strings.Contains(line, "TestFrontDoorInterop") {
			interopLine = line
		}
	}
	if !strings.Contains(interopLine, "-race") {
		t.Errorf("interop-smoke must run under -race (got %q)", interopLine)
	}
}

// TestPipelineGatePinned keeps the adaptive-pipelining additions wired
// into CI: the destination-writer package (in-flight windows, ordering
// keys, the reap/flight protocol) must ride both race sweeps, and the
// metrics smoke must require the window and worker gauges the feature
// exposes.
func TestPipelineGatePinned(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join(repoRoot(t), "Makefile"))
	if err != nil {
		t.Fatal(err)
	}
	text := string(raw)
	for _, want := range []string{
		"wsm_dest_inflight",
		"wsm_dest_window",
		"wsm_dispatch_workers",
		"-bench BenchmarkPipelinedFanout",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("Makefile lacks %q", want)
		}
	}
	if n := strings.Count(text, "./internal/destwriter"); n < 2 {
		t.Errorf("destwriter appears in %d race sweep(s), want both check and metrics-race", n)
	}
}

// TestMQTTGatePinned keeps the MQTT front door wired into CI: the codec
// package must ride both race sweeps, the interop gate must drive the
// packet-level QoS conformance matrix, the fuzz smoke must mutate the
// decoder, and the metrics smoke must require the door's gauges.
func TestMQTTGatePinned(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join(repoRoot(t), "Makefile"))
	if err != nil {
		t.Fatal(err)
	}
	text := string(raw)
	for _, want := range []string{
		"wsm_mqtt_connections",
		"wsm_mqtt_subscriptions",
		"TestMQTTQoSConformanceMatrix",
		"-fuzz '^FuzzDecodePacket$$'",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("Makefile lacks %q", want)
		}
	}
	if n := strings.Count(text, "./internal/mqtt"); n < 3 {
		t.Errorf("internal/mqtt appears %d time(s), want both race sweeps plus fuzz-smoke", n)
	}
}
