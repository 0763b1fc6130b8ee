package main

import (
	"context"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/topics"
)

// nPublishers is the number of publishing connections, each with one
// publish outstanding at a time.
const nPublishers = 2

// runConfig is how one workload run is shaped. The defaults (see
// defaultRunConfig) are what BENCHMARK.json's run_seconds buys; tests
// shrink them.
type runConfig struct {
	bin     string // wsmessenger binary
	tmpRoot string // parent of the -data-dir temp trees
	// seconds is the measured length: a tenth of it warms up at the paced
	// rate and is discarded, seven tenths are the open-loop paced phase,
	// and the bursts get the rest.
	seconds float64
	// setupRepeats is how many times set-up (boot, /healthz, subscribe) is
	// timed; setup_s is the median. Only the last boot carries traffic.
	setupRepeats int
	// bursts overrides the workload's burst count when > 0.
	bursts int
	// trace adds the 10 Hz /metrics sampler and span recording to the
	// second half of the paced phase and runs the layer ladder afterwards.
	trace    bool
	traceOut string
	// ladderCalls is how often the traced run calls each ladder rung.
	ladderCalls int
	log         io.Writer
}

// metric is one reported figure. N is the sample count behind it, where
// that means something.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	N     int     `json:"-"`
}

// result is the outcome of one workload run.
type result struct {
	Workload  string
	Correct   bool
	Attempted int // publishes + expected receipts, both phases and the warm-up
	Failed    int
	// GeneratorValid is false when the generator, not the broker, limited
	// the paced phase (lateness p99 above 2 ms): the run's numbers are
	// printed but must not be used.
	GeneratorValid bool
	Verdict        verdict
	EndToEnd       map[string]metric
	PerLayer       map[string]metric
	Notes          []string
}

// bench is the state of one booted broker with its consumers and
// publishers.
type bench struct {
	spec  *workloadSpec
	seed  int64
	cfg   *runConfig
	epoch time.Time
	clk   wallClock
	br    *child

	subs      []subscriber
	topics    []topics.Path
	sinks     []*sink
	mqttC     []*mqttConsumer
	wsC       []*wsConsumer
	recorders []*recorder
	received  atomic.Int64
	msgs      []*message
	pubs      []publisher

	subscribed time.Time
}

func (b *bench) addRecorder(r *recorder) {
	r.total = &b.received
	b.recorders = append(b.recorders, r)
}

func (b *bench) markSubscribed() { b.subscribed = time.Now() }

// msgFor is the message publisher p sends as its k-th publish: the two
// publishers walk the interleaved pool in step, so topics rotate.
func (b *bench) msgFor(p, k int) *message { return b.msgs[(k*nPublishers+p)%len(b.msgs)] }

func (b *bench) logf(format string, args ...any) {
	if b.cfg.log != nil {
		fmt.Fprintf(b.cfg.log, "wsbench: %s: "+format+"\n", append([]any{b.spec.name}, args...)...)
	}
}

// teardown closes publishers and consumers, stops the broker (gracefully
// when asked, so its own shutdown path runs) and only then the sinks, so
// the broker's end notices find their hosts.
func (b *bench) teardown(graceful bool) {
	for _, p := range b.pubs {
		p.close()
	}
	for _, c := range b.mqttC {
		c.close()
	}
	for _, c := range b.wsC {
		c.close()
	}
	if b.br != nil {
		b.br.stop(graceful)
	}
	for _, s := range b.sinks {
		s.close()
	}
}

// boot starts a broker and builds the workload on it, returning how long
// set-up took: child start to the last subscription acknowledged.
func boot(ctx context.Context, spec *workloadSpec, seed int64, cfg *runConfig) (*bench, time.Duration, error) {
	b := &bench{spec: spec, seed: seed, cfg: cfg, epoch: time.Now()}
	b.clk = wallClock{epoch: b.epoch}
	t0 := time.Now()
	br, err := startBroker(ctx, cfg.bin, cfg.tmpRoot, spec, 10*time.Second)
	if err != nil {
		return nil, 0, err
	}
	b.br = br
	if err := spec.build(ctx, b); err != nil {
		b.teardown(false)
		return nil, 0, fmt.Errorf("wsbench: %s: set-up: %w", spec.name, err)
	}
	return b, b.subscribed.Sub(t0), nil
}

// runWorkload runs one workload end to end and reports its metrics.
func runWorkload(ctx context.Context, spec *workloadSpec, seed int64, cfg *runConfig) (*result, error) {
	var setups []float64
	var b *bench
	for i := 0; i < cfg.setupRepeats; i++ {
		nb, d, err := boot(ctx, spec, seed, cfg)
		if err != nil {
			return nil, err
		}
		setups = append(setups, d.Seconds())
		if i < cfg.setupRepeats-1 {
			nb.teardown(false)
			continue
		}
		b = nb
	}
	stopped := false
	stop := func(graceful bool) {
		if !stopped {
			stopped = true
			b.teardown(graceful)
		}
	}
	defer stop(false)
	// A signal to the bench cancels ctx; the phases poll it and the
	// deferred stop reaps the child and removes its data dir.
	r, err := b.measure(ctx, setups, func() { stop(true) })
	if err != nil {
		return nil, err
	}
	return r, ctx.Err()
}

// pacedOut is what the open-loop phases leave behind.
type pacedOut struct {
	recs          [nPublishers][]pubRecord // every publish, warm-up included
	warmEnd       int64                    // paced window start, ns since epoch
	pacedEnd      int64
	extraEnd      int64    // end of the catch-up window (== pacedEnd without one)
	cpu           [3]int64 // broker utime+stime, us
	sysCPU        [3]int64 // broker stime alone
	selfCPU       [3]int64
	scrapes       [3]metrics // at paced start, midpoint, end
	samples       []metrics  // 10 Hz, traced half only
	rssMiB        []float64  // broker VmRSS, 10 Hz over the paced window
	catchupN      int
	catchupD      time.Duration
	tailEntries   int
	tailGaps      int
	tailDisorders int
}

func (b *bench) sendFn(p int) func(k int, due time.Duration) error {
	pub := b.pubs[p]
	return func(k int, due time.Duration) error {
		m := b.msgFor(p, k)
		return pub.send(&m.forms[k%len(m.forms)], k, due)
	}
}

// paced runs warm-up, the paced window and (durable workloads) the
// catch-up window as one unbroken open-loop schedule.
func (b *bench) paced(parent context.Context) (*pacedOut, error) {
	// Cancelling ctx stops the publishers and the tail readers.
	ctx, cancel := context.WithCancel(parent)
	defer cancel()
	cfg, spec := b.cfg, b.spec
	rate := spec.ratePubPerS
	secs := func(f float64) time.Duration { return time.Duration(f * float64(time.Second)) }
	warm, window := secs(cfg.seconds*0.1), secs(cfg.seconds*0.7)
	var extra time.Duration
	if spec.durable {
		extra = secs(cfg.seconds * 0.1)
	}
	interval := secs(float64(nPublishers) / rate)
	per := func(d time.Duration) int { return int(math.Round(d.Seconds() * rate / nPublishers)) }
	n := per(warm) + per(window) + per(extra)

	out := &pacedOut{}
	t0 := b.clk.now() + 20*time.Millisecond
	out.warmEnd = int64(t0 + warm)
	out.pacedEnd = int64(t0 + warm + window)
	out.extraEnd = int64(t0 + warm + window + extra)

	stopPolling := func() bool { return ctx.Err() != nil }
	var wg sync.WaitGroup
	for p := 0; p < nPublishers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			start := t0 + time.Duration(p)*interval/nPublishers
			out.recs[p] = openLoop(b.clk, start, interval, 0, n, b.sendFn(p), stopPolling)
		}(p)
	}

	// Durable workload: two cursor readers tail the log throughout, and a
	// fresh one replays it from the start during the catch-up window.
	var tailWG sync.WaitGroup
	var tailMu sync.Mutex
	if spec.durable {
		for i := 0; i < 2; i++ {
			tailWG.Add(1)
			go func() {
				defer tailWG.Done()
				n, gaps, dis := b.tail(ctx, 10*time.Millisecond, 0)
				tailMu.Lock()
				out.tailEntries += n
				out.tailGaps += gaps
				out.tailDisorders += dis
				tailMu.Unlock()
			}()
		}
	}

	snap := func(i int) error {
		var err error
		user, sys, err := procCPUSplit(b.br.cmd.Process.Pid)
		if err != nil {
			return err
		}
		out.cpu[i], out.sysCPU[i] = user+sys, sys
		if out.selfCPU[i], err = procCPU(os.Getpid()); err != nil {
			return err
		}
		out.scrapes[i], err = b.br.scrape()
		return err
	}
	// A 10 Hz sampler runs through the paced window: the broker's resident
	// set from /proc on every tick, which costs the broker nothing, and in
	// a traced run a /metrics scrape too from the midpoint on.
	mid := time.Duration(out.warmEnd+out.pacedEnd) / 2
	var tracing atomic.Bool
	stopSampling := make(chan struct{})
	sampled := make(chan struct{})
	go func() {
		defer close(sampled)
		tick := time.NewTicker(100 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-stopSampling:
				return
			case <-tick.C:
			}
			if int64(b.clk.now()) < out.warmEnd {
				continue
			}
			if rss, err := procStatusMiB(b.br.cmd.Process.Pid, "VmRSS"); err == nil {
				out.rssMiB = append(out.rssMiB, rss)
			}
			if tracing.Load() {
				if m, err := b.br.scrape(); err == nil {
					out.samples = append(out.samples, m)
				}
			}
		}
	}()
	var snapErr error
	for i, at := range []time.Duration{time.Duration(out.warmEnd), mid, time.Duration(out.pacedEnd)} {
		b.clk.sleepUntil(at)
		if ctx.Err() != nil {
			break
		}
		if snapErr = snap(i); snapErr != nil {
			break
		}
		if i == 1 {
			tracing.Store(cfg.trace)
		}
	}
	close(stopSampling)
	<-sampled
	if snapErr != nil {
		cancel()
		wg.Wait()
		tailWG.Wait()
		return nil, snapErr
	}

	if spec.durable && ctx.Err() == nil {
		// The fresh reader chases the head it saw when it started, while
		// paced publishing continues underneath it.
		head := uint64(out.scrapes[2].get("wsm_log_head_pos"))
		cctx, cancel := context.WithTimeout(ctx, extra+5*time.Second)
		t := time.Now()
		got, gaps, dis := b.tail(cctx, 0, head)
		cancel()
		out.catchupN, out.catchupD = got, time.Since(t)
		out.tailGaps += gaps
		out.tailDisorders += dis
		if uint64(got) < head {
			out.tailGaps += int(head) - got
		}
	}
	wg.Wait()
	cancel()
	tailWG.Wait()
	return out, parent.Err()
}

// tail reads the broker's log by cursor from position 0 with
// core.FetchNewer, page 256. With until == 0 it polls forever (pausing
// idle when a page comes back short) until ctx ends; otherwise it stops
// once the cursor reaches until. It returns entries read, positions
// reported compacted away and positions that did not follow their
// predecessor.
func (b *bench) tail(ctx context.Context, idle time.Duration, until uint64) (n, gaps, disorders int) {
	c := soapClient()
	defer c.HC.CloseIdleConnections()
	var cursor uint64
	for ctx.Err() == nil {
		entries, next, gap, err := core.FetchNewer(ctx, c, b.br.url("/"), "", cursor, core.DefaultFetchPage)
		if err != nil {
			if ctx.Err() != nil {
				break
			}
			disorders++
			time.Sleep(idle + time.Millisecond)
			continue
		}
		gaps += int(gap)
		expect := cursor + gap + 1
		for _, e := range entries {
			if e.Pos != expect {
				disorders++
			}
			expect, cursor = e.Pos+1, e.Pos
			n++
		}
		if next > cursor {
			cursor = next
		}
		if until > 0 && cursor >= until {
			break
		}
		if len(entries) < core.DefaultFetchPage && until == 0 {
			select {
			case <-ctx.Done():
			case <-time.After(idle):
			}
		}
	}
	return n, gaps, disorders
}

// burstOut is one closed-loop burst.
type burstOut struct {
	first     [nPublishers]int // first k of each publisher
	n         int              // publishes per publisher
	firstSend int64
	recs      [nPublishers][]pubRecord
	timedOut  bool
}

// bursts runs the closed-loop phase: each burst, both connections publish
// back to back with one publish outstanding, then the bench waits for
// every expected receipt before the next burst starts.
func (b *bench) bursts(ctx context.Context, nextK [nPublishers]int, count int, budget time.Duration) []burstOut {
	per := b.spec.burstSize / nPublishers
	deadline := time.Now().Add(budget)
	var outs []burstOut
	for i := 0; i < count && ctx.Err() == nil; i++ {
		// The count is pinned; the budget only guards a broker so slow that
		// the pinned count would overrun the driver's cap — and never cuts
		// below five bursts.
		if i >= 5 && time.Now().After(deadline) {
			b.logf("burst budget exhausted after %d of %d bursts", i, count)
			break
		}
		bo := burstOut{first: nextK, n: per}
		expected := 0
		for p := 0; p < nPublishers; p++ {
			for k := nextK[p]; k < nextK[p]+per; k++ {
				for _, s := range b.msgFor(p, k).recv {
					expected += b.subs[s].mult
				}
			}
		}
		base := b.received.Load()
		bo.firstSend = int64(b.clk.now())
		var wg sync.WaitGroup
		for p := 0; p < nPublishers; p++ {
			wg.Add(1)
			go func(p int) {
				defer wg.Done()
				send := b.sendFn(p)
				recs := make([]pubRecord, 0, per)
				for k := nextK[p]; k < nextK[p]+per; k++ {
					due := b.clk.now()
					err := send(k, due)
					recs = append(recs, pubRecord{due: int64(due), sent: int64(due), acked: int64(b.clk.now()), failed: err != nil})
				}
				bo.recs[p] = recs
			}(p)
		}
		wg.Wait()
		wait := time.Now().Add(5 * time.Second)
		for b.received.Load()-base < int64(expected) {
			if time.Now().After(wait) || ctx.Err() != nil {
				bo.timedOut = true
				break
			}
			time.Sleep(200 * time.Microsecond)
		}
		for p := range nextK {
			nextK[p] += per
		}
		outs = append(outs, bo)
	}
	return outs
}

// quiesce waits until the broker's own counters balance (every matched
// notification reached a terminal counter) and returns the last scrape
// and the remaining imbalance.
func (b *bench) quiesce(ctx context.Context) (metrics, int, error) {
	var m metrics
	var err error
	imbalance := 0
	for deadline := time.Now().Add(3 * time.Second); ; {
		if m, err = b.br.scrape(); err != nil {
			return nil, 0, err
		}
		terminal := m.get("wsm_delivered_total") + m.get("wsm_dropped_total") + m.get("wsm_failed_total") + m.get("wsm_dead_letters_total")
		imbalance = int(math.Abs(m.get("wsm_matched_total") - terminal))
		if imbalance == 0 || time.Now().After(deadline) || ctx.Err() != nil {
			return m, imbalance, nil
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// measure drives the phases on a booted bench and turns what they left
// behind into metrics. shutdown stops the broker gracefully; it is called
// once the last figure that needs the live process has been read.
func (b *bench) measure(ctx context.Context, setups []float64, shutdown func()) (*result, error) {
	cfg, spec := b.cfg, b.spec
	po, err := b.paced(ctx)
	if err != nil {
		return nil, err
	}
	var nextK [nPublishers]int
	for p := range nextK {
		nextK[p] = len(po.recs[p])
	}
	count := spec.bursts
	if cfg.bursts > 0 {
		count = cfg.bursts
	}
	bos := b.bursts(ctx, nextK, count, time.Duration(cfg.seconds*0.2*float64(time.Second)))
	final, imbalance, err := b.quiesce(ctx)
	if err != nil {
		return nil, err
	}
	rssPeak, err := procStatusMiB(b.br.cmd.Process.Pid, "VmHWM")
	if err != nil {
		return nil, err
	}
	shutdown()
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	// --- correctness: match every receipt ---
	pubs := po.recs
	for _, bo := range bos {
		for p := range pubs {
			pubs[p] = append(pubs[p], bo.recs[p]...)
		}
	}
	m := &matcher{subs: b.subs, published: make([]int, nPublishers), refused: make([][]bool, nPublishers)}
	refusedN, publishedN := 0, 0
	for p := range pubs {
		m.published[p] = len(pubs[p])
		m.refused[p] = make([]bool, len(pubs[p]))
		publishedN += len(pubs[p])
		for k, r := range pubs[p] {
			if r.failed {
				m.refused[p][k] = true
				refusedN++
			}
		}
	}
	wantsPool := make([][]bool, len(b.subs))
	for s := range wantsPool {
		wantsPool[s] = make([]bool, len(b.msgs))
	}
	for i, msg := range b.msgs {
		for _, s := range msg.recv {
			wantsPool[s][i] = true
		}
	}
	m.wants = func(s, p int, k uint32) bool { return wantsPool[s][(int(k)*nPublishers+p)%len(b.msgs)] }
	m.streams = len(b.topics)
	m.stream = func(s, p int, k uint32) int {
		if b.subs[s].kind != kindMQTT {
			return 0
		}
		return b.msgFor(p, int(k)).topic
	}
	bySub := make([][]receipt, len(b.subs))
	unstamped, strays := 0, 0
	var samples []sample
	for _, rec := range b.recorders {
		rec.mu.Lock()
		for _, rc := range rec.recs {
			if int(rc.sub) < len(bySub) {
				bySub[rc.sub] = append(bySub[rc.sub], rc)
			} else {
				strays++
			}
		}
		samples = append(samples, rec.samples...)
		unstamped += rec.unstamped
		rec.mu.Unlock()
	}
	v, arrived := m.check(bySub)
	byKind := map[string]int{}
	for s, recs := range bySub {
		byKind[b.subs[s].kind.String()] += len(recs)
	}
	b.logf("receipts by dialect: %v; broker counted published %.0f matched %.0f delivered %.0f", byKind,
		final.get("wsm_published_total"), final.get("wsm_matched_total"), final.get("wsm_delivered_total"))
	v.unexpected += strays
	badSamples := 0
	for _, sm := range samples {
		if err := b.verifySample(sm); err != nil {
			if badSamples == 0 {
				b.logf("sample check: %v", err)
			}
			badSamples++
		}
	}

	res := &result{Workload: spec.name, Verdict: v, EndToEnd: map[string]metric{}, PerLayer: map[string]metric{}}
	res.Attempted = publishedN + v.expected
	res.Failed = refusedN + v.failures() + badSamples + imbalance + po.tailGaps + po.tailDisorders
	dropped := int(final.get("wsm_dropped_total") + final.get("wsm_failed_total") + final.get("wsm_dead_letters_total"))
	res.Correct = res.Failed == 0 && dropped == 0
	b.logf("oracle: %d publishes (%d refused), receipts %d of %d expected; missing %d duplicated %d reordered %d unexpected %d wrong-type %d; %d of %d kept deliveries failed the full check; QoS 1 DUP redeliveries %d; unstamped bodies %d; conservation imbalance %d, broker dropped+failed+dead-lettered %d",
		publishedN, refusedN, v.got, v.expected, v.missing, v.duplicated, v.reordered, v.unexpected, v.badType,
		badSamples, len(samples), v.allowedDups, unstamped, imbalance, dropped)

	// --- paced-phase latencies, from the instant each publish was due ---
	inWindow := func(due int64) bool { return due >= po.warmEnd && due < po.pacedEnd }
	var receiptMS, ackMS, catchupAckMS []float64
	var receiptT, ackT []timed
	var lateMS []float64
	for p := range po.recs {
		for _, r := range po.recs[p] {
			ms := float64(r.acked-r.due) / 1e6
			switch {
			case r.failed:
			case inWindow(r.due):
				ackMS = append(ackMS, ms)
				ackT = append(ackT, timed{r.due, ms})
				lateMS = append(lateMS, float64(r.lateNS)/1e6)
			case r.due >= po.pacedEnd:
				catchupAckMS = append(catchupAckMS, ms)
			}
		}
	}
	pacedReceipts := 0
	for _, recs := range bySub {
		for _, rc := range recs {
			if inWindow(rc.due) {
				ms := float64(rc.at-rc.due) / 1e6
				receiptMS = append(receiptMS, ms)
				receiptT = append(receiptT, timed{rc.due, ms})
				pacedReceipts++
			}
		}
	}
	sort.Float64s(receiptMS)
	sort.Float64s(ackMS)
	sort.Float64s(lateMS)
	width := (po.pacedEnd - po.warmEnd) / 4
	e2e := res.EndToEnd
	e2e["setup_s"] = metric{median(setups), "s", len(setups)}
	p99 := func(ts []timed) float64 { return windowedQuantile(ts, po.warmEnd, width, 4, 0.99) }
	e2e["receipt_p50_ms"] = metric{quantile(receiptMS, 0.5), "ms", len(receiptMS)}
	e2e["ack_p50_ms"] = metric{quantile(ackMS, 0.5), "ms", len(ackMS)}
	// The tail. group is reported by every run and carries no bound: on
	// the seed commit these figures moved by more than a tenth of their
	// median from run to run.
	tail := func(name string, v float64, n int) { res.PerLayer[name] = metric{v, perLayerUnit(name), n} }
	tail("tail.receipt_p99_ms", p99(receiptT), len(receiptMS))
	tail("tail.receipt_p999_ms", quantile(receiptMS, 0.999), len(receiptMS))
	tail("tail.receipt_max_ms", quantile(receiptMS, 1), len(receiptMS))
	tail("tail.ack_p99_ms", p99(ackT), len(ackMS))
	tail("tail.ack_p999_ms", quantile(ackMS, 0.999), len(ackMS))
	tail("tail.broker_rss_peak_mb", rssPeak, 1)

	// --- bursts: complete publishes over (last receipt − first send) ---
	lastAt := make([]int64, len(bos))
	burstOf := func(p int, k uint32) int {
		if len(bos) == 0 || int(k) < bos[0].first[p] {
			return -1
		}
		i := (int(k) - bos[0].first[p]) / bos[0].n
		if i >= len(bos) {
			return -1
		}
		return i
	}
	for _, recs := range bySub {
		for _, rc := range recs {
			if i := burstOf(int(rc.pub), rc.seq); i >= 0 && rc.at > lastAt[i] {
				lastAt[i] = rc.at
			}
		}
	}
	var burstRates []float64
	for i, bo := range bos {
		complete := 0
		for p := 0; p < nPublishers; p++ {
			for k := bo.first[p]; k < bo.first[p]+bo.n; k++ {
				want := 0
				for _, s := range b.msgFor(p, k).recv {
					want += b.subs[s].mult
				}
				if !m.refused[p][k] && int(arrived[p][k]) == want {
					complete++
				}
			}
		}
		end := lastAt[i]
		for p := range bo.recs {
			// A publish nobody subscribes to completes at its ack.
			if n := len(bo.recs[p]); n > 0 && bo.recs[p][n-1].acked > end {
				end = bo.recs[p][n-1].acked
			}
		}
		if d := float64(end-bo.firstSend) / 1e9; d > 0 {
			burstRates = append(burstRates, float64(complete)/d)
		}
	}
	e2e["burst_pub_per_s"] = metric{median(burstRates), "1/s", len(burstRates)}
	cpuPerNotif := math.NaN()
	if pacedReceipts > 0 {
		cpuPerNotif = float64(po.cpu[2]-po.cpu[0]) / float64(pacedReceipts)
	}
	e2e["broker_cpu_us_per_notif"] = metric{cpuPerNotif, "us", pacedReceipts}
	e2e["broker_rss_mb"] = metric{median(po.rssMiB), "MiB", len(po.rssMiB)}

	// --- generator self-check ---
	latenessP99 := quantile(lateMS, 0.99)
	res.GeneratorValid = latenessP99 <= 2
	if !res.GeneratorValid {
		res.Notes = append(res.Notes, fmt.Sprintf("INVALID: generator lateness p99 %.3f ms exceeds 2 ms — these numbers measure the generator, not the broker", latenessP99))
	}
	// No backlog may grow at the paced rate: queue gauges at the end of
	// the window no higher than at its midpoint, and receipts lagging
	// publishes by no more.
	for _, g := range []string{"wsm_queue_depth", "wsm_dest_queue_depth"} {
		if end, mid := po.scrapes[2].get(g), po.scrapes[1].get(g); end > mid+8 {
			res.Notes = append(res.Notes, fmt.Sprintf("backlog: %s rose from %.0f at the paced midpoint to %.0f at the end", g, mid, end))
		}
	}
	half := (po.warmEnd + po.pacedEnd) / 2
	lagAt := func(from, to int64) float64 {
		var ms []float64
		for _, t := range receiptT {
			if t.due >= from && t.due < to {
				ms = append(ms, t.ms)
			}
		}
		return median(ms)
	}
	if first, second := lagAt(po.warmEnd, half), lagAt(half, po.pacedEnd); second > 2*first+1 {
		res.Notes = append(res.Notes, fmt.Sprintf("backlog: receipt lag grew from %.3f ms in the first half of the paced window to %.3f ms in the second", first, second))
	}
	b.logf("paced %.0f pub/s for %.1f s: %d publishes acked, %d receipts; generator lateness p99 %.3f ms; %d bursts of %d",
		spec.ratePubPerS, float64(po.pacedEnd-po.warmEnd)/1e9, len(ackMS), pacedReceipts, latenessP99, len(bos), spec.burstSize)

	if spec.durable {
		b.logf("cursor readers: 2 tail readers read %d entries, the fresh reader replayed %d in %v; %d positions missing, %d out of order",
			po.tailEntries, po.catchupN, po.catchupD.Round(time.Millisecond), po.tailGaps, po.tailDisorders)
	}
	if cfg.trace {
		if err := b.perLayer(res, po, final, catchupAckMS, lateMS, cpuPerNotif); err != nil {
			return nil, err
		}
	}
	return res, nil
}
