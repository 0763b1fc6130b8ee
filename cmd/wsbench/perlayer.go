package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
)

// perLayerMetrics lists every per-layer metric with its unit, so a traced
// run reports the same set on every workload (zero where a workload does
// not use the layer) and BENCHMARK.json can be checked against it.
var perLayerMetrics = []struct{ name, unit string }{
	// (a) the ladder: layer functions timed in the bench process
	{"xmldom.parse_us", "us"},
	{"soap.parse_us", "us"},
	{"soap.parse_allocs", "count"},
	{"soap.marshal_us", "us"},
	{"mediation.parse_incoming_us", "us"},
	{"mediation.render_wse_us", "us"},
	{"mediation.render_wsn_us", "us"},
	{"mediation.render_allocs", "count"},
	{"mediation.render_ce_us", "us"},
	{"mediation.stamp_us", "us"},
	{"topics.match_ns", "ns"},
	{"filter.accepts_us", "us"},
	{"xpath.eval_us", "us"},
	{"dispatch.dispatch_us", "us"},
	{"dispatch.dispatch_allocs", "count"},
	{"dispatch.candidates_per_publish", "count"},
	{"dispatch.matched_per_candidate", "ratio"},
	{"eventlog.append_us", "us"},
	{"eventlog.read_after_entries_per_s", "1/s"},
	{"destwriter.deliver_us", "us"},
	{"transport.send_us", "us"},
	{"transport.handler_us", "us"},
	{"mqtt.decode_ns", "ns"},
	{"mqtt.encode_ns", "ns"},
	{"cloudevents.parse_us", "us"},
	{"cloudevents.append_json_us", "us"},
	{"wspush.write_us", "us"},
	{"core.publish_us", "us"},
	{"core.self_us", "us"},
	{"ledger.sum_us_per_publish", "us"},
	{"ledger.residual_share", "ratio"},
	{"ledger.kernel_share", "ratio"},
	// (b) the broker's own counters, from /metrics
	{"obs.stage_accept_us_mean", "us"},
	{"obs.stage_dispatch_us_mean", "us"},
	{"obs.stage_deliver_us_mean", "us"},
	{"obs.stage_attempt_us_mean", "us"},
	{"mediation.render_us_mean", "us"},
	{"mediation.render_cache_hit_ratio", "ratio"},
	{"dispatch.queue_depth_max", "count"},
	{"dispatch.workers_max", "count"},
	{"dispatch.dropped", "count"},
	{"dispatch.failed", "count"},
	{"dispatch.retries", "count"},
	{"dispatch.dead_letters", "count"},
	{"destwriter.envelopes_per_notif", "count"},
	{"destwriter.coalesce_ratio", "ratio"},
	{"destwriter.queue_depth_max", "count"},
	{"destwriter.window_decreases", "count"},
	{"transport.send_ms_mean", "ms"},
	{"eventlog.append_us_mean", "us"},
	{"eventlog.fsync_ms_mean", "ms"},
	{"eventlog.fsyncs_per_publish", "count"},
	{"eventlog.bytes_per_publish", "B"},
	{"mqtt.deliveries", "count"},
	{"mqtt.dup_drops", "count"},
	// (c) the bench's own sockets and clocks; the tail. group holds the
	// figures too wide run to run to carry a regression bound
	{"transport.wire_bytes_per_notif", "B"},
	{"transport.sink_conns_opened", "count"},
	{"transport.sink_requests_per_notif", "count"},
	{"eventlog.catchup_entries_per_s", "1/s"},
	{"eventlog.ack_during_catchup_p50_ms", "ms"},
	{"tail.receipt_p99_ms", "ms"},
	{"tail.receipt_p999_ms", "ms"},
	{"tail.receipt_max_ms", "ms"},
	{"tail.ack_p99_ms", "ms"},
	{"tail.ack_p999_ms", "ms"},
	{"tail.broker_rss_peak_mb", "MiB"},
	{"gen.lateness_p99_ms", "ms"},
	{"gen.cpu_share", "ratio"},
	{"trace.overhead_share", "ratio"},
}

// endToEndNames are the metrics an untraced run reports, sorted.
var endToEndNames = []string{
	"ack_p50_ms", "broker_cpu_us_per_notif", "broker_rss_mb",
	"burst_pub_per_s", "receipt_p50_ms", "setup_s",
}

func perLayerUnit(name string) string {
	for _, m := range perLayerMetrics {
		if m.name == name {
			return m.unit
		}
	}
	panic("wsbench: per-layer metric " + name + " is not in perLayerMetrics")
}

// ledgerLine is one term of the per-publish budget: a ladder rung times
// how often the broker runs it per publish on this workload.
type ledgerLine struct {
	rung  string
	calls float64
}

// ledgerLines says, per workload, which layer calls one publish costs the
// broker. wireSends is measured (requests the sinks saw per publish).
// dispatch.dispatch_us already contains the filter evaluations of its
// candidates; the filter line is split out of it in the printed table, not
// added twice.
func ledgerLines(name string, fanout, wireSends float64) []ledgerLine {
	switch name {
	case "soap_push_fanout":
		return []ledgerLine{
			{"soap.parse_us", 1}, {"mediation.parse_incoming_us", 1}, {"core.self_us", 1}, {"dispatch.dispatch_us", 1},
			{"mediation.render_wse_us", 1}, {"mediation.render_wsn_us", 1}, {"mediation.render_ce_us", 1},
			{"mediation.stamp_us", fanout}, {"destwriter.deliver_us", fanout}, {"transport.send_us", wireSends},
		}
	case "session_small_msgs":
		return []ledgerLine{
			// One inbound PUBLISH and its PUBACK; four MQTT deliveries and
			// the two PUBACKs the QoS 1 consumer returns; four /ws frames.
			{"mqtt.decode_ns", 3}, {"mqtt.encode_ns", fanout/2 + 1}, {"core.self_us", 1}, {"dispatch.dispatch_us", 1},
			{"cloudevents.append_json_us", 1}, {"mediation.stamp_us", fanout / 2}, {"wspush.write_us", fanout / 2},
		}
	case "content_filter_select":
		return []ledgerLine{
			{"soap.parse_us", 1}, {"mediation.parse_incoming_us", 1}, {"core.self_us", 1}, {"dispatch.dispatch_us", 1},
			{"mediation.render_wsn_us", 1}, {"mediation.stamp_us", fanout}, {"destwriter.deliver_us", fanout}, {"transport.send_us", wireSends},
		}
	default: // durable_log_tail
		return []ledgerLine{
			{"cloudevents.parse_us", 1}, {"core.self_us", 1}, {"eventlog.append_us", 1}, {"dispatch.dispatch_us", 1},
			{"mediation.render_wsn_us", 1}, {"mediation.stamp_us", fanout}, {"destwriter.deliver_us", fanout}, {"transport.send_us", wireSends},
		}
	}
}

// perLayer fills res.PerLayer from the three sources outside the broker's
// code: the ladder (a), /metrics deltas across the paced window (b) and
// the bench's own sockets (c); then writes the spans out.
func (b *bench) perLayer(res *result, po *pacedOut, final metrics, catchupAckMS, lateMS []float64, cpuPerNotif float64) error {
	pl := res.PerLayer
	for _, m := range perLayerMetrics {
		if _, ok := pl[m.name]; !ok {
			pl[m.name] = metric{0, m.unit, 0}
		}
	}
	set := func(name string, v float64, n int) {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		pl[name] = metric{v, perLayerUnit(name), n}
	}

	// --- (b) deltas across the paced window, maxima over every scrape ---
	m0, m2 := po.scrapes[0], po.scrapes[2]
	delta := func(name string, extra ...string) float64 { return m2.get(name, extra...) - m0.get(name, extra...) }
	mean := func(hist string, scale float64, extra ...string) (float64, int) {
		n := delta(hist+"_count", extra...)
		if n <= 0 {
			return 0, 0
		}
		return delta(hist+"_sum", extra...) / n * scale, int(n)
	}
	for _, stage := range []string{"accept", "dispatch", "deliver", "attempt"} {
		v, n := mean("wsm_stage_seconds", 1e6, `stage="`+stage+`"`)
		set("obs.stage_"+stage+"_us_mean", v, n)
	}
	v, n := mean("wsm_mediation_render_seconds", 1e6)
	set("mediation.render_us_mean", v, n)
	hits, misses := delta("wsm_render_cache_hits_total"), delta("wsm_render_cache_misses_total")
	set("mediation.render_cache_hit_ratio", hits/(hits+misses), int(hits+misses))
	all := append(append([]metrics{}, po.scrapes[:]...), po.samples...)
	maxOf := func(name string) float64 {
		mx := 0.0
		for _, m := range all {
			mx = math.Max(mx, m.get(name))
		}
		return mx
	}
	set("dispatch.queue_depth_max", maxOf("wsm_queue_depth"), len(all))
	set("dispatch.workers_max", maxOf("wsm_dispatch_workers"), len(all))
	set("destwriter.queue_depth_max", maxOf("wsm_dest_queue_depth"), len(all))
	set("dispatch.dropped", final.get("wsm_dropped_total"), 1)
	set("dispatch.failed", final.get("wsm_failed_total"), 1)
	set("dispatch.retries", final.get("wsm_retries_total"), 1)
	set("dispatch.dead_letters", final.get("wsm_dead_letters_total"), 1)
	delivered := delta("wsm_delivered_total")
	sends := delta("wsm_dest_envelopes_total") + delta("wsm_dest_raw_sends_total")
	set("destwriter.envelopes_per_notif", sends/delivered, int(delivered))
	set("destwriter.coalesce_ratio", delta("wsm_dest_entries_total")/delta("wsm_dest_envelopes_total"), int(delta("wsm_dest_envelopes_total")))
	set("destwriter.window_decreases", final.get("wsm_dest_window_decreases_total"), 1)
	v, n = mean("wsm_transport_send_seconds", 1e3)
	set("transport.send_ms_mean", v, n)
	v, n = mean("wsm_log_append_seconds", 1e6)
	set("eventlog.append_us_mean", v, n)
	v, n = mean("wsm_log_fsync_seconds", 1e3)
	set("eventlog.fsync_ms_mean", v, n)
	published := delta("wsm_published_total")
	set("eventlog.fsyncs_per_publish", delta("wsm_log_fsyncs_total")/published, int(published))
	set("eventlog.bytes_per_publish", delta("wsm_log_bytes")/published, int(published))
	set("mqtt.deliveries", final.get("wsm_mqtt_deliveries_total"), 1)
	set("mqtt.dup_drops", final.get("wsm_mqtt_dup_drops_total"), 1)

	// --- (c) counted at the bench's own sockets ---
	var wireIn, conns, requests int64
	pushReceipts := 0
	for _, s := range b.sinks {
		wireIn += s.ln.in.Load()
		conns += s.ln.conns.Load()
		requests += s.requests.Load()
		pushReceipts += len(s.rec.recs)
	}
	set("transport.wire_bytes_per_notif", float64(wireIn)/float64(pushReceipts), pushReceipts)
	set("transport.sink_conns_opened", float64(conns), 1)
	set("transport.sink_requests_per_notif", float64(requests)/float64(pushReceipts), pushReceipts)
	if po.catchupD > 0 {
		set("eventlog.catchup_entries_per_s", float64(po.catchupN)/po.catchupD.Seconds(), po.catchupN)
	}
	set("eventlog.ack_during_catchup_p50_ms", median(catchupAckMS), len(catchupAckMS))
	set("gen.lateness_p99_ms", quantile(lateMS, 0.99), len(lateMS))
	self, broker := float64(po.selfCPU[2]-po.selfCPU[0]), float64(po.cpu[2]-po.cpu[0])
	set("gen.cpu_share", self/(self+broker), 1)

	// Tracing overhead: the second half of the paced window ran with the
	// 10 Hz scraper and span recording, the first without.
	half := (po.warmEnd + po.pacedEnd) / 2
	var first, second int
	for _, rec := range b.recorders {
		for _, rc := range rec.recs {
			switch {
			case rc.due >= po.warmEnd && rc.due < half:
				first++
			case rc.due >= half && rc.due < po.pacedEnd:
				second++
			}
		}
	}
	untraced := float64(po.cpu[1]-po.cpu[0]) / float64(first)
	traced := float64(po.cpu[2]-po.cpu[1]) / float64(second)
	set("trace.overhead_share", (traced-untraced)/untraced, first+second)

	// --- (a) the ladder, then the ledger that reconciles it ---
	tr := &tracer{epoch: b.epoch}
	rungs, err := b.ladder(tr)
	if err != nil {
		return err
	}
	for k, m := range rungs {
		pl[k] = m
	}
	self1 := pl["core.publish_us"].Value - pl["dispatch.dispatch_us"].Value
	if b.spec.durable {
		self1 -= pl["eventlog.append_us"].Value
	}
	set("core.self_us", math.Max(self1, 0), pl["core.publish_us"].N)
	wirePerPublish := float64(requests) / float64(pushReceipts) * b.spec.fanout
	if pushReceipts == 0 {
		wirePerPublish = 0
	}
	lines := ledgerLines(b.spec.name, b.spec.fanout, wirePerPublish)
	sum := 0.0
	type row struct {
		name string
		us   float64
	}
	var rows []row
	for _, l := range lines {
		us := pl[l.rung].Value * l.calls
		if pl[l.rung].Unit == "ns" {
			us /= 1e3
		}
		sum += us
		rows = append(rows, row{fmt.Sprintf("%s x %.2f", l.rung, l.calls), us})
	}
	// The filter share of dispatch, shown as its own line.
	filterUS := pl["filter.accepts_us"].Value * pl["dispatch.candidates_per_publish"].Value
	rows = append(rows, row{fmt.Sprintf("  of dispatch: filter.accepts_us x %.0f candidates", pl["dispatch.candidates_per_publish"].Value), filterUS})
	sort.SliceStable(rows, func(i, j int) bool { return rows[i].us > rows[j].us })
	perPublish := cpuPerNotif * b.spec.fanout
	set("ledger.sum_us_per_publish", sum, len(lines))
	set("ledger.residual_share", 1-sum/perPublish, 1)
	// The kernel's share of the broker's CPU (socket reads and writes,
	// fsync) is outside every rung; it bounds what the ladder can explain.
	kernel := float64(po.sysCPU[2]-po.sysCPU[0]) / broker
	set("ledger.kernel_share", kernel, 1)
	b.logf("ledger: broker spends %.1f us CPU per publish (%.2f us per notification x fan-out %.2f, %.0f%% of it in the kernel); the ladder's rungs sum to %.1f us; residual share %.3f (net/http and socket machinery, scheduler, GC, kernel)",
		perPublish, cpuPerNotif, b.spec.fanout, kernel*100, sum, 1-sum/perPublish)
	for _, r := range rows {
		b.logf("ledger:   %-62s %9.2f us", r.name, r.us)
	}
	return b.writeTrace(tr, po)
}

// maxPublishSpans caps the publish spans of one trace file; with their
// receipt children that is a few thousand spans.
const maxPublishSpans = 256

// writeTrace writes the spans kept in memory: the ladder's composite
// iterations, and for an even selection of the traced half's publishes a
// publish span (due → ack) with one receipt child per consumer receipt
// (due → receipt).
func (b *bench) writeTrace(tr *tracer, po *pacedOut) error {
	half := (po.warmEnd + po.pacedEnd) / 2
	traced := func(r pubRecord) bool { return r.due >= half && r.due < po.pacedEnd && !r.failed }
	n := 0
	for p := range po.recs {
		for _, r := range po.recs[p] {
			if traced(r) {
				n++
			}
		}
	}
	stride := max(1, n/maxPublishSpans)
	roots := map[[2]uint32]int{}
	for p := range po.recs {
		for k, r := range po.recs[p] {
			if traced(r) && k%stride == 0 {
				roots[[2]uint32{uint32(p), uint32(k)}] = tr.add(0, "publish", r.due, r.acked)
			}
		}
	}
	for _, rec := range b.recorders {
		for _, rc := range rec.recs {
			if root, ok := roots[[2]uint32{uint32(rc.pub), rc.seq}]; ok {
				tr.add(root, "receipt:"+b.subs[rc.sub].kind.String(), rc.due, rc.at)
			}
		}
	}
	path := b.cfg.traceOut
	if path == "" {
		path = filepath.Join(b.cfg.tmpRoot, "trace-"+b.spec.name+".json")
	}
	raw, err := json.Marshal(map[string]any{
		"workload": b.spec.name,
		"note":     "times are ns since the bench epoch; a span's self time is its duration minus the part its children cover",
		"spans":    tr.spans,
	})
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		return err
	}
	b.logf("trace: %d spans written to %s", len(tr.spans), path)
	return nil
}
