package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"

	"repro/internal/cloudevents"
	"repro/internal/core"
	"repro/internal/destwriter"
	"repro/internal/dispatch"
	"repro/internal/eventlog"
	"repro/internal/filter"
	"repro/internal/mediation"
	"repro/internal/mqtt"
	"repro/internal/soap"
	"repro/internal/topics"
	"repro/internal/transport"
	"repro/internal/wsa"
	"repro/internal/wse"
	"repro/internal/wsnt"
	"repro/internal/wspush"
	"repro/internal/xmldom"
	"repro/internal/xpath"
)

// The ladder times each layer's public functions from the bench process,
// on the very messages the workload generated, one goroutine, after the
// broker has been shut down (so the machine is quiet). It is measurement
// source (a) of the per-layer table.

// Each rung is called runConfig.ladderCalls times (defaultLadderCalls in a
// real run); ns-scale rungs time batches of ladderBatch calls per sample.
// A rung whose call takes longer than ladderRungBudget/calls (a 10 ms
// dispatch over 400 XPath filters) is called fewer times, so that no rung
// outlasts the budget, but never fewer than ladderMinCalls.
const (
	defaultLadderCalls = 2000
	ladderBatch        = 64
	ladderMinCalls     = 50
	ladderRungBudget   = 1500 * time.Millisecond
)

// stubClient is a transport.Client (and BytesClient, RawSender) that
// returns at once: deliveries cost what the broker spends producing them
// and nothing on a wire.
type stubClient struct{}

func (stubClient) Call(context.Context, string, *soap.Envelope) (*soap.Envelope, error) {
	return nil, nil
}
func (stubClient) Send(context.Context, string, *soap.Envelope) error      { return nil }
func (stubClient) SendBytes(context.Context, string, string, []byte) error { return nil }
func (stubClient) SendRaw(context.Context, string, string, map[string]string, []byte) error {
	return nil
}

// ladderSub mirrors one of the workload's subscriptions for the
// in-process rungs. Session subscriptions (MQTT, /ws) need live sockets,
// so they stand in as WS-Notification push subscriptions with the same
// topic filter: same index placement, same match work.
type ladderSub struct {
	kind    subKind
	topic   int    // index into bench.topics, -1 = none
	content string // XPath content filter, "" = none
	host    int
}

func (b *bench) ladderSubs() []ladderSub {
	var out []ladderSub
	switch b.spec.name {
	case "soap_push_fanout":
		for i := 0; i < 3; i++ {
			out = append(out, ladderSub{kind: kindWSE, topic: -1, host: i})
		}
		for t := range b.topics {
			for j, k := range []subKind{kindWSN, kindWSN, kindWSN, kindCE, kindCE} {
				out = append(out, ladderSub{kind: k, topic: t, host: (j + t) % 4})
			}
		}
	case "session_small_msgs":
		for t := range b.topics {
			for j := 0; j < 6; j++ {
				out = append(out, ladderSub{kind: kindWSN, topic: t, host: j % 4})
			}
		}
		out = append(out, ladderSub{kind: kindWSN, topic: -1, host: 2}, ladderSub{kind: kindWSN, topic: -1, host: 3})
	case "content_filter_select":
		for j := 0; j < nContentSubs; j++ {
			out = append(out, ladderSub{kind: kindWSN, topic: -1, content: contentFilterFor(j).expr})
		}
	default:
		for j := 0; j < 4; j++ {
			out = append(out, ladderSub{kind: kindWSN, topic: -1})
		}
	}
	return out
}

func (b *bench) canonFor(ls ladderSub) *mediation.Subscribe {
	c := &mediation.Subscribe{}
	if ls.topic >= 0 {
		tp := b.topics[ls.topic]
		c.TopicExpr, c.TopicDialect = "t:"+strings.Join(tp.Segments, "/"), topics.DialectConcrete
		c.TopicNS = map[string]string{"t": tp.Namespace}
	}
	if ls.content != "" {
		c.ContentExpr, c.ContentNS = ls.content, map[string]string{"w": b.topics[0].Namespace}
	}
	return c
}

// sampleStat is the outcome of one rung.
type sampleStat struct {
	medianNS float64
	allocs   float64
	n        int
}

// timeRung calls fn calls×batch times, timing each batch, and returns
// the median time and the allocations per call.
func timeRung(calls, batch int, fn func(i int)) sampleStat {
	warm := min(32, calls) // fill caches, finish lazy set-up
	t := time.Now()
	for i := 0; i < warm; i++ {
		fn(i)
	}
	if per := time.Since(t) / time.Duration(warm) * time.Duration(batch); per*time.Duration(calls) > ladderRungBudget {
		calls = min(calls, max(int(ladderRungBudget/per), ladderMinCalls))
	}
	ns := make([]float64, calls)
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	i := 0
	for c := 0; c < calls; c++ {
		t := time.Now()
		for j := 0; j < batch; j++ {
			fn(i)
			i++
		}
		ns[c] = float64(time.Since(t)) / float64(batch)
	}
	runtime.ReadMemStats(&ms1)
	sort.Float64s(ns)
	return sampleStat{quantile(ns, 0.5), float64(ms1.Mallocs-ms0.Mallocs) / float64(calls*batch), calls * batch}
}

// span is one traced interval. Spans of one request share a root; parent
// is 0 for a root.
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"`
	Name    string `json:"name"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends.
type tracer struct {
	epoch time.Time
	spans []span
}

func (t *tracer) add(parent int, name string, start, end int64) int {
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{id, parent, name, start, end})
	return id
}

// The delivery plans and consumers the ladder renders for, one per dialect
// the workloads deliver in.
var (
	consumer    = wsa.NewEPR(wsa.V200508, "http://sink-0.invalid/wsn")
	consumerWSE = wsa.NewEPR(wsa.V200408, "http://sink-0.invalid/wse/0")
	planWSN     = mediation.DeliveryPlan{Dialect: mediation.Dialect{Family: mediation.FamilyWSN, WSN: wsnt.V1_3},
		SubscriptionID: "wsm-1", ManagerAddress: "http://broker.invalid/manage", ProducerAddress: "http://broker.invalid/"}
	planWSE = mediation.DeliveryPlan{Dialect: mediation.Dialect{Family: mediation.FamilyWSE, WSE: wse.V200408}, UseRaw: true,
		SubscriptionID: "wsm-2", ManagerAddress: planWSN.ManagerAddress, ProducerAddress: planWSN.ProducerAddress}
	planCE = mediation.DeliveryPlan{Dialect: mediation.Dialect{Family: mediation.FamilyCE}, CEMode: mediation.CEStructured,
		SubscriptionID: "wsm-3", ProducerAddress: planWSN.ProducerAddress}
)

// ladderInputs are one message of the workload in every form a rung needs.
type ladderInputs struct {
	pub      []byte                 // what the publisher puts on the wire
	soapEnv  []byte                 // the message as a SOAP envelope (the publish itself on SOAP workloads, else its WSN rendering)
	env      *soap.Envelope         // soapEnv parsed
	note     mediation.Notification // what the broker holds after ingest; payload still attached to its envelope, as in the broker
	ceJSON   []byte                 // structured CloudEvents form
	event    *cloudevents.Event     // ceJSON parsed
	mqttPkt  []byte                 // the message as an MQTT PUBLISH packet
	mqttPub  *mqtt.Publish
	wsFrame  []byte // a /ws event frame carrying it
	xmlBytes []byte // payload serialised, as the event log stores it
}

func (b *bench) ladderInputsFor(m *message) (*ladderInputs, error) {
	in := &ladderInputs{}
	f := m.forms[0]
	in.pub = append([]byte(nil), f.body...)
	putStamp(in.pub[f.off:], 0, 1, 1)
	tp := b.topics[m.topic]
	switch {
	case m.payload != nil: // SOAP publish
		in.soapEnv = in.pub
	case b.spec.mqtt:
		ev := &cloudevents.Event{SpecVersion: cloudevents.SpecVersion, ID: "urn:uuid:wsm-1", Source: "urn:ws-messenger:mqtt:wsbench-pub-0",
			Type: cloudevents.TypeForTopic(tp), Data: json.RawMessage(in.pub)}
		in.note = mediation.Notification{Topic: tp, Payload: cloudevents.WrapXML(ev)}
	default: // CloudEvents publish
		ev, err := cloudevents.ParseJSON(in.pub)
		if err != nil {
			return nil, err
		}
		in.note = mediation.Notification{Topic: tp, Payload: cloudevents.WrapXML(ev)}
	}
	if in.soapEnv == nil {
		in.soapEnv = mediation.Render(in.note, consumer, planWSN, "urn:uuid:wsm-1").Marshal()
	}
	var err error
	if in.env, err = soap.ParseBytes(in.soapEnv); err != nil {
		return nil, err
	}
	if m.payload != nil {
		ns, _, err := mediation.ParseIncoming(in.env)
		if err != nil || len(ns) != 1 {
			return nil, fmt.Errorf("wsbench: ladder: publish did not parse to one notification: %v", err)
		}
		in.note = ns[0]
		if in.note.Topic.IsZero() {
			in.note.Topic = tp
		}
	}
	in.ceJSON, _ = mediation.RenderCE(in.note, planCE, "urn:uuid:wsm-1")
	if in.event, err = cloudevents.ParseJSON(in.ceJSON); err != nil {
		return nil, err
	}
	topicName, err := mqtt.TopicForPath(tp)
	if err != nil {
		return nil, err
	}
	payload := in.pub
	if !b.spec.mqtt {
		payload = in.ceJSON
	}
	in.mqttPub = &mqtt.Publish{Topic: topicName, Payload: payload, QoS: 1, PacketID: 7}
	if in.mqttPkt, err = mqtt.AppendPacket(nil, in.mqttPub); err != nil {
		return nil, err
	}
	in.wsFrame, _ = json.Marshal(map[string]any{"action": "event", "sid": "wsm-1", "event": json.RawMessage(in.ceJSON)})
	in.xmlBytes = []byte(xmldom.Marshal(in.note.Payload))
	return in, nil
}

// ladderPayload is what the ladder's dispatch engine carries, mirroring
// the broker's own dispatch payload.
type ladderPayload struct{ payload *xmldom.Element }

// ladder runs every rung and returns metric name → value (µs, ns, counts
// as the name says), plus the spans of the composite iterations.
func (b *bench) ladder(tr *tracer) (map[string]metric, error) {
	calls := b.cfg.ladderCalls
	out := map[string]metric{}
	put := func(name string, v float64, n int) { out[name] = metric{v, perLayerUnit(name), n} }
	us := func(name string, st sampleStat) { put(name, st.medianNS/1e3, st.n) }

	// A slice of the pool keeps rungs from timing one cached message.
	var ins []*ladderInputs
	for i := 0; i < len(b.msgs) && i < 64; i++ {
		in, err := b.ladderInputsFor(b.msgs[i])
		if err != nil {
			return nil, err
		}
		ins = append(ins, in)
	}
	at := func(i int) *ladderInputs { return ins[i%len(ins)] }
	buf := make([]byte, 0, 8192)

	// --- xmldom, soap, mediation ---
	us("xmldom.parse_us", timeRung(calls, 1, func(i int) { _, _ = xmldom.Parse(bytes.NewReader(at(i).soapEnv)) }))
	st := timeRung(calls, 1, func(i int) { _, _ = soap.ParseBytes(at(i).soapEnv) })
	us("soap.parse_us", st)
	put("soap.parse_allocs", st.allocs, st.n)
	us("soap.marshal_us", timeRung(calls, 1, func(i int) { buf = at(i).env.AppendMarshal(buf[:0]) }))
	us("mediation.parse_incoming_us", timeRung(calls, 1, func(i int) { _, _, _ = mediation.ParseIncoming(at(i).env) }))
	us("mediation.render_wse_us", timeRung(calls, 1, func(i int) {
		buf = mediation.Render(at(i).note, consumerWSE, planWSE, "urn:uuid:wsm-9").AppendMarshal(buf[:0])
	}))
	st = timeRung(calls, 1, func(i int) {
		buf = mediation.Render(at(i).note, consumer, planWSN, "urn:uuid:wsm-9").AppendMarshal(buf[:0])
	})
	us("mediation.render_wsn_us", st)
	put("mediation.render_allocs", st.allocs, st.n)
	us("mediation.render_ce_us", timeRung(calls, 1, func(i int) { _, _ = mediation.RenderCE(at(i).note, planCE, "urn:uuid:wsm-9") }))
	tpls := make([]*mediation.Template, len(ins))
	for i, in := range ins {
		tpl, err := mediation.NewTemplate(in.note, planWSN)
		if err != nil {
			return nil, fmt.Errorf("wsbench: ladder: template: %w", err)
		}
		tpls[i] = tpl
	}
	us("mediation.stamp_us", timeRung(calls, ladderBatch, func(i int) {
		buf = tpls[i%len(tpls)].Stamp(buf[:0], consumer.Address, "urn:uuid:wsm-9", "wsm-1")
	}))

	// --- topics, filter, xpath ---
	subs := b.ladderSubs()
	filters := make([]filter.All, len(subs))
	var topicExpr *topics.Expression
	for i, ls := range subs {
		flt, err := b.canonFor(ls).BuildFilter()
		if err != nil {
			return nil, err
		}
		filters[i] = flt
		for _, f := range flt {
			if tf, ok := f.(filter.Topic); ok && topicExpr == nil {
				topicExpr = tf.Expr
			}
		}
	}
	if topicExpr == nil {
		tp := b.topics[0]
		topicExpr, _ = topics.ParseExpression(topics.DialectConcrete, "t:"+strings.Join(tp.Segments, "/"), map[string]string{"t": tp.Namespace})
	}
	st = timeRung(calls, ladderBatch, func(i int) { _ = topicExpr.Matches(b.topics[i%len(b.topics)]) })
	put("topics.match_ns", st.medianNS, st.n)
	us("filter.accepts_us", timeRung(calls, 1, func(i int) {
		in := at(i)
		_, _ = filters[i%len(filters)].Accepts(filter.Message{Topic: in.note.Topic, Payload: in.note.Payload})
	}))
	xp, err := xpath.CompileNS(contentFilterFor(7*50).expr, xpath.Namespaces{"w": "urn:workload:grid"})
	if err != nil {
		return nil, err
	}
	us("xpath.eval_us", timeRung(calls, 1, func(i int) { _, _ = xp.Eval(at(i).note.Payload) }))

	// --- dispatch: the workload's subscription set, no-op sinks ---
	eng := dispatch.New(dispatch.Config{QueueCap: 1 << 16})
	for i := range subs {
		flt := filters[i]
		sel := dispatch.MatchAll()
		for _, f := range flt {
			if tf, ok := f.(filter.Topic); ok {
				sel = dispatch.ForExpression(tf.Expr)
			}
		}
		if err := eng.Subscribe(dispatch.Sub{
			ID: fmt.Sprintf("l-%d", i), Selector: sel, Mode: dispatch.Queued,
			Filter: func(m dispatch.Message) (bool, error) {
				return flt.Accepts(filter.Message{Topic: m.Topic, Payload: m.Payload.(ladderPayload).payload})
			},
			Deliver: func([]dispatch.Message) error { return nil },
		}); err != nil {
			return nil, err
		}
	}
	matched, cands := 0, 0
	for _, in := range ins {
		cands += len(eng.Candidates(in.note.Topic))
		matched += eng.Dispatch(dispatch.Message{Topic: in.note.Topic, Payload: ladderPayload{in.note.Payload}})
	}
	st = timeRung(calls, 1, func(i int) {
		in := at(i)
		eng.Dispatch(dispatch.Message{Topic: in.note.Topic, Payload: ladderPayload{in.note.Payload}})
		if i%256 == 255 {
			eng.Quiesce()
		}
	})
	eng.Quiesce()
	eng.Close()
	us("dispatch.dispatch_us", st)
	put("dispatch.dispatch_allocs", st.allocs, st.n)
	candsPer := float64(cands) / float64(len(ins))
	put("dispatch.candidates_per_publish", candsPer, len(ins))
	ratio := 0.0
	if cands > 0 {
		ratio = float64(matched) / float64(cands)
	}
	put("dispatch.matched_per_candidate", ratio, cands)

	// --- eventlog at the workload's durability ---
	opts := eventlog.Options{}
	if b.spec.durable {
		dir, err := os.MkdirTemp(b.cfg.tmpRoot, "wsbench-ladder-log-")
		if err != nil {
			return nil, err
		}
		defer os.RemoveAll(dir)
		opts.Dir, opts.Durability = dir, eventlog.DurabilityBatch
	}
	lg, err := eventlog.Open(opts)
	if err != nil {
		return nil, err
	}
	us("eventlog.append_us", timeRung(calls, 1, func(i int) {
		in := at(i)
		_, _ = lg.Append(eventlog.Record{Topic: in.note.Topic.String(), Src: "publish", Body: in.xmlBytes})
	}))
	head := lg.Head()
	var read int
	t0 := time.Now()
	for pass := 0; pass < 20; pass++ {
		for cursor := uint64(0); cursor < head; {
			entries, next, _ := lg.ReadAfter(cursor, core.DefaultFetchPage)
			if len(entries) == 0 {
				break
			}
			read += len(entries)
			cursor = next
		}
	}
	put("eventlog.read_after_entries_per_s", float64(read)/time.Since(t0).Seconds(), read)
	_ = lg.Close()

	// --- destwriter over a stub send ---
	pool := destwriter.NewPool(destwriter.Config{
		Send:          func(context.Context, string, string, []byte) error { return nil },
		NextMessageID: func() string { return "urn:uuid:wsm-9" },
		BatchMax:      64, MaxInflightPerHost: 4, AdaptiveWindow: true, ConnCap: 16,
		// No coalescing window: the rung times what a delivery costs the
		// CPU, not the 2 ms the production window makes it wait.
	})
	ctx := context.Background()
	us("destwriter.deliver_us", timeRung(calls, 1, func(i int) {
		_ = pool.Deliver(ctx, &destwriter.Batch{
			Addr: consumer.Address, ContentType: soap.V11.ContentType(), Key: "wsm-1",
			Entries: []destwriter.Entry{{Frame: tpls[i%len(tpls)], SubID: "wsm-1"}},
		})
	}))
	pool.Close()

	// --- transport: a real loopback keep-alive sink, and the front door ---
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	srv := &http.Server{Handler: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		var sink bytes.Buffer
		_, _ = sink.ReadFrom(r.Body)
		w.WriteHeader(http.StatusAccepted)
	})}
	go func() { _ = srv.Serve(ln) }()
	hc := &transport.HTTPClient{HC: transport.NewPooledHTTPClient(transport.PoolConfig{Timeout: 15 * time.Second})}
	sinkURL := "http://" + ln.Addr().String() + "/wsn"
	rendered := make([][]byte, len(ins))
	for i, in := range ins {
		rendered[i] = mediation.Render(in.note, consumer, planWSN, "urn:uuid:wsm-9").Marshal()
	}
	us("transport.send_us", timeRung(calls, 1, func(i int) {
		_ = hc.SendBytes(ctx, sinkURL, soap.V11.ContentType(), rendered[i%len(rendered)])
	}))
	hc.HC.CloseIdleConnections()
	_ = srv.Close()

	// --- core: an in-process broker with the workload's subscriptions ---
	cfg := core.Config{
		Address: "svc://wsbench", ManagerAddress: "svc://wsbench-manage", Client: stubClient{},
		BatchMax: 64, MaxInflightPerHost: 4, AdaptiveWindow: true,
	}
	if b.spec.durable {
		dir, err := os.MkdirTemp(b.cfg.tmpRoot, "wsbench-ladder-core-")
		if err != nil {
			return nil, err
		}
		defer os.RemoveAll(dir)
		cfg.DataDir = dir
	}
	br, err := core.New(cfg)
	if err != nil {
		return nil, err
	}
	defer br.Shutdown()
	lb := transport.NewLoopback()
	lb.Register(cfg.Address, br.FrontHandler())
	lb.Register(cfg.ManagerAddress, br.ManagerHandler())
	ceh := br.CEHandler()
	for i, ls := range subs {
		canon := b.canonFor(ls)
		addr := fmt.Sprintf("http://sink-%d.invalid", ls.host)
		var err error
		switch ls.kind {
		case kindWSE:
			_, err = (&wse.Subscriber{Client: lb, Version: wse.V200408}).Subscribe(ctx, cfg.Address,
				&wse.SubscribeRequest{NotifyTo: wsa.NewEPR(wsa.V200408, fmt.Sprintf("%s/wse/%d", addr, i))})
		case kindCE:
			body, _ := json.Marshal(map[string]string{"sink": fmt.Sprintf("%s/ce/%d", addr, i), "topic": b.topics[ls.topic].String()})
			req := httptest.NewRequest(http.MethodPost, "/ce", bytes.NewReader(body))
			req.Header.Set("Content-Type", "application/json")
			rw := httptest.NewRecorder()
			ceh.ServeHTTP(rw, req)
			if rw.Code != http.StatusCreated {
				err = fmt.Errorf("in-process ce subscribe: HTTP %d", rw.Code)
			}
		default:
			_, err = (&wsnt.Subscriber{Client: lb, Version: wsnt.V1_3}).Subscribe(ctx, cfg.Address, &wsnt.SubscribeRequest{
				ConsumerReference: wsa.NewEPR(wsa.V200508, addr+"/wsn"),
				TopicExpression:   canon.TopicExpr, TopicDialect: canon.TopicDialect, TopicNS: canon.TopicNS,
				ContentExpr: canon.ContentExpr, ContentNS: canon.ContentNS,
			})
		}
		if err != nil {
			return nil, fmt.Errorf("wsbench: ladder: in-process subscribe %d: %w", i, err)
		}
	}
	us("core.publish_us", timeRung(calls, 1, func(i int) {
		in := at(i)
		_ = br.Publish(in.note.Topic, in.note.Payload)
		if i%128 == 127 {
			br.Flush()
		}
	}))
	br.Flush()
	front := transport.NewHTTPHandler(br.FrontHandler())
	us("transport.handler_us", timeRung(calls, 1, func(i int) {
		req := httptest.NewRequest(http.MethodPost, "/", bytes.NewReader(at(i).soapEnv))
		front.ServeHTTP(httptest.NewRecorder(), req)
		if i%128 == 127 {
			br.Flush()
		}
	}))
	br.Flush()

	// --- mqtt, cloudevents, wspush ---
	st = timeRung(calls, ladderBatch, func(i int) { _, _ = mqtt.DecodePacket(at(i).mqttPkt) })
	put("mqtt.decode_ns", st.medianNS, st.n)
	st = timeRung(calls, ladderBatch, func(i int) { buf, _ = mqtt.AppendPacket(buf[:0], at(i).mqttPub) })
	put("mqtt.encode_ns", st.medianNS, st.n)
	us("cloudevents.parse_us", timeRung(calls, 1, func(i int) { _, _ = cloudevents.ParseJSON(at(i).ceJSON) }))
	us("cloudevents.append_json_us", timeRung(calls, 1, func(i int) { buf = at(i).event.AppendJSON(buf[:0]) }))
	wsStat, err := ladderWSWrite(calls, at)
	if err != nil {
		return nil, err
	}
	us("wspush.write_us", wsStat)

	// --- composite iterations: one ladder.publish span per message, the
	// layer calls on the publish path as its children ---
	if tr != nil {
		since := func() int64 { return int64(time.Since(tr.epoch)) }
		for i := 0; i < 200; i++ {
			in := at(i)
			start := since()
			root := tr.add(0, "ladder.publish", start, start)
			child := func(name string, fn func()) {
				s := since()
				fn()
				tr.add(root, name, s, since())
			}
			child("soap.parse", func() { _, _ = soap.ParseBytes(in.soapEnv) })
			child("mediation.parse_incoming", func() { _, _, _ = mediation.ParseIncoming(in.env) })
			child("filter.accepts", func() {
				_, _ = filters[i%len(filters)].Accepts(filter.Message{Topic: in.note.Topic, Payload: in.note.Payload})
			})
			child("mediation.render_wsn", func() {
				buf = mediation.Render(in.note, consumer, planWSN, "urn:uuid:wsm-9").AppendMarshal(buf[:0])
			})
			child("mediation.stamp", func() { buf = tpls[i%len(tpls)].Stamp(buf[:0], consumer.Address, "urn:uuid:wsm-9", "wsm-1") })
			child("cloudevents.append_json", func() { buf = in.event.AppendJSON(buf[:0]) })
			child("mqtt.encode", func() { buf, _ = mqtt.AppendPacket(buf[:0], in.mqttPub) })
			tr.spans[root-1].EndNS = since()
		}
	}
	return out, nil
}

// ladderWSWrite times Conn.WriteMessage on the server side of a loopback
// WebSocket pair — the direction the broker pushes in — while a client
// drains the other end.
func ladderWSWrite(calls int, at func(int) *ladderInputs) (sampleStat, error) {
	conns := make(chan *wspush.Conn, 1)
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if c, err := wspush.Upgrade(w, r); err == nil {
			conns <- c
		}
	}))
	defer srv.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	client, err := wspush.Dial(ctx, srv.URL)
	if err != nil {
		return sampleStat{}, err
	}
	server := <-conns
	drained := make(chan struct{})
	go func() {
		defer close(drained)
		for {
			if _, _, err := client.ReadMessage(); err != nil {
				return
			}
		}
	}()
	st := timeRung(calls, 1, func(i int) { _ = server.WriteMessage(wspush.OpText, at(i).wsFrame) })
	_ = server.Close()
	_ = client.Close()
	<-drained
	return st, nil
}
