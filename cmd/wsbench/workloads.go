package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"strings"

	"repro/internal/cloudevents"
	"repro/internal/mqtt"
	"repro/internal/soap"
	"repro/internal/topics"
	"repro/internal/transport"
	"repro/internal/workload"
	"repro/internal/wsa"
	"repro/internal/wse"
	"repro/internal/wsnt"
	"repro/internal/xmldom"
)

// workloadSpec pins everything about one workload that must be the same
// on every commit. ratePubPerS was set once, on the seed commit, to about
// half the workload's seed burst_pub_per_s (two significant figures); it
// is never derived at run time, so a faster broker is measured at the same
// offered load as the slower one it replaced.
type workloadSpec struct {
	name string
	why  string
	// mqtt turns the MQTT door on; durable gives the broker a -data-dir
	// (durability batch: fsync before ack).
	mqtt, durable bool
	// ratePubPerS is the open-loop publish rate of the paced phase, both
	// publisher connections together.
	ratePubPerS float64
	// burstSize is the publishes per closed-loop burst, both connections
	// together, sized so no subscription is sent more than 200
	// notifications per burst (under the default -queue 256).
	burstSize int
	// bursts is how many bursts a full run makes.
	bursts int
	// fanout is the nominal receipts per publish.
	fanout float64
	// poolPerTopic is how many distinct seeded messages each topic has.
	poolPerTopic int
	// build creates consumers, subscriptions, the message pool and the
	// two publishers on a booted broker.
	build func(ctx context.Context, b *bench) error
}

const nTopics = 8

var workloads = []*workloadSpec{
	{
		name:         "soap_push_fanout",
		why:          "the paper's scenario, cross-spec mediation over SOAP/HTTP: XML parse, render cache, destwriter coalescing and the outbound transport carry the load",
		ratePubPerS:  890,
		burstSize:    200,
		bursts:       36,
		fanout:       8,
		poolPerTopic: 32,
		build:        buildSOAPFanout,
	},
	{
		name:         "session_small_msgs",
		why:          "64-byte messages over MQTT and /ws, where per-message cost dominates; bypasses XML parse, SOAP render and destwriter, so a SOAP-path change must not show here",
		mqtt:         true,
		ratePubPerS:  4300,
		burstSize:    200,
		bursts:       120,
		fanout:       8,
		poolPerTopic: 32,
		build:        buildSessionSmall,
	},
	{
		name:         "content_filter_select",
		why:          "400 XPath content filters of which about 1% match: match cost dominates and delivery is tiny, so compiled or indexed predicates must show here and a delivery-path change must not",
		ratePubPerS:  35,
		burstSize:    24,
		bursts:       12,
		fanout:       3.67,
		poolPerTopic: 64,
		build:        buildContentFilter,
	},
	{
		name:         "durable_log_tail",
		why:          "fsync group commit on the publish path with cursor readers tailing the same log, so a read gain that costs writers (or the reverse) shows",
		durable:      true,
		ratePubPerS:  1300,
		burstSize:    200,
		bursts:       50,
		fanout:       4,
		poolPerTopic: 32,
		build:        buildDurableTail,
	},
}

func workloadByName(name string) *workloadSpec {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// seededTopics draws events from the repo's workload generator until
// every topic has per messages, returning them grouped by topic.
func seededEvents(seed int64, size workload.Size, per int) (tps []topics.Path, byTopic [][]*xmldom.Element) {
	// A vanishing hot-topic bias makes the generator's topic choice
	// uniform; the bench publishes topics round-robin anyway, so the
	// generator only has to fill every topic's pool.
	g := workload.New(workload.Config{Seed: seed, Size: size, TopicFanout: nTopics, HotTopicBias: 1e-12})
	tps = g.Topics()
	index := map[string]int{}
	for i, tp := range tps {
		index[tp.String()] = i
	}
	byTopic = make([][]*xmldom.Element, len(tps))
	for filled := 0; filled < len(tps); {
		ev := g.Next()
		i := index[ev.Topic.String()]
		if len(byTopic[i]) < per {
			byTopic[i] = append(byTopic[i], ev.Payload)
			if len(byTopic[i]) == per {
				filled++
			}
		}
	}
	return tps, byTopic
}

// interleave flattens per-topic pools so that consecutive pool indexes
// walk the topics round-robin: message i is on topic i % nTopics, which
// gives every subscription an exact, seed-independent share of each burst.
func interleave(byTopic [][]*message) []*message {
	var out []*message
	for j := 0; j < len(byTopic[0]); j++ {
		for t := range byTopic {
			out = append(out, byTopic[t][j])
		}
	}
	return out
}

// notifyForm renders a WS-Notification 1.3 Notify publish.
func notifyForm(to string, tp topics.Path, payload *xmldom.Element) (form, error) {
	env := soap.New(soap.V11)
	(&wsa.MessageHeaders{Version: wsa.V200508, To: to, Action: wsnt.V1_3.ActionNotify()}).Apply(env)
	env.AddBody(wsnt.NotifyElement(wsnt.V1_3, []*wsnt.NotificationMessage{{Topic: tp, Payload: payload.Clone()}}))
	return newForm(env.Marshal(), soap.V11.ContentType())
}

// rawForm renders a WS-Eventing-style raw publish with the topic in the
// broker's extension header.
func rawForm(to string, tp topics.Path, payload *xmldom.Element) (form, error) {
	env := soap.New(soap.V11)
	(&wsa.MessageHeaders{Version: wsa.V200408, To: to, Action: "urn:wsbench:publish"}).Apply(env)
	env.AddHeader(xmldom.Elem(wse.TopicHeaderName.Space, wse.TopicHeaderName.Local, tp.String()))
	env.AddBody(payload.Clone())
	return newForm(env.Marshal(), soap.V11.ContentType())
}

// stampedPayload appends the blank stamp element to a generated payload.
func stampedPayload(p *xmldom.Element) *xmldom.Element {
	p = p.Clone()
	p.Append(xmldom.Elem(workload.NS, "stamp", stampBlank))
	return p
}

func soapClient() *transport.HTTPClient {
	return &transport.HTTPClient{HC: &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 2}}}
}

func (b *bench) subscribeWSN(ctx context.Context, c transport.Client, s *sink, idx int, req *wsnt.SubscribeRequest) error {
	req.ConsumerReference = wsa.NewEPR(wsa.V200508, s.url+"/wsn")
	h, err := (&wsnt.Subscriber{Client: c, Version: wsnt.V1_3}).Subscribe(ctx, b.br.url("/"), req)
	if err != nil {
		return fmt.Errorf("wsn subscribe %d: %w", idx, err)
	}
	b.subs[idx] = subscriber{kind: kindWSN, id: h.ID, mult: 1}
	s.wsnIDs[h.ID] = uint16(idx)
	return nil
}

func (b *bench) subscribeCE(ctx context.Context, s *sink, idx int, topic topics.Path) error {
	body, _ := json.Marshal(map[string]string{"sink": fmt.Sprintf("%s/ce/%d", s.url, idx), "topic": topic.String()})
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, b.br.url("/ce"), bytes.NewReader(body))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := b.br.hc.Do(req)
	if err != nil {
		return fmt.Errorf("ce subscribe %d: %w", idx, err)
	}
	defer resp.Body.Close()
	var reply struct{ ID, Error string }
	raw, _ := io.ReadAll(resp.Body)
	_ = json.Unmarshal(raw, &reply)
	if resp.StatusCode != http.StatusCreated || reply.ID == "" {
		return fmt.Errorf("ce subscribe %d: HTTP %d %s", idx, resp.StatusCode, reply.Error)
	}
	b.subs[idx] = subscriber{kind: kindCE, id: reply.ID, mult: 1}
	return nil
}

func (b *bench) addSinks(n int) error {
	for i := 0; i < n; i++ {
		s, err := startSink(b.epoch)
		if err != nil {
			return err
		}
		b.sinks = append(b.sinks, s)
		b.addRecorder(&s.rec)
	}
	return nil
}

func (b *bench) httpPublishers(url string) {
	for p := 0; p < nPublishers; p++ {
		b.pubs = append(b.pubs, newHTTPPublisher(p, url))
	}
}

// buildSOAPFanout: 43 push subscriptions on 4 sink hosts — per topic three
// WS-Notification 1.3 and two CloudEvents structured webhooks spread over
// the hosts, plus three WS-Eventing 8/2004 subscriptions that take every
// publish — and publishes alternating WSN Notify with WSE
// raw-plus-topic-header. Fan-out 8. WS-Eventing has no topic filter (the
// paper's §V.3): its subscribers are unfiltered here, because binding them
// to a topic takes an XPath filter each, and 24 of those made this a
// second content-filter workload (700 publishes/s, most of it in XPath).
func buildSOAPFanout(ctx context.Context, b *bench) error {
	if err := b.addSinks(4); err != nil {
		return err
	}
	tps, events := seededEvents(b.seed, workload.Medium, b.spec.poolPerTopic)
	b.topics = tps
	c := soapClient()
	defer c.HC.CloseIdleConnections()
	const nWSE = 3
	kinds := [5]subKind{kindWSN, kindWSN, kindWSN, kindCE, kindCE}
	b.subs = make([]subscriber, nWSE+nTopics*len(kinds))
	var firehose []uint16
	for idx := 0; idx < nWSE; idx++ {
		h, err := (&wse.Subscriber{Client: c, Version: wse.V200408}).Subscribe(ctx, b.br.url("/"), &wse.SubscribeRequest{
			NotifyTo: wsa.NewEPR(wsa.V200408, fmt.Sprintf("%s/wse/%d", b.sinks[idx].url, idx)),
		})
		if err != nil {
			return fmt.Errorf("wse subscribe %d: %w", idx, err)
		}
		b.subs[idx] = subscriber{kind: kindWSE, id: h.ID, mult: 1}
		firehose = append(firehose, uint16(idx))
	}
	byTopic := make([][]uint16, nTopics)
	for t, tp := range tps {
		byTopic[t] = append(byTopic[t], firehose...)
		for j, kind := range kinds {
			idx := nWSE + t*len(kinds) + j
			s := b.sinks[(j+t)%len(b.sinks)]
			var err error
			if kind == kindWSN {
				err = b.subscribeWSN(ctx, c, s, idx, &wsnt.SubscribeRequest{
					TopicExpression: "w:" + strings.Join(tp.Segments, "/"),
					TopicDialect:    topics.DialectConcrete,
					TopicNS:         map[string]string{"w": tp.Namespace},
				})
			} else {
				err = b.subscribeCE(ctx, s, idx, tp)
			}
			if err != nil {
				return err
			}
			byTopic[t] = append(byTopic[t], uint16(idx))
		}
	}
	b.markSubscribed()
	pools := make([][]*message, nTopics)
	for t, tp := range tps {
		for _, ev := range events[t] {
			m := &message{topic: t, recv: byTopic[t], payload: stampedPayload(ev)}
			nf, err := notifyForm(b.br.url("/"), tp, m.payload)
			if err != nil {
				return err
			}
			rf, err := rawForm(b.br.url("/"), tp, m.payload)
			if err != nil {
				return err
			}
			m.forms = []form{nf, rf}
			pools[t] = append(pools[t], m)
		}
	}
	b.msgs = interleave(pools)
	b.httpPublishers(b.br.url("/"))
	return nil
}

// sessionTopic names topic i on the MQTT door; its Clark form lives in
// the MQTT default namespace.
func sessionTopic(i int) string { return fmt.Sprintf("wsb/t%d/ev", i) }

// smallJSON builds a JSON payload of exactly n bytes around a blank stamp.
func smallJSON(rng *rand.Rand, n int) []byte {
	const head, mid, tail = `{"s":"`, `","v":"`, `"}`
	pad := n - len(head) - stampLen - len(mid) - len(tail)
	v := make([]byte, pad)
	for i := range v {
		v[i] = "0123456789abcdef"[rng.Intn(16)]
	}
	return []byte(head + stampBlank + mid + string(v) + tail)
}

// buildSessionSmall: two MQTT QoS 1 publishers; two MQTT consumers (QoS 0
// and QoS 1, each holding the exact filter and a `+` filter per topic, so
// each sees every publish twice) and two /ws connections (an exact-topic
// subscription per topic plus a catch-all each). Fan-out 8.
func buildSessionSmall(ctx context.Context, b *bench) error {
	rng := rand.New(rand.NewSource(b.seed))
	b.topics = make([]topics.Path, nTopics)
	var filters []string
	for i := range b.topics {
		tp, err := mqtt.PathForTopic(sessionTopic(i))
		if err != nil {
			return err
		}
		b.topics[i] = tp
		filters = append(filters, sessionTopic(i), fmt.Sprintf("wsb/t%d/+", i))
	}
	// Subscribers 0 and 1 are the MQTT connections; then per /ws
	// connection its eight exact subscriptions and its catch-all.
	b.subs = make([]subscriber, 2+2*(nTopics+1))
	for i, qos := range []byte{0, 1} {
		c, err := dialMQTTConsumer(b.epoch, b.br.mqttAddr, fmt.Sprintf("wsbench-con-%d", i), uint16(i), qos, filters)
		if err != nil {
			return err
		}
		b.mqttC = append(b.mqttC, c)
		b.addRecorder(&c.rec)
		b.subs[i] = subscriber{kind: kindMQTT, mult: 2, qos: qos}
	}
	byTopic := make([][]uint16, nTopics)
	for t := range byTopic {
		byTopic[t] = []uint16{0, 1}
	}
	for w := 0; w < 2; w++ {
		c, err := dialWSConsumer(ctx, b.epoch, "ws://"+b.br.httpAddr+"/ws")
		if err != nil {
			return err
		}
		b.wsC = append(b.wsC, c)
		b.addRecorder(&c.rec)
		base := 2 + w*(nTopics+1)
		for t := 0; t <= nTopics; t++ {
			topic := ""
			if t < nTopics {
				topic = b.topics[t].String()
			}
			sid, err := c.subscribe(topic, uint16(base+t))
			if err != nil {
				return err
			}
			b.subs[base+t] = subscriber{kind: kindWS, id: sid, mult: 1}
			if t < nTopics {
				byTopic[t] = append(byTopic[t], uint16(base+t))
			} else {
				for u := range byTopic {
					byTopic[u] = append(byTopic[u], uint16(base+t))
				}
			}
		}
		c.start()
	}
	b.markSubscribed()
	pools := make([][]*message, nTopics)
	for t := range pools {
		for j := 0; j < b.spec.poolPerTopic; j++ {
			data := smallJSON(rng, 64)
			f, err := newForm(data, "")
			if err != nil {
				return err
			}
			f.topic = sessionTopic(t)
			pools[t] = append(pools[t], &message{topic: t, recv: byTopic[t], data: data, forms: []form{f}})
		}
	}
	b.msgs = interleave(pools)
	for p := 0; p < nPublishers; p++ {
		pub, err := dialMQTTPublisher(p, b.br.mqttAddr)
		if err != nil {
			return err
		}
		b.pubs = append(b.pubs, pub)
	}
	return nil
}

// jobFields are the generated values the content filters select on.
type jobFields struct{ user, queue, exitCode string }

func fieldsOf(p *xmldom.Element) jobFields {
	f := jobFields{
		user:  p.ChildText(xmldom.N(workload.NS, "user")),
		queue: p.ChildText(xmldom.N(workload.NS, "queue")),
	}
	if res := p.Child(xmldom.N(workload.NS, "resources")); res != nil {
		f.exitCode = res.ChildText(xmldom.N(workload.NS, "exitCode"))
	}
	return f
}

// contentFilter is subscription j's filter: the XPath the broker gets and
// the same predicate in Go, which is what the oracle trusts — the expected
// receivers never come from internal/xpath.
type contentFilter struct {
	expr  string
	match func(jobFields) bool
}

// contentFilterFor builds filter j of 400: eight variants for each of the
// generator's 50 users. A publish names one user, so eight filters get
// past the first conjunct and on average 3.67 accept (0.92% of 400).
func contentFilterFor(j int) contentFilter {
	user := fmt.Sprintf("user%02d", j%50)
	// The broker evaluates a content filter against the whole message it
	// arrived in (the payload stays attached to its envelope), so paths
	// are written the way its own tests write them: from anywhere.
	const u, q, e = "//w:user", "//w:queue", "//w:exitCode"
	and := func(cond string) string { return fmt.Sprintf("%s='%s' and %s", u, user, cond) }
	switch v := j / 50; v {
	case 0, 1, 2:
		queue := []string{"batch", "interactive", "gpu"}[v]
		return contentFilter{and(fmt.Sprintf("%s='%s'", q, queue)),
			func(f jobFields) bool { return f.user == user && f.queue == queue }}
	case 3, 4, 5:
		code := fmt.Sprint(v - 3)
		return contentFilter{and(fmt.Sprintf("%s='%s'", e, code)),
			func(f jobFields) bool { return f.user == user && f.exitCode == code }}
	case 6:
		return contentFilter{fmt.Sprintf("%s='%s'", u, user),
			func(f jobFields) bool { return f.user == user }}
	default:
		return contentFilter{and(fmt.Sprintf("(%s!='batch' or %s='0')", q, e)),
			func(f jobFields) bool { return f.user == user && (f.queue != "batch" || f.exitCode == "0") }}
	}
}

const nContentSubs = 400

// buildContentFilter: 400 WS-Notification 1.3 subscriptions on one sink
// host, no topic filter, each with an XPath content filter; WSN Notify
// publishes of Medium payloads.
func buildContentFilter(ctx context.Context, b *bench) error {
	if err := b.addSinks(1); err != nil {
		return err
	}
	tps, events := seededEvents(b.seed, workload.Medium, b.spec.poolPerTopic)
	b.topics = tps
	c := soapClient()
	defer c.HC.CloseIdleConnections()
	b.subs = make([]subscriber, nContentSubs)
	filters := make([]contentFilter, nContentSubs)
	for j := range filters {
		filters[j] = contentFilterFor(j)
		err := b.subscribeWSN(ctx, c, b.sinks[0], j, &wsnt.SubscribeRequest{
			ContentExpr: filters[j].expr,
			ContentNS:   map[string]string{"w": workload.NS},
		})
		if err != nil {
			return err
		}
	}
	b.markSubscribed()
	pools := make([][]*message, nTopics)
	for t, tp := range tps {
		for _, ev := range events[t] {
			m := &message{topic: t, payload: stampedPayload(ev)}
			fields := fieldsOf(ev)
			for j, f := range filters {
				if f.match(fields) {
					m.recv = append(m.recv, uint16(j))
				}
			}
			nf, err := notifyForm(b.br.url("/"), tp, m.payload)
			if err != nil {
				return err
			}
			m.forms = []form{nf}
			pools[t] = append(pools[t], m)
		}
	}
	b.msgs = interleave(pools)
	b.httpPublishers(b.br.url("/"))
	return nil
}

// ceSource is the CloudEvents source of the bench's publishes.
const ceSource = "urn:wsbench:publisher"

// buildDurableTail: structured CloudEvents on /ce into a broker with a
// data dir; four unfiltered WS-Notification 1.3 subscriptions on one host.
// The event id is the stamp, so it is unique per publish as CloudEvents
// requires and survives into the XML bridge form as an attribute. The
// cursor readers are started by the run, not here.
func buildDurableTail(ctx context.Context, b *bench) error {
	if err := b.addSinks(1); err != nil {
		return err
	}
	tps, events := seededEvents(b.seed, workload.Small, b.spec.poolPerTopic)
	b.topics = tps
	c := soapClient()
	defer c.HC.CloseIdleConnections()
	b.subs = make([]subscriber, 4)
	all := make([]uint16, len(b.subs))
	for j := range b.subs {
		if err := b.subscribeWSN(ctx, c, b.sinks[0], j, &wsnt.SubscribeRequest{}); err != nil {
			return err
		}
		all[j] = uint16(j)
	}
	b.markSubscribed()
	pools := make([][]*message, nTopics)
	for t, tp := range tps {
		for _, ev := range events[t] {
			data, _ := json.Marshal(map[string]string{
				"seq":   ev.ChildText(xmldom.N(workload.NS, "seq")),
				"job":   ev.ChildText(xmldom.N(workload.NS, "job")),
				"state": ev.ChildText(xmldom.N(workload.NS, "state")),
			})
			body := (&cloudevents.Event{
				SpecVersion: cloudevents.SpecVersion, ID: stampBlank, Source: ceSource,
				Type: cloudevents.TypeForTopic(tp), DataContentType: "application/json", Data: data,
			}).JSON()
			f, err := newForm(body, cloudevents.ContentTypeJSON)
			if err != nil {
				return err
			}
			pools[t] = append(pools[t], &message{topic: t, recv: all, data: data, forms: []form{f}})
		}
	}
	b.msgs = interleave(pools)
	b.httpPublishers(b.br.url("/ce"))
	return nil
}
