package core

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/cloudevents"
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
)

// The guard for the single render and wire step: every kind of subscriber
// the broker knows, each served once with the per-destination pool on, once
// with it off and once over a client with no raw-bytes path, must see the
// identical multiset of notifications.

// seen collects, per subscriber kind, what its consumer received — one
// normalised line per notification: dialect | topic | payload |
// subscription id (where the dialect carries one). MessageIDs and minted
// CloudEvents ids are per-delivery and deliberately left out.
type seen struct {
	mu    sync.Mutex
	by    map[string][]string
	grown chan struct{} // signalled on every add, for the socket consumers
	self  string        // the broker's per-run base URL, masked out of lines
}

func newSeen() *seen { return &seen{by: map[string][]string{}, grown: make(chan struct{}, 1)} }

func (s *seen) add(kind string, fields ...string) {
	line := strings.ReplaceAll(strings.Join(fields, " | "), s.self, "broker:")
	s.mu.Lock()
	s.by[kind] = append(s.by[kind], line)
	s.mu.Unlock()
	select {
	case s.grown <- struct{}{}:
	default:
	}
}

func (s *seen) count(kind string) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.by[kind])
}

// await blocks until kind has n lines (socket consumers receive after the
// broker's delivery call has already returned).
func (s *seen) await(t *testing.T, kind string, n int) {
	t.Helper()
	deadline := time.After(10 * time.Second)
	for s.count(kind) < n {
		select {
		case <-s.grown:
		case <-deadline:
			t.Fatalf("%s: received %d of %d notifications", kind, s.count(kind), n)
		}
	}
}

// sorted returns every kind's lines as a sorted multiset.
func (s *seen) sorted() map[string][]string {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := map[string][]string{}
	for k, v := range s.by {
		out[k] = append([]string(nil), v...)
		sort.Strings(out[k])
	}
	return out
}

// soapConsumer records a SOAP consumer endpoint's deliveries under kind,
// telling the dialect from the envelope itself.
func (s *seen) soapConsumer(kind string) http.Handler {
	return transport.NewHTTPHandler(transport.HandlerFunc(func(_ context.Context, env *soap.Envelope) (*soap.Envelope, error) {
		body := env.FirstBody()
		hd, _ := wsa.ParseHeaders(env)
		switch {
		case body.Name.Local == "Notify":
			msgs, v, err := wsnt.ParseNotify(body)
			if err != nil {
				return nil, err
			}
			for _, m := range msgs {
				sid := ""
				if m.SubscriptionReference != nil {
					for _, p := range m.SubscriptionReference.IdentityParameters() {
						if p.Name == v.SubscriptionIDName() {
							sid = strings.TrimSpace(p.Text())
						}
					}
				}
				s.add(kind, v.String(), m.Topic.String(), xmldom.Marshal(m.Payload), sid)
			}
		case body.Name == wse.WrappedName:
			for _, m := range body.ChildrenNamed(xmldom.N(wse.WrappedName.Space, "Message")) {
				s.add(kind, "WS-Eventing wrapped, WSA "+hd.Version.String(), "", xmldom.Marshal(m.ChildElements()[0]))
			}
		default:
			ns, d, err := mediation.ParseIncoming(env)
			if err != nil {
				return nil, err
			}
			s.add(kind, d.String(), ns[0].Topic.String(), xmldom.Marshal(ns[0].Payload))
		}
		return nil, nil
	}))
}

// ceLine normalises one received CloudEvent. A producer-assigned id
// survives the broker and is compared; a broker-minted one is not.
func ceLine(mode string, ev *cloudevents.Event) []string {
	id := ev.ID
	if strings.HasPrefix(id, "urn:uuid:wsm-") {
		id = "(minted)"
	}
	return []string{"CloudEvents " + mode, ev.Type, string(ev.Data), ev.Source + " " + id}
}

// ceConsumer records a CloudEvents HTTP consumer endpoint's deliveries.
func (s *seen) ceConsumer(kind string) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		body, _ := io.ReadAll(r.Body)
		ct := r.Header.Get("Content-Type")
		var evs []*cloudevents.Event
		var err error
		mode := "structured"
		switch {
		case cloudevents.IsBinaryRequest(r.Header):
			var ev *cloudevents.Event
			ev, err = cloudevents.FromBinary(r.Header, body)
			evs, mode = []*cloudevents.Event{ev}, "binary"
		case strings.HasPrefix(ct, cloudevents.ContentTypeBatch):
			evs, err = cloudevents.ParseBatchJSON(body)
			mode = "batched"
		default:
			var ev *cloudevents.Event
			ev, err = cloudevents.ParseJSON(body)
			evs = []*cloudevents.Event{ev}
		}
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		for _, ev := range evs {
			s.add(kind, ceLine(mode, ev)...)
		}
		w.WriteHeader(http.StatusNoContent)
	})
}

// envelopeOnly hides a client's raw-bytes path: the broker sees a plain
// transport.Client (plus the CloudEvents raw sender, without which /ce
// refuses subscriptions), so every SOAP delivery takes post's re-parse.
type envelopeOnly struct {
	transport.Client
	transport.RawSender
}

// runSubscriberKinds boots a broker over real sockets, subscribes one
// consumer of every kind, publishes through three doors and returns what
// each consumer saw, after checking the engine counters.
func runSubscriberKinds(t *testing.T, batchMax int, plainClient bool) map[string][]string {
	t.Helper()
	ctx := context.Background()
	got := newSeen()
	httpClient := &transport.HTTPClient{HC: &http.Client{Timeout: 10 * time.Second}}
	var client transport.Client = httpClient
	if plainClient {
		client = envelopeOnly{httpClient, httpClient}
	}

	mux := http.NewServeMux()
	brokerSrv := httptest.NewServer(mux)
	defer brokerSrv.Close()
	got.self = brokerSrv.URL

	consumers := http.NewServeMux()
	for _, kind := range []string{"WSE 1/2004", "WSE 8/2004 push", "WSE wrapped", "WSN 1.0", "WSN 1.3", "restored"} {
		consumers.Handle("/"+strings.ReplaceAll(kind, " ", "-"), got.soapConsumer(kind))
	}
	for _, kind := range []string{"CE structured", "CE batched", "CE binary"} {
		consumers.Handle("/"+strings.ReplaceAll(kind, " ", "-"), got.ceConsumer(kind))
	}
	consumerSrv := httptest.NewServer(consumers)
	defer consumerSrv.Close()
	at := func(kind string) string { return consumerSrv.URL + "/" + strings.ReplaceAll(kind, " ", "-") }

	cfg := Config{
		Address:        brokerSrv.URL + "/",
		ManagerAddress: brokerSrv.URL + "/manage",
		Client:         client,
		BatchMax:       batchMax,
		BatchWindow:    time.Millisecond,
		WrapBatchSize:  2, // five publishes: two full wrapped batches and a flushed partial
	}
	wsnReq := func(kind string) *wsnt.SubscribeRequest {
		return &wsnt.SubscribeRequest{
			ConsumerReference: wsa.NewEPR(wsa.V200508, at(kind)),
			TopicExpression:   "g:jobs",
			TopicDialect:      topics.DialectSimple,
			TopicNS:           map[string]string{"g": "urn:grid"},
		}
	}

	// The restored row: a first broker life grants a WSN 1.3 subscription
	// and snapshots it; the broker under test reloads it before any other
	// subscription exists, so ids line up across columns.
	var snapshot bytes.Buffer
	{
		first, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		h := transport.NewHTTPHandler(first.FrontHandler())
		mux.Handle("/first", h)
		s := &wsnt.Subscriber{Client: httpClient, Version: wsnt.V1_3}
		if _, err := s.Subscribe(ctx, brokerSrv.URL+"/first", wsnReq("restored")); err != nil {
			t.Fatalf("first life subscribe: %v", err)
		}
		if err := first.SaveSubscriptions(&snapshot); err != nil {
			t.Fatal(err)
		}
		first.Shutdown()
	}

	broker, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer broker.Shutdown()
	if pooled := broker.DestWriter() != nil; pooled != (batchMax > 1 && !plainClient) {
		t.Fatalf("dest pool present = %v with BatchMax %d, plain client %v", pooled, batchMax, plainClient)
	}
	mux.Handle("/", transport.NewHTTPHandler(broker.FrontHandler()))
	mux.Handle("/manage", transport.NewHTTPHandler(broker.ManagerHandler()))
	mux.Handle("/ce", broker.CEHandler())
	mux.Handle("/ws", broker.WSHandler())
	mqttLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer mqttLn.Close()
	go broker.ServeMQTT(mqttLn)

	if n, err := broker.RestoreSubscriptions(&snapshot); err != nil || n != 1 {
		t.Fatalf("restore: n=%d err=%v", n, err)
	}

	// One subscriber per kind, in a fixed order.
	var pullHandle *wse.Handle
	pullSub := &wse.Subscriber{Client: httpClient, Version: wse.V200408}
	for _, row := range []struct {
		kind string
		v    wse.Version
		mode string
	}{
		{"WSE 1/2004", wse.V200401, ""},
		{"WSE 8/2004 push", wse.V200408, ""},
		{"WSE wrapped", wse.V200408, wse.V200408.DeliveryModeWrap()},
		{"WSE pull", wse.V200408, wse.V200408.DeliveryModePull()},
	} {
		s := &wse.Subscriber{Client: httpClient, Version: row.v}
		h, err := s.Subscribe(ctx, brokerSrv.URL+"/", &wse.SubscribeRequest{
			NotifyTo: wsa.NewEPR(row.v.WSAVersion(), at(row.kind)), Mode: row.mode,
		})
		if err != nil {
			t.Fatalf("%s subscribe: %v", row.kind, err)
		}
		if row.kind == "WSE pull" {
			pullHandle = h
		}
	}
	for _, v := range []wsnt.Version{wsnt.V1_0, wsnt.V1_3} {
		kind := strings.Replace(v.String(), "WS-Notification", "WSN", 1)
		s := &wsnt.Subscriber{Client: httpClient, Version: v}
		if _, err := s.Subscribe(ctx, brokerSrv.URL+"/", wsnReq(kind)); err != nil {
			t.Fatalf("%s subscribe: %v", kind, err)
		}
	}
	for _, mode := range []string{mediation.CEStructured, mediation.CEBatched, mediation.CEBinary} {
		ctrl := fmt.Sprintf(`{"sink":%q,"topic":"{urn:grid}jobs","mode":%q}`, at("CE "+mode), mode)
		resp, err := http.Post(brokerSrv.URL+"/ce", "application/json", strings.NewReader(ctrl))
		if err != nil || resp.StatusCode != http.StatusCreated {
			t.Fatalf("CE %s subscribe: %v %v", mode, err, resp)
		}
		resp.Body.Close()
	}

	dialCtx, cancel := context.WithTimeout(ctx, 10*time.Second)
	defer cancel()
	ws, err := wspush.Dial(dialCtx, brokerSrv.URL+"/ws")
	if err != nil {
		t.Fatalf("ws dial: %v", err)
	}
	defer ws.Close()
	if err := ws.WriteMessage(wspush.OpText, []byte(`{"action":"subscribe","topic":"{urn:grid}jobs"}`)); err != nil {
		t.Fatal(err)
	}
	wsFrame := func() wsReply {
		_ = ws.SetReadDeadline(time.Now().Add(10 * time.Second))
		var r wsReply
		if _, p, err := ws.ReadMessage(); err == nil {
			_ = json.Unmarshal(p, &r)
		}
		return r
	}
	if r := wsFrame(); r.Action != "subscribed" {
		t.Fatalf("ws subscribe reply: %+v", r)
	}
	go func() {
		for r := wsFrame(); r.Action == "event"; r = wsFrame() {
			ev, err := cloudevents.ParseJSON(r.Event)
			if err != nil {
				return
			}
			got.add("/ws", append(ceLine("over /ws", ev), r.SID)...)
		}
	}()

	mc, _, err := mqtt.Dial(mqttLn.Addr().String(), mqtt.ConnectOptions{ClientID: "kinds", CleanSession: true})
	if err != nil {
		t.Fatalf("mqtt dial: %v", err)
	}
	defer mc.Close()
	if codes, err := mc.Subscribe(mqtt.TopicFilterQoS{Filter: "{urn:grid}jobs", QoS: 1}); err != nil || codes[0] != 1 {
		t.Fatalf("mqtt subscribe: codes=%v err=%v", codes, err)
	}
	go func() {
		for m := range mc.Messages() {
			got.add("MQTT QoS 1", fmt.Sprintf("MQTT QoS %d", m.QoS), m.Topic, string(m.Payload))
		}
	}()

	// Five publishes through three doors: the local API (synthesised
	// CloudEvents on egress), the CloudEvents ingress (a preserved event,
	// whose templates have no splice slot) and the SOAP front door.
	const publishes = 5
	for i := 0; i < 3; i++ {
		if err := broker.Publish(grid, event(fmt.Sprint("local-", i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := broker.PublishCE(&cloudevents.Event{
		SpecVersion: cloudevents.SpecVersion, ID: "producer-1", Source: "urn:test:producer",
		Type: "{urn:grid}jobs", Data: json.RawMessage(`{"n":7}`), DataContentType: "application/json",
	}); err != nil {
		t.Fatal(err)
	}
	env := soap.New(soap.V11)
	(&wsa.MessageHeaders{Version: wsa.V200508, To: brokerSrv.URL + "/", Action: wsnt.V1_3.ActionNotify()}).Apply(env)
	env.AddBody(wsnt.NotifyElement(wsnt.V1_3, []*wsnt.NotificationMessage{{Topic: grid, Payload: event("soap")}}))
	if err := httpClient.Send(ctx, brokerSrv.URL+"/", env); err != nil {
		t.Fatal(err)
	}
	broker.Flush()

	pulled, err := pullSub.Pull(ctx, pullHandle, 0)
	if err != nil {
		t.Fatalf("pull: %v", err)
	}
	for _, p := range pulled {
		got.add("WSE pull", "WS-Eventing pull", "", xmldom.Marshal(p))
	}
	got.await(t, "/ws", publishes)
	got.await(t, "MQTT QoS 1", publishes)

	const kinds = 12
	st := conserve(t, broker)
	if st.Matched != kinds*publishes || st.Delivered != st.Matched {
		t.Errorf("engine counters = %+v, want %d matched and all delivered", st, kinds*publishes)
	}
	out := got.sorted()
	if len(out) != kinds {
		t.Errorf("%d kinds received anything, want %d", len(out), kinds)
	}
	for kind, lines := range out {
		if len(lines) != publishes {
			t.Errorf("%s received %d notifications, want %d:\n%s", kind, len(lines), publishes, strings.Join(lines, "\n"))
		}
	}
	return out
}

// TestSubscriberKindsSeeTheSameNotifications is the table: rows are the
// subscriber kinds, columns the wire tails.
func TestSubscriberKindsSeeTheSameNotifications(t *testing.T) {
	poolOff := runSubscriberKinds(t, 0, false)
	for name, col := range map[string]map[string][]string{
		"pool on":              runSubscriberKinds(t, 8, false),
		"envelope-only client": runSubscriberKinds(t, 8, true),
	} {
		for kind, want := range poolOff {
			if !reflect.DeepEqual(col[kind], want) {
				t.Errorf("%s, %s:\n got  %s\n want %s (pool off)", kind, name,
					strings.Join(col[kind], "\n      "), strings.Join(want, "\n      "))
			}
		}
	}
	// Spot-check the rows are what they claim to be, not merely equal.
	for kind, fragment := range map[string]string{
		"WSE 1/2004":      "WS-Eventing 1/2004 | {urn:grid}jobs",
		"WSE 8/2004 push": "WS-Eventing 8/2004 | {urn:grid}jobs",
		"WSE wrapped":     "WS-Eventing wrapped, WSA 2004/08",
		"WSN 1.0":         "WS-Notification 1.0 | {urn:grid}jobs",
		"WSN 1.3":         "WS-Notification 1.3 | {urn:grid}jobs",
		"restored":        " | wsm-1",
		"CE structured":   "CloudEvents structured | {urn:grid}jobs",
		"CE batched":      "CloudEvents batched | {urn:grid}jobs",
		"CE binary":       "urn:test:producer producer-1",
		"/ws":             "CloudEvents over /ws | {urn:grid}jobs",
		"MQTT QoS 1":      `MQTT QoS 1 | {urn:grid}jobs | {"n":7}`,
		"WSE pull":        "WS-Eventing pull",
	} {
		if !strings.Contains(strings.Join(poolOff[kind], "\n"), fragment) {
			t.Errorf("%s: no line contains %q:\n%s", kind, fragment, strings.Join(poolOff[kind], "\n"))
		}
	}
}
