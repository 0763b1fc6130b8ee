package probes

// Delivery transcripts: one scripted scenario per standalone server —
// wse.Source, wsnt.Producer (both versions) and wsen.Producer — driving
// push, pull, wrapped, pause/resume, renew, clock-advanced expiry, a sink
// that fails three times and PublishBatch. Every envelope an endpoint
// receives is recorded in arrival order, interleaved with what each call
// returned, and the transcript must match testdata/transcript_<server>.txt
// byte for byte. Regenerate with: go test ./internal/probes -run Transcript -update

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/soap"
	"repro/internal/topics"
	"repro/internal/transport"
	"repro/internal/wsa"
	"repro/internal/wse"
	"repro/internal/wsen"
	"repro/internal/wsnt"
	"repro/internal/xmldom"
	"repro/internal/xsdt"
)

type transcript struct {
	t     *testing.T
	mu    sync.Mutex
	lines []string
}

func (tr *transcript) logf(format string, args ...any) {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	tr.lines = append(tr.lines, fmt.Sprintf(format, args...))
}

// endpoints binds a recording handler at each address; a failing one
// records the attempt and answers with a fault.
func (tr *transcript) endpoints(lb *transport.Loopback, fail bool, addrs ...string) {
	for _, addr := range addrs {
		verdict := "ok"
		if fail {
			verdict = "FAIL"
		}
		lb.Register(addr, transport.HandlerFunc(func(_ context.Context, env *soap.Envelope) (*soap.Envelope, error) {
			tr.logf("  %s %s %s", addr, verdict, env.Marshal())
			if fail {
				return nil, soap.Faultf(soap.FaultReceiver, "sink down")
			}
			return nil, nil
		}))
	}
}

func (tr *transcript) check(name string) {
	tr.t.Helper()
	got := strings.Join(tr.lines, "\n") + "\n"
	path := filepath.Join("testdata", "transcript_"+name+".txt")
	if *updateGolden {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			tr.t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		tr.t.Fatalf("%s: %v (run with -update to create it)", path, err)
	}
	if string(want) == got {
		return
	}
	wl, gl := strings.Split(string(want), "\n"), strings.Split(got, "\n")
	for i := 0; i < len(wl) || i < len(gl); i++ {
		var w, g string
		if i < len(wl) {
			w = wl[i]
		}
		if i < len(gl) {
			g = gl[i]
		}
		if w != g {
			tr.t.Fatalf("%s: first difference at line %d\n--- want ---\n%s\n--- got ---\n%s", path, i+1, w, g)
		}
	}
}

func (c *clock) advance(d time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.t = c.t.Add(d)
}

func stamp(t time.Time) string {
	if t.IsZero() {
		return "never"
	}
	return xsdt.FormatDateTime(t)
}

func TestDeliveryTranscriptWSE(t *testing.T) {
	tr := &transcript{t: t}
	lb := transport.NewLoopback()
	clk := newClock()
	v := wse.V200408
	src := wse.NewSource(wse.SourceConfig{Version: v, Address: "svc://source", ManagerAddress: "svc://manager",
		Client: lb, Clock: clk.now, WrapBatchSize: 3, PullQueueCap: 4})
	lb.Register("svc://source", src.SourceHandler())
	lb.Register("svc://manager", src.ManagerHandler())
	tr.endpoints(lb, false, "svc://push", "svc://wrap", "svc://short", "svc://ends")
	tr.endpoints(lb, true, "svc://dead")
	sub := &wse.Subscriber{Client: lb, Version: v}
	epr := func(addr string) *wsa.EndpointReference { return wsa.NewEPR(v.WSAVersion(), addr) }
	subscribe := func(name string, req *wse.SubscribeRequest) *wse.Handle {
		h, err := sub.Subscribe(ctx(), "svc://source", req)
		if err != nil {
			t.Fatalf("subscribe %s: %v", name, err)
		}
		tr.logf("subscribe %s -> %s until %s", name, h.ID, stamp(h.Expires))
		return h
	}
	publish := func(val string, topic topics.Path) {
		n, err := src.Publish(ctx(), gridEvent(val), wse.PublishOptions{Topic: topic})
		tr.logf("publish %s -> %d %v", val, n, err)
	}
	pull := func(h *wse.Handle, max int) {
		msgs, err := sub.Pull(ctx(), h, max)
		tr.logf("pull %d -> %d %v", max, len(msgs), err)
		for _, m := range msgs {
			tr.logf("  pulled %s", xmldom.Marshal(m))
		}
	}

	push := subscribe("push", &wse.SubscribeRequest{NotifyTo: epr("svc://push"), EndTo: epr("svc://ends"), Expires: "PT10M"})
	pulled := subscribe("pull", &wse.SubscribeRequest{NotifyTo: epr("svc://push"), Mode: v.DeliveryModePull(), Expires: "PT1H"})
	subscribe("wrap", &wse.SubscribeRequest{NotifyTo: epr("svc://wrap"), Mode: v.DeliveryModeWrap()})
	subscribe("filtered", &wse.SubscribeRequest{NotifyTo: epr("svc://push"),
		FilterExpr: "//t:v = 'b'", FilterNS: map[string]string{"t": "urn:t"}})
	subscribe("short", &wse.SubscribeRequest{NotifyTo: epr("svc://short"), EndTo: epr("svc://ends"), Expires: "PT5M"})
	for _, val := range []string{"a", "b", "c"} {
		publish(val, gridTopic())
	}
	publish("d", topics.Path{})
	pull(pulled, 2)

	granted, err := sub.Renew(ctx(), push, "PT1H")
	tr.logf("renew push -> %s %v", stamp(granted), err)
	clk.advance(7 * time.Minute)
	publish("e", gridTopic())
	tr.logf("scavenge -> %d", src.Scavenge())

	subscribe("dead", &wse.SubscribeRequest{NotifyTo: epr("svc://dead"), EndTo: epr("svc://ends")})
	for _, val := range []string{"f1", "f2", "f3"} {
		publish(val, gridTopic())
	}
	tr.logf("subscriptions %d", src.SubscriptionCount())

	// A wrapped subscription at a failing sink: the Publish that fills its
	// batch is the one the failed send belongs to.
	subscribe("wrap-dead", &wse.SubscribeRequest{NotifyTo: epr("svc://dead"), Mode: v.DeliveryModeWrap()})
	for _, val := range []string{"g1", "g2", "g3", "g4"} {
		publish(val, gridTopic())
	}
	src.FlushWrapped()
	tr.logf("flushed")
	pull(pulled, 0)
	src.Shutdown()
	tr.logf("shutdown, subscriptions %d", src.SubscriptionCount())
	tr.check("wse")
}

func TestDeliveryTranscriptWSN(t *testing.T) {
	for _, v := range []wsnt.Version{wsnt.V1_0, wsnt.V1_3} {
		t.Run(v.String(), func(t *testing.T) { wsnTranscript(t, v) })
	}
}

func wsnTranscript(t *testing.T, v wsnt.Version) {
	tr := &transcript{t: t}
	lb := transport.NewLoopback()
	clk := newClock()
	p := wsnt.NewProducer(wsnt.ProducerConfig{Version: v, Address: "svc://producer", ManagerAddress: "svc://subs",
		Client: lb, Clock: clk.now})
	lb.Register("svc://producer", p.ProducerHandler())
	lb.Register("svc://subs", p.ManagerHandler())
	tr.endpoints(lb, false, "svc://notify", "svc://raw", "svc://content", "svc://short")
	tr.endpoints(lb, true, "svc://dead")
	sub := &wsnt.Subscriber{Client: lb, Version: v}
	tns := map[string]string{"t": "urn:t"}
	subscribe := func(name, consumer string, req wsnt.SubscribeRequest) *wsnt.Handle {
		req.ConsumerReference = wsa.NewEPR(v.WSAVersion(), consumer)
		if req.TopicExpression == "" {
			req.TopicExpression, req.TopicDialect, req.TopicNS = "t:a", topics.DialectConcrete, tns
		}
		h, err := sub.Subscribe(ctx(), "svc://producer", &req)
		if err != nil {
			t.Fatalf("subscribe %s: %v", name, err)
		}
		tr.logf("subscribe %s -> %s until %s", name, h.ID, stamp(h.TerminationTime))
		return h
	}
	publish := func(val string, topic topics.Path) {
		n, err := p.Publish(ctx(), topic, gridEvent(val))
		tr.logf("publish %s -> %d %v", val, n, err)
	}

	notify := subscribe("notify", "svc://notify", wsnt.SubscribeRequest{InitialTerminationTime: "2006-02-01T00:10:00Z"})
	subscribe("raw", "svc://raw", wsnt.SubscribeRequest{UseRaw: true,
		TopicExpression: "t:a//.", TopicDialect: topics.DialectFull, TopicNS: tns})
	subscribe("content", "svc://content", wsnt.SubscribeRequest{ContentExpr: "//t:v != 'b'", ContentNS: tns})
	subscribe("short", "svc://short", wsnt.SubscribeRequest{InitialTerminationTime: "2006-02-01T00:05:00Z"})
	publish("a", gridTopic())
	publish("b", gridTopic())
	publish("off", topics.NewPath("urn:t", "other"))

	tr.logf("pause notify -> %v", sub.Pause(ctx(), notify))
	publish("c", gridTopic())
	tr.logf("resume notify -> %v", sub.Resume(ctx(), notify))
	publish("d", gridTopic())

	granted, err := sub.Renew(ctx(), notify, "2006-02-01T01:00:00Z")
	tr.logf("renew notify -> %s %v", stamp(granted), err)
	clk.advance(7 * time.Minute)
	publish("e", gridTopic())
	tr.logf("scavenge -> %d", p.Scavenge())

	subscribe("dead", "svc://dead", wsnt.SubscribeRequest{})
	for _, val := range []string{"f1", "f2", "f3"} {
		publish(val, gridTopic())
	}
	tr.logf("subscriptions %d", p.SubscriptionCount())

	n, err := p.PublishBatch(ctx(), gridTopic(), []*xmldom.Element{gridEvent("x"), gridEvent("b"), gridEvent("y")})
	tr.logf("publish batch -> %d %v", n, err)
	p.Shutdown()
	tr.logf("shutdown, subscriptions %d", p.SubscriptionCount())
	name := "wsn13"
	if v == wsnt.V1_0 {
		name = "wsn10"
	}
	tr.check(name)
}

func TestDeliveryTranscriptWSEN(t *testing.T) {
	tr := &transcript{t: t}
	lb := transport.NewLoopback()
	clk := newClock()
	p := wsen.NewProducer("svc://conv", "svc://conv-subs", lb, clk.now)
	p.WrapBatchSize = 3
	lb.Register("svc://conv", p.Handler())
	lb.Register("svc://conv-subs", p.Handler())
	tr.endpoints(lb, false, "svc://push", "svc://wrap", "svc://short", "svc://ends")
	tr.endpoints(lb, true, "svc://dead")
	sub := &wsen.Subscriber{Client: lb}
	epr := func(addr string) *wsa.EndpointReference { return wsa.NewEPR(wsa.V200508, addr) }
	subscribe := func(name string, req *wsen.SubscribeRequest) *wsen.Handle {
		h, err := sub.Subscribe(ctx(), "svc://conv", req)
		if err != nil {
			t.Fatalf("subscribe %s: %v", name, err)
		}
		tr.logf("subscribe %s -> %s until %s", name, h.ID, stamp(h.Expires))
		return h
	}
	publish := func(val string) {
		n, err := p.Publish(ctx(), gridTopic(), gridEvent(val))
		tr.logf("publish %s -> %d %v", val, n, err)
	}
	pull := func(h *wsen.Handle, max int) {
		msgs, err := sub.Pull(ctx(), h, max)
		tr.logf("pull %d -> %d %v", max, len(msgs), err)
		for _, m := range msgs {
			tr.logf("  pulled %v %s", m.Topic, xmldom.Marshal(m.Payload))
		}
	}

	push := subscribe("push", &wsen.SubscribeRequest{NotifyTo: epr("svc://push"), EndTo: epr("svc://ends"), Expires: "PT10M",
		TopicExpr: "t:a", TopicDialect: topics.DialectConcrete, TopicNS: map[string]string{"t": "urn:t"}})
	pulled := subscribe("pull", &wsen.SubscribeRequest{Mode: wsen.ModePull})
	subscribe("wrap", &wsen.SubscribeRequest{NotifyTo: epr("svc://wrap"), Mode: wsen.ModeWrap,
		ContentExpr: "//t:v != 'b'", ContentNS: map[string]string{"t": "urn:t"}})
	subscribe("short", &wsen.SubscribeRequest{NotifyTo: epr("svc://short"), EndTo: epr("svc://ends"), Expires: "PT5M"})
	for _, val := range []string{"a", "b", "c"} {
		publish(val)
	}
	pull(pulled, 2)

	tr.logf("pause push -> %v", sub.Pause(ctx(), push))
	publish("d")
	tr.logf("resume push -> %v", sub.Resume(ctx(), push))
	publish("e")

	granted, err := sub.Renew(ctx(), push, "PT1H")
	tr.logf("renew push -> %s %v", stamp(granted), err)
	clk.advance(7 * time.Minute)
	publish("f")

	subscribe("dead", &wsen.SubscribeRequest{NotifyTo: epr("svc://dead"), EndTo: epr("svc://ends")})
	for _, val := range []string{"g1", "g2", "g3", "g4"} {
		publish(val)
	}
	tr.logf("subscriptions %d", p.SubscriptionCount())
	publish("h")
	p.FlushWrapped()
	tr.logf("flushed")
	pull(pulled, 0)
	p.Shutdown()
	tr.logf("shutdown, subscriptions %d", p.SubscriptionCount())
	tr.check("wsen")
}
