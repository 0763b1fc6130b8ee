package wsnt

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"repro/internal/soap"
	"repro/internal/topics"
	"repro/internal/transport"
	"repro/internal/wsa"
	"repro/internal/xmldom"
)

type clock struct {
	mu sync.Mutex
	t  time.Time
}

func (c *clock) now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *clock) advance(d time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.t = c.t.Add(d)
}

type fixture struct {
	lb       *transport.Loopback
	producer *Producer
	consumer *Consumer
	sub      *Subscriber
	clock    *clock
}

func newFixture(t *testing.T, v Version, mutate ...func(*ProducerConfig)) *fixture {
	t.Helper()
	lb := transport.NewLoopback()
	clk := &clock{t: time.Date(2006, 2, 1, 0, 0, 0, 0, time.UTC)}
	cfg := ProducerConfig{
		Version:        v,
		Address:        "svc://producer",
		ManagerAddress: "svc://subs",
		Client:         lb,
		Clock:          clk.now,
	}
	for _, m := range mutate {
		m(&cfg)
	}
	p := NewProducer(cfg)
	lb.Register("svc://producer", p.ProducerHandler())
	lb.Register("svc://subs", p.ManagerHandler())
	consumer := &Consumer{}
	lb.Register("svc://consumer", consumer)
	return &fixture{lb: lb, producer: p, consumer: consumer, clock: clk,
		sub: &Subscriber{Client: lb, Version: v}}
}

var tns = map[string]string{"t": "urn:grid"}

func jobTopic(segs ...string) topics.Path { return topics.NewPath("urn:grid", segs...) }

func jobEvent(state string) *xmldom.Element {
	return xmldom.Elem("urn:grid", "JobStatus",
		xmldom.Elem("urn:grid", "state", state))
}

func (f *fixture) subscribe(t *testing.T, req *SubscribeRequest) *Handle {
	t.Helper()
	if req.ConsumerReference == nil {
		req.ConsumerReference = wsa.NewEPR(f.sub.Version.WSAVersion(), "svc://consumer")
	}
	if f.sub.Version.RequiresTopic() && req.TopicExpression == "" {
		req.TopicExpression = "t:jobs"
		req.TopicDialect = topics.DialectSimple
		req.TopicNS = tns
	}
	h, err := f.sub.Subscribe(context.Background(), "svc://producer", req)
	if err != nil {
		t.Fatalf("subscribe: %v", err)
	}
	return h
}

func TestSubscribePublishBothVersions(t *testing.T) {
	for _, v := range []Version{V1_0, V1_3} {
		t.Run(v.String(), func(t *testing.T) {
			f := newFixture(t, v)
			h := f.subscribe(t, &SubscribeRequest{
				TopicExpression: "t:jobs", TopicDialect: topics.DialectSimple, TopicNS: tns,
			})
			if h.ID == "" {
				t.Fatal("no subscription id")
			}
			n, err := f.producer.Publish(context.Background(), jobTopic("jobs"), jobEvent("done"))
			if err != nil || n != 1 {
				t.Fatalf("publish: %d %v", n, err)
			}
			got := f.consumer.Received()
			if len(got) != 1 {
				t.Fatalf("consumer received %d", len(got))
			}
			if !got[0].Wrapped {
				t.Error("default delivery should be the wrapped Notify form")
			}
			if got[0].Payload.ChildText(xmldom.N("urn:grid", "state")) != "done" {
				t.Error("payload lost")
			}
			if !got[0].Topic.Equal(jobTopic("jobs")) {
				t.Errorf("topic = %v", got[0].Topic)
			}
		})
	}
}

func TestSubscriptionIDContainerPerVersion(t *testing.T) {
	// §V.4 item 1: 1.0 → ReferenceProperties (WSA 2003/03); 1.3 →
	// ReferenceParameters (WSA 2005/08).
	f0 := newFixture(t, V1_0)
	h0 := f0.subscribe(t, &SubscribeRequest{})
	if h0.SubscriptionReference.Version != wsa.V200303 {
		t.Errorf("1.0 WSA version = %v", h0.SubscriptionReference.Version)
	}
	if len(h0.SubscriptionReference.ReferenceProperties) == 0 {
		t.Error("1.0 id should ride in ReferenceProperties")
	}
	f3 := newFixture(t, V1_3)
	h3 := f3.subscribe(t, &SubscribeRequest{})
	if h3.SubscriptionReference.Version != wsa.V200508 {
		t.Errorf("1.3 WSA version = %v", h3.SubscriptionReference.Version)
	}
	if len(h3.SubscriptionReference.ReferenceParameters) == 0 {
		t.Error("1.3 id should ride in ReferenceParameters")
	}
}

func TestTopicRequiredIn10(t *testing.T) {
	f := newFixture(t, V1_0)
	_, err := f.sub.Subscribe(context.Background(), "svc://producer", &SubscribeRequest{
		ConsumerReference: wsa.NewEPR(wsa.V200303, "svc://consumer"),
	})
	var fault *soap.Fault
	if !errors.As(err, &fault) || fault.Subcode.Local != "SubscribeCreationFailedFault" {
		t.Errorf("err = %v", err)
	}
	// 1.3 accepts topicless subscriptions.
	f3 := newFixture(t, V1_3)
	if _, err := f3.sub.Subscribe(context.Background(), "svc://producer", &SubscribeRequest{
		ConsumerReference: wsa.NewEPR(wsa.V200508, "svc://consumer"),
	}); err != nil {
		t.Errorf("1.3 topicless subscribe failed: %v", err)
	}
}

func TestDurationExpiryGatedByVersion(t *testing.T) {
	// Table 1: duration expirations arrive in 1.3.
	f0 := newFixture(t, V1_0)
	_, err := f0.sub.Subscribe(context.Background(), "svc://producer", &SubscribeRequest{
		ConsumerReference:      wsa.NewEPR(wsa.V200303, "svc://consumer"),
		TopicExpression:        "t:jobs",
		TopicDialect:           topics.DialectSimple,
		TopicNS:                tns,
		InitialTerminationTime: "PT1H",
	})
	var fault *soap.Fault
	if !errors.As(err, &fault) || fault.Subcode.Local != "UnacceptableInitialTerminationTimeFault" {
		t.Errorf("1.0 duration err = %v", err)
	}
	// Absolute time works in 1.0.
	h, err := f0.sub.Subscribe(context.Background(), "svc://producer", &SubscribeRequest{
		ConsumerReference:      wsa.NewEPR(wsa.V200303, "svc://consumer"),
		TopicExpression:        "t:jobs",
		TopicDialect:           topics.DialectSimple,
		TopicNS:                tns,
		InitialTerminationTime: "2006-02-01T01:00:00Z",
	})
	if err != nil {
		t.Fatalf("1.0 absolute expiry failed: %v", err)
	}
	_ = h
	// Duration works in 1.3.
	f3 := newFixture(t, V1_3)
	h3 := f3.subscribe(t, &SubscribeRequest{InitialTerminationTime: "PT1H"})
	if !h3.TerminationTime.Equal(f3.clock.now().Add(time.Hour)) {
		t.Errorf("1.3 duration expiry = %v", h3.TerminationTime)
	}
}

func TestNativeManagementOnlyIn13(t *testing.T) {
	// Table 2: Renew/Unsubscribe are native in 1.3; 1.0 rejects them and
	// uses WSRF instead.
	f0 := newFixture(t, V1_0)
	h0 := f0.subscribe(t, &SubscribeRequest{})
	// A hand-built native Renew against 1.0 faults.
	env := soap.New(soap.V11)
	hd := wsa.DestinationEPR(h0.SubscriptionReference, V1_0.ActionRenew(), "")
	hd.Apply(env)
	env.AddBody(xmldom.Elem(NS1_0, "Renew", xmldom.Elem(NS1_0, "TerminationTime", "2006-03-01T00:00:00Z")))
	_, err := f0.lb.Call(context.Background(), h0.SubscriptionReference.Address, env)
	var fault *soap.Fault
	if !errors.As(err, &fault) || fault.Subcode.Local != "UnsupportedOperationFault" {
		t.Errorf("1.0 native renew err = %v", err)
	}
	// The Subscriber routes 1.0 renews through WSRF transparently.
	granted, err := f0.sub.Renew(context.Background(), h0, "2006-02-01T02:00:00Z")
	if err != nil {
		t.Fatalf("1.0 WSRF renew: %v", err)
	}
	if !granted.Equal(time.Date(2006, 2, 1, 2, 0, 0, 0, time.UTC)) {
		t.Errorf("granted = %v", granted)
	}
	// And unsubscribes through WSRF Destroy.
	if err := f0.sub.Unsubscribe(context.Background(), h0); err != nil {
		t.Fatalf("1.0 WSRF unsubscribe: %v", err)
	}
	if f0.producer.SubscriptionCount() != 0 {
		t.Error("1.0 unsubscribe did not remove subscription")
	}

	// 1.3 native path.
	f3 := newFixture(t, V1_3)
	h3 := f3.subscribe(t, &SubscribeRequest{})
	granted3, err := f3.sub.Renew(context.Background(), h3, "PT2H")
	if err != nil || !granted3.Equal(f3.clock.now().Add(2*time.Hour)) {
		t.Errorf("1.3 renew = %v %v", granted3, err)
	}
	if err := f3.sub.Unsubscribe(context.Background(), h3); err != nil {
		t.Fatal(err)
	}
	// 1.3 rejects WSRF ops (optional, not composed).
	h3b := f3.subscribe(t, &SubscribeRequest{})
	_, err = f3.sub.Status(context.Background(), h3b)
	if err == nil {
		t.Error("1.3 WSRF status should be rejected in this deployment")
	}
}

func TestWSRFStatusDocumentIn10(t *testing.T) {
	f := newFixture(t, V1_0)
	h := f.subscribe(t, &SubscribeRequest{
		TopicExpression: "t:jobs", TopicDialect: topics.DialectSimple, TopicNS: tns,
		InitialTerminationTime: "2006-02-01T05:00:00Z",
	})
	doc, err := f.sub.Status(context.Background(), h)
	if err != nil {
		t.Fatal(err)
	}
	ns := V1_0.NS()
	if doc.ChildText(xmldom.N(ns, "Status")) != "Active" {
		t.Errorf("status = %q", doc.ChildText(xmldom.N(ns, "Status")))
	}
	if doc.ChildText(xmldom.N(ns, "TerminationTime")) != "2006-02-01T05:00:00Z" {
		t.Errorf("termination = %q", doc.ChildText(xmldom.N(ns, "TerminationTime")))
	}
	if doc.ChildText(xmldom.N(ns, "TopicExpression")) != "t:jobs" {
		t.Errorf("topic = %q", doc.ChildText(xmldom.N(ns, "TopicExpression")))
	}
}

func TestPauseResume(t *testing.T) {
	for _, v := range []Version{V1_0, V1_3} {
		t.Run(v.String(), func(t *testing.T) {
			f := newFixture(t, v)
			h := f.subscribe(t, &SubscribeRequest{})
			if err := f.sub.Pause(context.Background(), h); err != nil {
				t.Fatal(err)
			}
			n, _ := f.producer.Publish(context.Background(), jobTopic("jobs"), jobEvent("x"))
			if n != 0 || f.consumer.Count() != 0 {
				t.Error("paused subscription still delivered")
			}
			if err := f.sub.Resume(context.Background(), h); err != nil {
				t.Fatal(err)
			}
			n, _ = f.producer.Publish(context.Background(), jobTopic("jobs"), jobEvent("y"))
			if n != 1 || f.consumer.Count() != 1 {
				t.Error("resumed subscription not delivered")
			}
		})
	}
}

func TestTopicFiltering(t *testing.T) {
	f := newFixture(t, V1_3)
	f.subscribe(t, &SubscribeRequest{
		TopicExpression: "t:jobs//.", TopicDialect: topics.DialectFull, TopicNS: tns,
	})
	f.producer.Publish(context.Background(), jobTopic("jobs", "completed"), jobEvent("done"))
	f.producer.Publish(context.Background(), jobTopic("weather"), jobEvent("rain"))
	if f.consumer.Count() != 1 {
		t.Fatalf("count = %d, want 1", f.consumer.Count())
	}
}

func TestThreeFilterConjunction(t *testing.T) {
	// §V.3: a 1.3 subscriber can combine all three filter types; all must
	// pass.
	props := xmldom.MustParse(`<props><Region>EU</Region></props>`)
	f := newFixture(t, V1_3, func(c *ProducerConfig) { c.Properties = props })
	f.subscribe(t, &SubscribeRequest{
		TopicExpression:   "t:jobs",
		TopicDialect:      topics.DialectSimple,
		TopicNS:           tns,
		ContentExpr:       "//g:state = 'done'",
		ContentNS:         map[string]string{"g": "urn:grid"},
		ProducerPropsExpr: "//Region = 'EU'",
	})
	f.producer.Publish(context.Background(), jobTopic("jobs"), jobEvent("done"))
	f.producer.Publish(context.Background(), jobTopic("jobs"), jobEvent("running")) // content fails
	f.producer.Publish(context.Background(), jobTopic("other"), jobEvent("done"))   // topic fails
	if f.consumer.Count() != 1 {
		t.Fatalf("count = %d, want 1", f.consumer.Count())
	}
}

func TestProducerPropertiesMismatch(t *testing.T) {
	props := xmldom.MustParse(`<props><Region>US</Region></props>`)
	f := newFixture(t, V1_3, func(c *ProducerConfig) { c.Properties = props })
	f.subscribe(t, &SubscribeRequest{ProducerPropsExpr: "//Region = 'EU'"})
	f.producer.Publish(context.Background(), jobTopic("jobs"), jobEvent("done"))
	if f.consumer.Count() != 0 {
		t.Error("producer-properties filter should have rejected delivery")
	}
}

func TestRawDelivery(t *testing.T) {
	for _, v := range []Version{V1_0, V1_3} {
		t.Run(v.String(), func(t *testing.T) {
			f := newFixture(t, v)
			f.subscribe(t, &SubscribeRequest{UseRaw: true})
			f.producer.Publish(context.Background(), jobTopic("jobs"), jobEvent("done"))
			got := f.consumer.Received()
			if len(got) != 1 {
				t.Fatalf("received %d", len(got))
			}
			if got[0].Wrapped {
				t.Error("raw delivery arrived wrapped")
			}
			if got[0].Payload.Name != xmldom.N("urn:grid", "JobStatus") {
				t.Errorf("payload = %v", got[0].Payload.Name)
			}
		})
	}
}

func TestWrappedCarriesSubscriptionIDIn13(t *testing.T) {
	f := newFixture(t, V1_3)
	h := f.subscribe(t, &SubscribeRequest{})
	f.producer.Publish(context.Background(), jobTopic("jobs"), jobEvent("done"))
	got := f.consumer.Received()
	if len(got) != 1 || got[0].SubscriptionID != h.ID {
		t.Errorf("subscription id = %q, want %q", got[0].SubscriptionID, h.ID)
	}
}

func TestGetCurrentMessage(t *testing.T) {
	for _, v := range []Version{V1_0, V1_3} {
		t.Run(v.String(), func(t *testing.T) {
			f := newFixture(t, v)
			// No message yet: fault.
			_, err := f.sub.GetCurrentMessage(context.Background(), "svc://producer",
				"t:jobs", topics.DialectConcrete, tns)
			var fault *soap.Fault
			if !errors.As(err, &fault) || fault.Subcode.Local != "NoCurrentMessageOnTopicFault" {
				t.Errorf("empty topic err = %v", err)
			}
			f.producer.Publish(context.Background(), jobTopic("jobs"), jobEvent("one"))
			f.producer.Publish(context.Background(), jobTopic("jobs"), jobEvent("two"))
			got, err := f.sub.GetCurrentMessage(context.Background(), "svc://producer",
				"t:jobs", topics.DialectConcrete, tns)
			if err != nil {
				t.Fatal(err)
			}
			if got.ChildText(xmldom.N("urn:grid", "state")) != "two" {
				t.Errorf("current message = %s", xmldom.Marshal(got))
			}
			// Wildcard topics are rejected.
			_, err = f.sub.GetCurrentMessage(context.Background(), "svc://producer",
				"t:jobs//.", topics.DialectFull, tns)
			if err == nil {
				t.Error("non-concrete topic accepted")
			}
		})
	}
}

// TestGetCurrentMessageWithoutTopic: a request naming no Topic is the same
// InvalidFilterFault as one naming an unparseable or non-concrete topic.
func TestGetCurrentMessageWithoutTopic(t *testing.T) {
	for _, v := range []Version{V1_0, V1_3} {
		f := newFixture(t, v)
		env := soap.New(soap.V11)
		env.AddBody(xmldom.NewElement(xmldom.N(v.NS(), "GetCurrentMessage")))
		_, err := f.lb.Call(context.Background(), "svc://producer", env)
		var fault *soap.Fault
		if !errors.As(err, &fault) || fault.Subcode != xmldom.N(v.NS(), "InvalidFilterFault") {
			t.Errorf("%v: err = %v, want InvalidFilterFault", v, err)
		}
	}
}

func TestFixedTopicSetRejectsUnknownTopics(t *testing.T) {
	space := topics.NewSpace()
	space.Add(jobTopic("jobs"))
	f := newFixture(t, V1_3, func(c *ProducerConfig) {
		c.Topics = space
		c.FixedTopicSet = true
	})
	_, err := f.sub.Subscribe(context.Background(), "svc://producer", &SubscribeRequest{
		ConsumerReference: wsa.NewEPR(wsa.V200508, "svc://consumer"),
		TopicExpression:   "t:unknownRoot", TopicDialect: topics.DialectSimple, TopicNS: tns,
	})
	var fault *soap.Fault
	if !errors.As(err, &fault) || fault.Subcode.Local != "TopicNotSupportedFault" {
		t.Errorf("err = %v", err)
	}
}

func TestInvalidFilterFaults(t *testing.T) {
	f := newFixture(t, V1_3)
	_, err := f.sub.Subscribe(context.Background(), "svc://producer", &SubscribeRequest{
		ConsumerReference: wsa.NewEPR(wsa.V200508, "svc://consumer"),
		ContentExpr:       "///bad[",
	})
	var fault *soap.Fault
	if !errors.As(err, &fault) || fault.Subcode.Local != "InvalidFilterFault" {
		t.Errorf("err = %v", err)
	}
	// An unsupported topic dialect is a topic fault, as at the broker.
	_, err = f.sub.Subscribe(context.Background(), "svc://producer", &SubscribeRequest{
		ConsumerReference: wsa.NewEPR(wsa.V200508, "svc://consumer"),
		TopicExpression:   "t:a", TopicDialect: "urn:bogus", TopicNS: tns,
	})
	if !errors.As(err, &fault) || fault.Subcode.Local != "TopicNotSupportedFault" {
		t.Errorf("dialect err = %v, want TopicNotSupportedFault", err)
	}
}

func TestExpiryLapseAndScavengeSendsTermination10(t *testing.T) {
	f := newFixture(t, V1_0)
	f.subscribe(t, &SubscribeRequest{InitialTerminationTime: "2006-02-01T00:30:00Z"})
	f.clock.advance(31 * time.Minute)
	if n := f.producer.Scavenge(); n != 1 {
		t.Fatalf("scavenged %d", n)
	}
	// 1.0 consumers get a WSRF TerminationNotification.
	if len(f.consumer.Terminations()) != 1 {
		t.Error("no termination notification")
	}
	// 1.3 ends silently (WSRF optional, not composed).
	f3 := newFixture(t, V1_3)
	f3.subscribe(t, &SubscribeRequest{InitialTerminationTime: "2006-02-01T00:30:00Z"})
	f3.clock.advance(31 * time.Minute)
	f3.producer.Scavenge()
	if len(f3.consumer.Terminations()) != 0 {
		t.Error("1.3 sent a termination notification without WSRF")
	}
}

func TestDeliveryFailureDropsSubscription(t *testing.T) {
	f := newFixture(t, V1_3)
	f.subscribe(t, &SubscribeRequest{
		ConsumerReference: wsa.NewEPR(wsa.V200508, "svc://dead"),
	})
	for i := 0; i < 3; i++ {
		f.producer.Publish(context.Background(), jobTopic("jobs"), jobEvent("x"))
	}
	if f.producer.SubscriptionCount() != 0 {
		t.Error("failing subscription survived")
	}
}

func TestPublishBatchWrapsMultipleMessages(t *testing.T) {
	f := newFixture(t, V1_3)
	f.subscribe(t, &SubscribeRequest{})
	events := []*xmldom.Element{jobEvent("a"), jobEvent("b"), jobEvent("c")}
	n, err := f.producer.PublishBatch(context.Background(), jobTopic("jobs"), events)
	if err != nil || n != 1 {
		t.Fatalf("batch: %d %v", n, err)
	}
	got := f.consumer.Received()
	if len(got) != 3 {
		t.Fatalf("received %d messages", len(got))
	}
	for _, r := range got {
		if !r.Wrapped {
			t.Error("batch entries should be wrapped")
		}
	}
}

func TestPullPointLifecycle(t *testing.T) {
	f := newFixture(t, V1_3)
	pps := NewPullPointService("svc://pullpoints")
	f.lb.Register("svc://pullpoints", pps)

	pp, err := CreatePullPoint(context.Background(), f.lb, "svc://pullpoints")
	if err != nil {
		t.Fatal(err)
	}
	if pps.Count() != 1 {
		t.Error("pull point not registered")
	}
	// Subscribe with the pull point as the consumer: from the producer's
	// perspective it is an ordinary push consumer (§V.3).
	_, err = f.sub.Subscribe(context.Background(), "svc://producer", &SubscribeRequest{
		ConsumerReference: pp,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, st := range []string{"one", "two", "three"} {
		f.producer.Publish(context.Background(), jobTopic("jobs"), jobEvent(st))
	}
	msgs, err := GetMessages(context.Background(), f.lb, pp, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(msgs) != 2 {
		t.Fatalf("pulled %d, want 2", len(msgs))
	}
	if msgs[0].Payload.ChildText(xmldom.N("urn:grid", "state")) != "one" {
		t.Errorf("first pulled = %s", xmldom.Marshal(msgs[0].Payload))
	}
	if !msgs[0].Topic.Equal(jobTopic("jobs")) {
		t.Errorf("topic lost through pull point: %v", msgs[0].Topic)
	}
	rest, _ := GetMessages(context.Background(), f.lb, pp, 0)
	if len(rest) != 1 {
		t.Fatalf("second pull %d", len(rest))
	}
	if err := DestroyPullPoint(context.Background(), f.lb, pp); err != nil {
		t.Fatal(err)
	}
	if pps.Count() != 0 {
		t.Error("pull point not destroyed")
	}
	if _, err := GetMessages(context.Background(), f.lb, pp, 0); err == nil {
		t.Error("GetMessages on destroyed pull point succeeded")
	}
}

func TestSubscribeMessageShapePerVersion(t *testing.T) {
	req := &SubscribeRequest{
		ConsumerReference: wsa.NewEPR(wsa.V200508, "svc://consumer"),
		TopicExpression:   "t:jobs",
		TopicDialect:      topics.DialectSimple,
		TopicNS:           tns,
		ContentExpr:       "//g:state='done'",
		ContentNS:         map[string]string{"g": "urn:grid"},
	}
	e10 := req.Element(V1_0)
	e13 := req.Element(V1_3)
	// 1.0: TopicExpression and Selector direct children, no Filter.
	if e10.Child(xmldom.N(NS1_0, "Filter")) != nil {
		t.Error("1.0 should not have a Filter wrapper")
	}
	if e10.Child(xmldom.N(NS1_0, "TopicExpression")) == nil || e10.Child(xmldom.N(NS1_0, "Selector")) == nil {
		t.Error("1.0 direct children missing")
	}
	// 1.3: the unified Filter element.
	flt := e13.Child(xmldom.N(NS1_3, "Filter"))
	if flt == nil {
		t.Fatal("1.3 Filter wrapper missing")
	}
	if flt.Child(xmldom.N(NS1_3, "TopicExpression")) == nil || flt.Child(xmldom.N(NS1_3, "MessageContent")) == nil {
		t.Error("1.3 Filter children missing")
	}
	// Round trips.
	for _, el := range []*xmldom.Element{e10, e13} {
		back, _, err := ParseSubscribe(xmldom.MustParse(xmldom.Marshal(el)))
		if err != nil {
			t.Fatal(err)
		}
		if back.TopicExpression != "t:jobs" || back.ContentExpr != "//g:state='done'" {
			t.Errorf("round trip = %+v", back)
		}
		if back.ContentNS["g"] != "urn:grid" {
			t.Error("filter namespace bindings lost")
		}
	}
}

func TestNotifyRoundTrip(t *testing.T) {
	for _, v := range []Version{V1_0, V1_3} {
		msgs := []*NotificationMessage{
			{Topic: jobTopic("jobs"), Payload: jobEvent("done")},
			{Topic: jobTopic("alerts"), Payload: jobEvent("warn")},
		}
		el := NotifyElement(v, msgs)
		back, ver, err := ParseNotify(xmldom.MustParse(xmldom.Marshal(el)))
		if err != nil || ver != v {
			t.Fatalf("%v: %v %v", v, ver, err)
		}
		if len(back) != 2 {
			t.Fatalf("%v: %d messages", v, len(back))
		}
		if !back[0].Topic.Equal(jobTopic("jobs")) {
			t.Errorf("%v: topic = %v", v, back[0].Topic)
		}
		if back[1].Payload.ChildText(xmldom.N("urn:grid", "state")) != "warn" {
			t.Errorf("%v: payload lost", v)
		}
	}
}

func TestCapabilitiesMatchTable1(t *testing.T) {
	c10 := V1_0.Capabilities()
	c13 := V1_3.Capabilities()
	// The third convergence (§IV): 1.3 adopted pull, durations, XPath.
	if c10.PullDelivery || !c13.PullDelivery {
		t.Error("pull row wrong")
	}
	if c10.DurationExpiry || !c13.DurationExpiry {
		t.Error("duration row wrong")
	}
	if c10.XPathDialect || !c13.XPathDialect {
		t.Error("xpath row wrong")
	}
	if c10.FilterElement || !c13.FilterElement {
		t.Error("filter element row wrong")
	}
	if !c10.RequiresWSRF || c13.RequiresWSRF {
		t.Error("WSRF requirement row wrong")
	}
	if !c10.RequiresTopic || c13.RequiresTopic {
		t.Error("topic requirement row wrong")
	}
	if !c10.PauseResumeRequired || c13.PauseResumeRequired {
		t.Error("pause/resume requirement row wrong")
	}
	if c10.PullPointInterface || !c13.PullPointInterface {
		t.Error("pullpoint row wrong")
	}
	if !c10.GetCurrentMessage || !c13.GetCurrentMessage {
		t.Error("GetCurrentMessage row wrong")
	}
	if c10.WSAVersion != "2003/03" || c13.WSAVersion != "2005/08" {
		t.Errorf("WSA versions: %s %s", c10.WSAVersion, c13.WSAVersion)
	}
}

func TestConcurrentSubscribePublish(t *testing.T) {
	f := newFixture(t, V1_3)
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 20; j++ {
				f.sub.Subscribe(context.Background(), "svc://producer", &SubscribeRequest{
					ConsumerReference: wsa.NewEPR(wsa.V200508, "svc://consumer"),
				})
			}
		}()
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 20; j++ {
				f.producer.Publish(context.Background(), jobTopic("jobs"), jobEvent("s"))
			}
		}()
	}
	wg.Wait()
	if f.producer.SubscriptionCount() != 80 {
		t.Errorf("subscriptions = %d", f.producer.SubscriptionCount())
	}
}

func TestRenewToIndefinite(t *testing.T) {
	f := newFixture(t, V1_3)
	h := f.subscribe(t, &SubscribeRequest{InitialTerminationTime: "PT10M"})
	// Renew with an empty expiry grants an indefinite subscription.
	granted, err := f.sub.Renew(context.Background(), h, "")
	if err != nil {
		t.Fatal(err)
	}
	if !granted.IsZero() {
		t.Errorf("granted = %v, want zero (indefinite)", granted)
	}
	f.clock.advance(100 * time.Hour)
	if n := f.producer.Scavenge(); n != 0 {
		t.Error("indefinite subscription scavenged")
	}
}

// TestEngineTracksLeases: however a subscription ends — native
// Unsubscribe (1.3) or WSRF Destroy (1.0), failure eviction, scavenged
// expiry, shutdown — the dispatch engine lets go of it together with the
// lease store, and the engine's conservation law holds.
func TestEngineTracksLeases(t *testing.T) {
	for _, v := range []Version{V1_0, V1_3} {
		t.Run(v.String(), func(t *testing.T) {
			f := newFixture(t, v)
			check := func(step string) {
				t.Helper()
				if got, want := f.producer.eng.Count(), f.producer.store.Len(); got != want {
					t.Errorf("after %s: engine holds %d subscriptions, store %d", step, got, want)
				}
			}
			h := f.subscribe(t, &SubscribeRequest{})
			f.subscribe(t, &SubscribeRequest{})
			f.subscribe(t, &SubscribeRequest{InitialTerminationTime: "2006-02-01T00:05:00Z"})
			f.subscribe(t, &SubscribeRequest{ConsumerReference: wsa.NewEPR(v.WSAVersion(), "svc://dead")})
			check("subscribe")
			if err := f.sub.Unsubscribe(context.Background(), h); err != nil {
				t.Fatal(err)
			}
			check("unsubscribe")
			for i := 0; i < 3; i++ {
				f.producer.Publish(context.Background(), jobTopic("jobs"), jobEvent("x"))
			}
			check("eviction")
			f.clock.advance(6 * time.Minute)
			if n := f.producer.Scavenge(); n != 1 {
				t.Fatalf("scavenged %d", n)
			}
			check("scavenge")
			f.producer.Shutdown()
			check("shutdown")
			if n := f.producer.eng.Count(); n != 0 {
				t.Errorf("engine still holds %d subscriptions", n)
			}
			if st := f.producer.eng.Stats(); st.Matched != st.Delivered+st.Dropped+st.Failed+st.DeadLettered {
				t.Errorf("conservation: %+v", st)
			}
		})
	}
}

// TestConcurrentPublishAndChurn publishes while other goroutines subscribe
// and unsubscribe through the handlers; run it under -race.
func TestConcurrentPublishAndChurn(t *testing.T) {
	f := newFixture(t, V1_3)
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(2)
		go func() {
			defer wg.Done()
			for j := 0; j < 20; j++ {
				h, err := f.sub.Subscribe(context.Background(), "svc://producer", &SubscribeRequest{
					ConsumerReference: wsa.NewEPR(wsa.V200508, "svc://consumer"),
				})
				if err == nil {
					err = f.sub.Unsubscribe(context.Background(), h)
				}
				if err != nil {
					t.Error(err)
				}
			}
		}()
		go func() {
			defer wg.Done()
			for j := 0; j < 20; j++ {
				f.producer.PublishBatch(context.Background(), jobTopic("jobs"), []*xmldom.Element{jobEvent("a"), jobEvent("b")})
			}
		}()
	}
	wg.Wait()
	if f.producer.SubscriptionCount() != 0 || f.producer.eng.Count() != 0 {
		t.Errorf("left behind: %d leases, %d engine subscriptions", f.producer.SubscriptionCount(), f.producer.eng.Count())
	}
}

func TestNotifyIgnoresUnknownChildren(t *testing.T) {
	// Forward compatibility: extra elements inside NotificationMessage do
	// not break parsing.
	raw := `<Notify xmlns="` + NS1_3 + `"><NotificationMessage>` +
		`<FutureExtension xmlns="urn:future">x</FutureExtension>` +
		`<Message><p xmlns="urn:p">v</p></Message>` +
		`</NotificationMessage></Notify>`
	msgs, v, err := ParseNotify(xmldom.MustParse(raw))
	if err != nil || v != V1_3 {
		t.Fatal(err)
	}
	if len(msgs) != 1 || msgs[0].Payload == nil || msgs[0].Payload.Name.Local != "p" {
		t.Errorf("msgs = %+v", msgs)
	}
}
