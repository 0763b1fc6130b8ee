package wsen

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"repro/internal/soap"
	"repro/internal/spec"
	"repro/internal/topics"
	"repro/internal/transport"
	"repro/internal/wsa"
	"repro/internal/wse"
	"repro/internal/wsnt"
	"repro/internal/xmldom"
)

func fixture(t *testing.T) (*transport.Loopback, *Producer, *Sink, *Subscriber) {
	t.Helper()
	lb := transport.NewLoopback()
	now := time.Date(2006, 7, 1, 0, 0, 0, 0, time.UTC)
	p := NewProducer("svc://conv", "svc://conv-subs", lb, func() time.Time { return now })
	lb.Register("svc://conv", p.Handler())
	lb.Register("svc://conv-subs", p.Handler())
	sink := &Sink{}
	lb.Register("svc://sink", sink)
	return lb, p, sink, &Subscriber{Client: lb}
}

var grid = topics.NewPath("urn:grid", "jobs")

func ev(v string) *xmldom.Element {
	return xmldom.Elem("urn:grid", "E", xmldom.Elem("urn:grid", "v", v))
}

func TestConvergedLifecycle(t *testing.T) {
	_, p, sink, sub := fixture(t)
	ctx := context.Background()
	h, err := sub.Subscribe(ctx, "svc://conv", &SubscribeRequest{
		NotifyTo:  wsa.NewEPR(wsa.V200508, "svc://sink"),
		EndTo:     wsa.NewEPR(wsa.V200508, "svc://sink"),
		Expires:   "PT30M",                                       // WSE-style duration...
		TopicExpr: "g:jobs//.", TopicDialect: topics.DialectFull, // ...with WSN topics
		TopicNS:     map[string]string{"g": "urn:grid"},
		ContentExpr: "//g:v != 'drop'", // ...and WSE XPath, conjoined
		ContentNS:   map[string]string{"g": "urn:grid"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if h.ID == "" || h.Manager.Address != "svc://conv-subs" {
		t.Fatalf("handle = %+v", h)
	}
	if h.Expires.IsZero() {
		t.Error("duration expiry not granted")
	}

	// Publish: topic+content filters both apply; wrapped format defined.
	p.Publish(ctx, grid, ev("keep"))
	p.Publish(ctx, grid, ev("drop"))
	p.Publish(ctx, topics.NewPath("urn:grid", "weather"), ev("keep"))
	if sink.Count() != 1 {
		t.Fatalf("sink received %d", sink.Count())
	}
	got := sink.Received()[0]
	if !got.Topic.Equal(grid) {
		t.Errorf("topic in wrapped message = %v", got.Topic)
	}

	// Full management vocabulary on one subscription.
	if _, err := sub.Renew(ctx, h, "PT1H"); err != nil {
		t.Fatalf("renew: %v", err)
	}
	exp, status, err := sub.GetStatus(ctx, h)
	if err != nil || status != "Active" || exp.IsZero() {
		t.Fatalf("getstatus = %v %q %v", exp, status, err)
	}
	if err := sub.Pause(ctx, h); err != nil {
		t.Fatal(err)
	}
	p.Publish(ctx, grid, ev("keep"))
	if sink.Count() != 1 {
		t.Error("paused subscription delivered")
	}
	_, status, _ = sub.GetStatus(ctx, h)
	if status != "Paused" {
		t.Errorf("status = %q", status)
	}
	if err := sub.Resume(ctx, h); err != nil {
		t.Fatal(err)
	}
	p.Publish(ctx, grid, ev("keep"))
	if sink.Count() != 2 {
		t.Error("resumed subscription not delivered")
	}

	// GetCurrentMessage (from WSN).
	cur, err := sub.GetCurrentMessage(ctx, "svc://conv", grid)
	if err != nil {
		t.Fatal(err)
	}
	if cur.ChildText(xmldom.N("urn:grid", "v")) != "keep" {
		t.Errorf("current = %s", xmldom.Marshal(cur))
	}

	if err := sub.Unsubscribe(ctx, h); err != nil {
		t.Fatal(err)
	}
	if p.SubscriptionCount() != 0 {
		t.Error("subscription survived unsubscribe")
	}
}

func TestConvergedPullMode(t *testing.T) {
	_, p, sink, sub := fixture(t)
	ctx := context.Background()
	h, err := sub.Subscribe(ctx, "svc://conv", &SubscribeRequest{
		NotifyTo: wsa.NewEPR(wsa.V200508, "svc://sink"),
		Mode:     ModePull,
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		p.Publish(ctx, grid, ev("q"))
	}
	if sink.Count() != 0 {
		t.Error("pull mode pushed")
	}
	msgs, err := sub.Pull(ctx, h, 2)
	if err != nil || len(msgs) != 2 {
		t.Fatalf("pull = %d %v", len(msgs), err)
	}
	if !msgs[0].Topic.Equal(grid) {
		t.Error("pull lost topic (wrapped format should carry it)")
	}
	rest, _ := sub.Pull(ctx, h, 0)
	if len(rest) != 1 {
		t.Errorf("second pull = %d", len(rest))
	}
}

// TestPullRejectsMalformedMaxElements: a MaxElements that is not a
// non-negative integer is InvalidMessage and consumes nothing, rather than
// being read as "everything".
func TestPullRejectsMalformedMaxElements(t *testing.T) {
	lb, p, _, sub := fixture(t)
	ctx := context.Background()
	h, err := sub.Subscribe(ctx, "svc://conv", &SubscribeRequest{Mode: ModePull})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		p.Publish(ctx, grid, ev("q"))
	}
	for _, bad := range []string{"abc", "-1", "1.5"} {
		env := soap.New(soap.V11)
		wsa.DestinationEPR(h.Manager, NS+"/Pull", "").Apply(env)
		env.AddBody(xmldom.Elem(NS, "Pull", xmldom.Elem(NS, "MaxElements", bad)))
		_, err := lb.Call(ctx, h.Manager.Address, env)
		var fault *soap.Fault
		if !errors.As(err, &fault) || fault.Subcode.Local != "InvalidMessage" {
			t.Errorf("MaxElements %q: err = %v, want InvalidMessage", bad, err)
		}
	}
	if msgs, err := sub.Pull(ctx, h, 0); err != nil || len(msgs) != 3 {
		t.Errorf("after malformed pulls: %d messages, %v; want all 3 still queued", len(msgs), err)
	}
}

// TestEngineTracksLeases: an unsubscribed or shut-down subscription leaves
// the dispatch engine with its lease, and the engine's conservation law
// holds once nothing is buffered.
func TestEngineTracksLeases(t *testing.T) {
	_, p, _, sub := fixture(t)
	ctx := context.Background()
	check := func(step string) {
		t.Helper()
		if got, want := p.eng.Count(), p.store.Len(); got != want {
			t.Errorf("after %s: engine holds %d subscriptions, store %d", step, got, want)
		}
	}
	var handles []*Handle
	for _, req := range []*SubscribeRequest{
		{NotifyTo: wsa.NewEPR(wsa.V200508, "svc://sink")},
		{Mode: ModePull},
		{NotifyTo: wsa.NewEPR(wsa.V200508, "svc://dead")},
	} {
		h, err := sub.Subscribe(ctx, "svc://conv", req)
		if err != nil {
			t.Fatal(err)
		}
		handles = append(handles, h)
	}
	check("subscribe")
	p.Publish(ctx, grid, ev("x"))
	if err := sub.Unsubscribe(ctx, handles[0]); err != nil {
		t.Fatal(err)
	}
	check("unsubscribe")
	p.Shutdown()
	check("shutdown")
	if st := p.eng.Stats(); p.eng.Count() != 0 || st.Matched != st.Delivered+st.Dropped+st.Failed+st.DeadLettered {
		t.Errorf("engine: %d subscriptions, %+v", p.eng.Count(), st)
	}
}

// TestConcurrentPublishAndChurn publishes while other goroutines subscribe
// and unsubscribe through the handler; run it under -race.
func TestConcurrentPublishAndChurn(t *testing.T) {
	_, p, _, sub := fixture(t)
	ctx := context.Background()
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(2)
		go func() {
			defer wg.Done()
			for j := 0; j < 20; j++ {
				h, err := sub.Subscribe(ctx, "svc://conv", &SubscribeRequest{NotifyTo: wsa.NewEPR(wsa.V200508, "svc://sink")})
				if err == nil {
					err = sub.Unsubscribe(ctx, h)
				}
				if err != nil {
					t.Error(err)
				}
			}
		}()
		go func() {
			defer wg.Done()
			for j := 0; j < 20; j++ {
				p.Publish(ctx, grid, ev("c"))
			}
		}()
	}
	wg.Wait()
	if p.SubscriptionCount() != 0 || p.eng.Count() != 0 {
		t.Errorf("left behind: %d leases, %d engine subscriptions", p.SubscriptionCount(), p.eng.Count())
	}
}

func TestConvergedWrappedBatching(t *testing.T) {
	_, p, sink, sub := fixture(t)
	p.WrapBatchSize = 3
	ctx := context.Background()
	if _, err := sub.Subscribe(ctx, "svc://conv", &SubscribeRequest{
		NotifyTo: wsa.NewEPR(wsa.V200508, "svc://sink"),
		Mode:     ModeWrap,
	}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 7; i++ {
		p.Publish(ctx, grid, ev("w"))
	}
	if sink.Count() != 6 {
		t.Fatalf("batched deliveries = %d, want 6", sink.Count())
	}
	p.FlushWrapped()
	if sink.Count() != 7 {
		t.Errorf("after flush = %d", sink.Count())
	}
}

func TestConvergedSubscriptionEnd(t *testing.T) {
	_, p, sink, sub := fixture(t)
	if _, err := sub.Subscribe(context.Background(), "svc://conv", &SubscribeRequest{
		NotifyTo: wsa.NewEPR(wsa.V200508, "svc://sink"),
		EndTo:    wsa.NewEPR(wsa.V200508, "svc://sink"),
	}); err != nil {
		t.Fatal(err)
	}
	p.Shutdown()
	if len(sink.Ends()) != 1 {
		t.Errorf("ends = %v", sink.Ends())
	}
}

func TestConvergedFaults(t *testing.T) {
	lb, _, _, sub := fixture(t)
	ctx := context.Background()
	var fault *soap.Fault
	// Bad delivery mode.
	_, err := sub.Subscribe(ctx, "svc://conv", &SubscribeRequest{
		NotifyTo: wsa.NewEPR(wsa.V200508, "svc://sink"), Mode: "urn:bogus"})
	if !errors.As(err, &fault) || fault.Subcode.Local != "DeliveryModeRequestedUnavailable" {
		t.Errorf("mode err = %v", err)
	}
	// Bad filter.
	_, err = sub.Subscribe(ctx, "svc://conv", &SubscribeRequest{
		NotifyTo: wsa.NewEPR(wsa.V200508, "svc://sink"), ContentExpr: "///["})
	if !errors.As(err, &fault) || fault.Subcode.Local != "FilteringRequestedUnavailable" {
		t.Errorf("filter err = %v", err)
	}
	// Bad expiry.
	_, err = sub.Subscribe(ctx, "svc://conv", &SubscribeRequest{
		NotifyTo: wsa.NewEPR(wsa.V200508, "svc://sink"), Expires: "whenever"})
	if !errors.As(err, &fault) || fault.Subcode.Local != "UnsupportedExpirationType" {
		t.Errorf("expiry err = %v", err)
	}
	// Unknown subscription.
	bogus := wsa.NewEPR(wsa.V200508, "svc://conv-subs")
	bogus.AddReferenceParameter(xmldom.Elem(NS, "SubscriptionId", "nope"))
	err = sub.Unsubscribe(ctx, &Handle{Manager: bogus, ID: "nope"})
	if !errors.As(err, &fault) || fault.Subcode.Local != "UnknownSubscription" {
		t.Errorf("unknown sub err = %v", err)
	}
	// Foreign-namespace request.
	env := soap.New(soap.V11)
	env.AddBody(xmldom.Elem("urn:other", "Subscribe"))
	if _, err := lb.Call(ctx, "svc://conv", env); err == nil {
		t.Error("foreign request accepted")
	}
}

// TestCapabilitiesAreTheUnion verifies the converged spec dominates both
// parents on every Table 1 capability (and drops every restriction).
func TestCapabilitiesAreTheUnion(t *testing.T) {
	conv := Capabilities()
	parents := []spec.Capabilities{wse.V200408.Capabilities(), wsnt.V1_3.Capabilities()}
	for _, parent := range parents {
		type row struct {
			name        string
			parent, own bool
		}
		rows := []row{
			{"GetStatusOperation", parent.GetStatusOperation, conv.GetStatusOperation},
			{"SubscriptionIDInWSA", parent.SubscriptionIDInWSA, conv.SubscriptionIDInWSA},
			{"WrappedDelivery", parent.WrappedDelivery, conv.WrappedDelivery},
			{"PullDelivery", parent.PullDelivery, conv.PullDelivery},
			{"DurationExpiry", parent.DurationExpiry, conv.DurationExpiry},
			{"XPathDialect", parent.XPathDialect, conv.XPathDialect},
			{"FilterElement", parent.FilterElement, conv.FilterElement},
			{"PauseResume", parent.PauseResume, conv.PauseResume},
			{"GetCurrentMessage", parent.GetCurrentMessage, conv.GetCurrentMessage},
			{"SubscriptionEnd", parent.SubscriptionEnd, conv.SubscriptionEnd},
			{"DefinesWrappedFormat", parent.DefinesWrappedFormat, conv.DefinesWrappedFormat},
		}
		for _, r := range rows {
			if r.parent && !r.own {
				t.Errorf("converged spec lost %s from %s", r.name, parent.Name)
			}
		}
	}
	if conv.RequiresWSRF || conv.RequiresTopic {
		t.Error("converged spec must not inherit the 1.0 restrictions")
	}
}

// TestConvergedSubscribeRoundTrip checks the message format survives the
// wire.
func TestConvergedSubscribeRoundTrip(t *testing.T) {
	req := &SubscribeRequest{
		NotifyTo:    wsa.NewEPR(wsa.V200508, "svc://sink"),
		EndTo:       wsa.NewEPR(wsa.V200508, "svc://end"),
		Mode:        ModeWrap,
		Expires:     "PT5M",
		TopicExpr:   "g:jobs",
		TopicNS:     map[string]string{"g": "urn:grid"},
		ContentExpr: "//g:v",
		ContentNS:   map[string]string{"g": "urn:grid"},
	}
	back, err := ParseSubscribe(xmldom.MustParse(xmldom.Marshal(req.Element())))
	if err != nil {
		t.Fatal(err)
	}
	if back.NotifyTo.Address != "svc://sink" || back.EndTo.Address != "svc://end" ||
		back.Mode != ModeWrap || back.Expires != "PT5M" ||
		back.TopicExpr != "g:jobs" || back.ContentExpr != "//g:v" {
		t.Errorf("round trip = %+v", back)
	}
	if back.ContentNS["g"] != "urn:grid" {
		t.Error("filter bindings lost")
	}
}
