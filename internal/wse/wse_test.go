package wse

import (
	"context"
	"errors"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/soap"
	"repro/internal/topics"
	"repro/internal/transport"
	"repro/internal/wsa"
	"repro/internal/xmldom"
)

type fixture struct {
	lb     *transport.Loopback
	source *Source
	sink   *Sink
	sub    *Subscriber
	clock  *clock
}

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

func newFixture(t *testing.T, v Version) *fixture {
	t.Helper()
	lb := transport.NewLoopback()
	clk := &clock{t: time.Date(2006, 2, 1, 0, 0, 0, 0, time.UTC)}
	cfg := SourceConfig{
		Version: v,
		Address: "svc://source",
		Client:  lb,
		Clock:   clk.now,
	}
	if v == V200408 {
		cfg.ManagerAddress = "svc://manager"
	}
	src := NewSource(cfg)
	lb.Register("svc://source", src.SourceHandler())
	lb.Register("svc://manager", src.ManagerHandler())
	sink := &Sink{}
	lb.Register("svc://sink", sink)
	return &fixture{lb: lb, source: src, sink: sink, clock: clk,
		sub: &Subscriber{Client: lb, Version: v}}
}

func (f *fixture) subscribe(t *testing.T, req *SubscribeRequest) *Handle {
	t.Helper()
	if req.NotifyTo == nil {
		req.NotifyTo = wsa.NewEPR(f.sub.Version.WSAVersion(), "svc://sink")
	}
	h, err := f.sub.Subscribe(context.Background(), "svc://source", req)
	if err != nil {
		t.Fatalf("subscribe: %v", err)
	}
	return h
}

func payload(sym string, price string) *xmldom.Element {
	return xmldom.Elem("urn:market", "quote",
		xmldom.Elem("urn:market", "symbol", sym),
		xmldom.Elem("urn:market", "price", price))
}

func TestSubscribePublishBothVersions(t *testing.T) {
	for _, v := range []Version{V200401, V200408} {
		t.Run(v.String(), func(t *testing.T) {
			f := newFixture(t, v)
			h := f.subscribe(t, &SubscribeRequest{})
			if h.ID == "" {
				t.Fatal("no subscription id")
			}
			n, err := f.source.Publish(context.Background(), payload("IBM", "83.5"), PublishOptions{})
			if err != nil || n != 1 {
				t.Fatalf("publish: %d %v", n, err)
			}
			got := f.sink.Received()
			if len(got) != 1 {
				t.Fatalf("sink received %d", len(got))
			}
			if got[0].Payload.ChildText(xmldom.N("urn:market", "symbol")) != "IBM" {
				t.Error("payload content lost")
			}
			if got[0].Wrapped {
				t.Error("push delivery misreported as wrapped")
			}
		})
	}
}

func TestManagerSeparationByVersion(t *testing.T) {
	// 1/2004: manager == source. 8/2004: distinct manager address.
	f1 := newFixture(t, V200401)
	h1 := f1.subscribe(t, &SubscribeRequest{})
	if h1.Manager.Address != "svc://source" {
		t.Errorf("1/2004 manager = %q, want source", h1.Manager.Address)
	}
	f8 := newFixture(t, V200408)
	h8 := f8.subscribe(t, &SubscribeRequest{})
	if h8.Manager.Address != "svc://manager" {
		t.Errorf("8/2004 manager = %q, want svc://manager", h8.Manager.Address)
	}
	// 8/2004 carries the id inside the manager EPR (convergence item 2).
	found := false
	for _, p := range h8.Manager.IdentityParameters() {
		if p.Name == V200408.IdentifierName() && strings.TrimSpace(p.Text()) == h8.ID {
			found = true
		}
	}
	if !found {
		t.Error("8/2004 id not embedded in manager EPR")
	}
	// Management ops at the source endpoint are rejected for 8/2004.
	_, err := f8.sub.send(context.Background(), "svc://source", V200408.ActionRenew(), NewRenew(V200408, h8.ID, "PT5M"))
	if err == nil {
		t.Error("8/2004 source accepted a management op")
	}
}

func TestRenewAndGetStatus(t *testing.T) {
	f := newFixture(t, V200408)
	h := f.subscribe(t, &SubscribeRequest{Expires: "PT10M"})
	want := f.clock.now().Add(10 * time.Minute)
	if !h.Expires.Equal(want) {
		t.Fatalf("granted expiry = %v, want %v", h.Expires, want)
	}
	granted, err := f.sub.Renew(context.Background(), h, "PT1H")
	if err != nil {
		t.Fatal(err)
	}
	if !granted.Equal(f.clock.now().Add(time.Hour)) {
		t.Errorf("renewed expiry = %v", granted)
	}
	status, err := f.sub.GetStatus(context.Background(), h)
	if err != nil {
		t.Fatal(err)
	}
	if !status.Equal(granted) {
		t.Errorf("status expiry = %v, want %v", status, granted)
	}
}

func TestGetStatusRejectedIn200401(t *testing.T) {
	f := newFixture(t, V200401)
	h := f.subscribe(t, &SubscribeRequest{})
	if _, err := f.sub.GetStatus(context.Background(), h); err == nil {
		t.Error("client allowed GetStatus in 1/2004")
	}
	// Wire-level: a hand-built GetStatus faults too.
	env := soap.New(soap.V11)
	env.AddBody(xmldom.Elem(NS200401, "GetStatus", xmldom.Elem(NS200401, "Id", h.ID)))
	_, err := f.lb.Call(context.Background(), "svc://source", env)
	var fault *soap.Fault
	if !errors.As(err, &fault) {
		t.Errorf("wire GetStatus err = %v", err)
	}
}

func TestUnsubscribeStopsDelivery(t *testing.T) {
	for _, v := range []Version{V200401, V200408} {
		t.Run(v.String(), func(t *testing.T) {
			f := newFixture(t, v)
			h := f.subscribe(t, &SubscribeRequest{})
			if err := f.sub.Unsubscribe(context.Background(), h); err != nil {
				t.Fatal(err)
			}
			n, _ := f.source.Publish(context.Background(), payload("IBM", "1"), PublishOptions{})
			if n != 0 || f.sink.Count() != 0 {
				t.Errorf("delivery after unsubscribe: n=%d count=%d", n, f.sink.Count())
			}
			// Double unsubscribe faults.
			if err := f.sub.Unsubscribe(context.Background(), h); err == nil {
				t.Error("double unsubscribe accepted")
			}
		})
	}
}

func TestExpirationLapsesAndRenewExtends(t *testing.T) {
	f := newFixture(t, V200408)
	h := f.subscribe(t, &SubscribeRequest{Expires: "PT10M"})
	f.clock.advance(11 * time.Minute)
	n, _ := f.source.Publish(context.Background(), payload("X", "1"), PublishOptions{})
	if n != 0 {
		t.Error("expired subscription still delivered")
	}
	if _, err := f.sub.Renew(context.Background(), h, "PT1H"); err == nil {
		t.Error("renew of lapsed subscription accepted")
	}
}

func TestAbsoluteTimeExpiration(t *testing.T) {
	f := newFixture(t, V200408)
	abs := f.clock.now().Add(30 * time.Minute)
	h := f.subscribe(t, &SubscribeRequest{Expires: "2006-02-01T00:30:00Z"})
	if !h.Expires.Equal(abs) {
		t.Errorf("expiry = %v, want %v", h.Expires, abs)
	}
}

func TestBadExpirationFaults(t *testing.T) {
	f := newFixture(t, V200408)
	_, err := f.sub.Subscribe(context.Background(), "svc://source",
		&SubscribeRequest{NotifyTo: wsa.NewEPR(wsa.V200408, "svc://sink"), Expires: "whenever"})
	var fault *soap.Fault
	if !errors.As(err, &fault) || fault.Subcode.Local != "UnsupportedExpirationType" {
		t.Errorf("err = %v", err)
	}
}

func TestContentFilterOnWire(t *testing.T) {
	f := newFixture(t, V200408)
	f.subscribe(t, &SubscribeRequest{
		FilterExpr: "//m:price > 50",
		FilterNS:   map[string]string{"m": "urn:market"},
	})
	f.source.Publish(context.Background(), payload("IBM", "83.5"), PublishOptions{})
	f.source.Publish(context.Background(), payload("SUNW", "5.1"), PublishOptions{})
	if f.sink.Count() != 1 {
		t.Fatalf("filtered count = %d, want 1", f.sink.Count())
	}
	if f.sink.Received()[0].Payload.ChildText(xmldom.N("urn:market", "symbol")) != "IBM" {
		t.Error("wrong message passed filter")
	}
}

func TestBadFilterFaults(t *testing.T) {
	f := newFixture(t, V200408)
	_, err := f.sub.Subscribe(context.Background(), "svc://source",
		&SubscribeRequest{NotifyTo: wsa.NewEPR(wsa.V200408, "svc://sink"), FilterExpr: "///["})
	var fault *soap.Fault
	if !errors.As(err, &fault) || fault.Subcode.Local != "FilteringRequestedUnavailable" {
		t.Errorf("err = %v", err)
	}
	// Unknown dialect faults the same way.
	_, err = f.sub.Subscribe(context.Background(), "svc://source",
		&SubscribeRequest{NotifyTo: wsa.NewEPR(wsa.V200408, "svc://sink"),
			FilterDialect: "urn:bogus", FilterExpr: "x"})
	if !errors.As(err, &fault) {
		t.Errorf("dialect err = %v", err)
	}
}

func TestPullMode(t *testing.T) {
	f := newFixture(t, V200408)
	h := f.subscribe(t, &SubscribeRequest{Mode: V200408.DeliveryModePull()})
	for i := 0; i < 3; i++ {
		f.source.Publish(context.Background(), payload("IBM", "80"), PublishOptions{})
	}
	// Nothing was pushed.
	if f.sink.Count() != 0 {
		t.Error("pull mode pushed messages")
	}
	msgs, err := f.sub.Pull(context.Background(), h, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(msgs) != 2 {
		t.Fatalf("pulled %d, want 2", len(msgs))
	}
	msgs, _ = f.sub.Pull(context.Background(), h, 0)
	if len(msgs) != 1 {
		t.Fatalf("second pull %d, want 1", len(msgs))
	}
	msgs, _ = f.sub.Pull(context.Background(), h, 0)
	if len(msgs) != 0 {
		t.Error("drained queue returned messages")
	}
}

// TestPullRejectsMalformedMaxElements: a MaxElements that is not a
// non-negative integer is InvalidMessage and consumes nothing, rather than
// being read as "everything".
func TestPullRejectsMalformedMaxElements(t *testing.T) {
	f := newFixture(t, V200408)
	h := f.subscribe(t, &SubscribeRequest{Mode: V200408.DeliveryModePull()})
	for i := 0; i < 3; i++ {
		f.source.Publish(context.Background(), payload("IBM", "80"), PublishOptions{})
	}
	for _, bad := range []string{"abc", "-1", "1.5"} {
		env := soap.New(soap.V11)
		wsa.DestinationEPR(h.Manager, V200408.ActionPull(), "urn:test:pull").Apply(env)
		env.AddBody(xmldom.Elem(NS200408, "Pull", xmldom.Elem(NS200408, "MaxElements", bad)))
		_, err := f.lb.Call(context.Background(), h.Manager.Address, env)
		var fault *soap.Fault
		if !errors.As(err, &fault) || fault.Subcode.Local != "InvalidMessage" {
			t.Errorf("MaxElements %q: err = %v, want InvalidMessage", bad, err)
		}
	}
	if msgs, err := f.sub.Pull(context.Background(), h, 0); err != nil || len(msgs) != 3 {
		t.Errorf("after malformed pulls: %d messages, %v; want all 3 still queued", len(msgs), err)
	}
}

func TestPullModeRejectedIn200401(t *testing.T) {
	f := newFixture(t, V200401)
	_, err := f.sub.Subscribe(context.Background(), "svc://source",
		&SubscribeRequest{NotifyTo: wsa.NewEPR(wsa.V200303, "svc://sink"),
			Mode: V200401.DeliveryModePull()})
	var fault *soap.Fault
	if !errors.As(err, &fault) || fault.Subcode.Local != "DeliveryModeRequestedUnavailable" {
		t.Errorf("err = %v", err)
	}
}

func TestWrappedMode(t *testing.T) {
	f := newFixture(t, V200408)
	f.source.cfg.WrapBatchSize = 3
	f.subscribe(t, &SubscribeRequest{Mode: V200408.DeliveryModeWrap()})
	for i := 0; i < 7; i++ {
		f.source.Publish(context.Background(), payload("IBM", "80"), PublishOptions{})
	}
	// Two full batches of 3 delivered; 1 pending.
	if got := f.sink.Count(); got != 6 {
		t.Fatalf("received %d, want 6", got)
	}
	for _, n := range f.sink.Received() {
		if !n.Wrapped {
			t.Error("wrapped delivery not flagged")
		}
	}
	f.source.FlushWrapped()
	if got := f.sink.Count(); got != 7 {
		t.Errorf("after flush %d, want 7", got)
	}
}

func TestSubscriptionEndOnShutdown(t *testing.T) {
	for _, v := range []Version{V200401, V200408} {
		t.Run(v.String(), func(t *testing.T) {
			f := newFixture(t, v)
			h := f.subscribe(t, &SubscribeRequest{
				EndTo: wsa.NewEPR(v.WSAVersion(), "svc://sink"),
			})
			f.source.Shutdown()
			ends := f.sink.Ends()
			if len(ends) != 1 {
				t.Fatalf("ends = %d", len(ends))
			}
			if ends[0].Status != EndSourceShuttingDown {
				t.Errorf("status = %q", ends[0].Status)
			}
			if ends[0].ID != h.ID {
				t.Errorf("end id = %q, want %q", ends[0].ID, h.ID)
			}
		})
	}
}

func TestNoEndToNoEndNotice(t *testing.T) {
	f := newFixture(t, V200408)
	f.subscribe(t, &SubscribeRequest{}) // no EndTo
	f.source.Shutdown()
	if len(f.sink.Ends()) != 0 {
		t.Error("end notice sent without EndTo")
	}
}

func TestSubscriptionEndOnExpiryScavenge(t *testing.T) {
	f := newFixture(t, V200408)
	f.subscribe(t, &SubscribeRequest{
		Expires: "PT5M",
		EndTo:   wsa.NewEPR(wsa.V200408, "svc://sink"),
	})
	f.clock.advance(6 * time.Minute)
	if n := f.source.Scavenge(); n != 1 {
		t.Fatalf("scavenged %d", n)
	}
	if len(f.sink.Ends()) != 1 {
		t.Fatal("no end notice after expiry")
	}
}

func TestDeliveryFailureDropsSubscription(t *testing.T) {
	f := newFixture(t, V200408)
	// Sink at a dead address; EndTo at the live sink.
	f.subscribe(t, &SubscribeRequest{
		NotifyTo: wsa.NewEPR(wsa.V200408, "svc://dead"),
		EndTo:    wsa.NewEPR(wsa.V200408, "svc://sink"),
	})
	for i := 0; i < 3; i++ {
		f.source.Publish(context.Background(), payload("X", "1"), PublishOptions{})
	}
	if f.source.SubscriptionCount() != 0 {
		t.Error("failing subscription not dropped after limit")
	}
	ends := f.sink.Ends()
	if len(ends) != 1 || ends[0].Status != EndDeliveryFailure {
		t.Errorf("ends = %+v", ends)
	}
}

func TestDeliveryFailureCounterResets(t *testing.T) {
	f := newFixture(t, V200408)
	flaky := &Sink{}
	f.lb.Register("svc://flaky", flaky)
	f.subscribe(t, &SubscribeRequest{NotifyTo: wsa.NewEPR(wsa.V200408, "svc://flaky")})
	// Two failures, then success, then two failures: should survive.
	f.lb.Register("svc://flaky", nil)
	f.source.Publish(context.Background(), payload("X", "1"), PublishOptions{})
	f.source.Publish(context.Background(), payload("X", "2"), PublishOptions{})
	f.lb.Register("svc://flaky", flaky)
	f.source.Publish(context.Background(), payload("X", "3"), PublishOptions{})
	f.lb.Register("svc://flaky", nil)
	f.source.Publish(context.Background(), payload("X", "4"), PublishOptions{})
	f.source.Publish(context.Background(), payload("X", "5"), PublishOptions{})
	if f.source.SubscriptionCount() != 1 {
		t.Error("subscription dropped despite interleaved success")
	}
}

func TestTopicHeaderRoundTrip(t *testing.T) {
	f := newFixture(t, V200408)
	f.subscribe(t, &SubscribeRequest{})
	topic := topics.NewPath("urn:grid", "jobs", "completed")
	f.source.Publish(context.Background(), payload("X", "1"), PublishOptions{Topic: topic})
	got := f.sink.Received()
	if len(got) != 1 {
		t.Fatal("no delivery")
	}
	if !got[0].Topic.Equal(topic) {
		t.Errorf("topic = %v, want %v", got[0].Topic, topic)
	}
}

func TestDefaultAndMaxExpiry(t *testing.T) {
	lb := transport.NewLoopback()
	clk := &clock{t: time.Date(2006, 2, 1, 0, 0, 0, 0, time.UTC)}
	src := NewSource(SourceConfig{
		Version: V200408, Address: "svc://s", Client: lb, Clock: clk.now,
		DefaultExpiry: time.Hour, MaxExpiry: 2 * time.Hour,
	})
	lb.Register("svc://s", src.SourceHandler())
	lb.Register("svc://sink", &Sink{})
	sub := &Subscriber{Client: lb, Version: V200408}
	// Omitted expiry gets the default.
	h, err := sub.Subscribe(context.Background(), "svc://s", &SubscribeRequest{
		NotifyTo: wsa.NewEPR(wsa.V200408, "svc://sink")})
	if err != nil {
		t.Fatal(err)
	}
	if !h.Expires.Equal(clk.now().Add(time.Hour)) {
		t.Errorf("default expiry = %v", h.Expires)
	}
	// Requests beyond the cap are trimmed.
	h2, _ := sub.Subscribe(context.Background(), "svc://s", &SubscribeRequest{
		NotifyTo: wsa.NewEPR(wsa.V200408, "svc://sink"), Expires: "P30D"})
	if !h2.Expires.Equal(clk.now().Add(2 * time.Hour)) {
		t.Errorf("capped expiry = %v", h2.Expires)
	}
}

func TestSubscribeWithoutNotifyToFaults(t *testing.T) {
	f := newFixture(t, V200408)
	_, err := f.sub.Subscribe(context.Background(), "svc://source", &SubscribeRequest{})
	var fault *soap.Fault
	if !errors.As(err, &fault) || fault.Subcode.Local != "InvalidMessage" {
		t.Errorf("err = %v", err)
	}
}

func TestVersionMismatchFaults(t *testing.T) {
	// A 1/2004 Subscribe sent to an 8/2004 source faults.
	f := newFixture(t, V200408)
	old := &Subscriber{Client: f.lb, Version: V200401}
	_, err := old.Subscribe(context.Background(), "svc://source",
		&SubscribeRequest{NotifyTo: wsa.NewEPR(wsa.V200303, "svc://sink")})
	if err == nil {
		t.Error("cross-version subscribe accepted")
	}
}

func TestPullQueueOverflowDropsOldest(t *testing.T) {
	lb := transport.NewLoopback()
	src := NewSource(SourceConfig{Version: V200408, Address: "svc://s", Client: lb, PullQueueCap: 2})
	lb.Register("svc://s", src.SourceHandler())
	lb.Register("svc://m", src.ManagerHandler())
	lb.Register("svc://sink", &Sink{})
	sub := &Subscriber{Client: lb, Version: V200408}
	h, err := sub.Subscribe(context.Background(), "svc://s", &SubscribeRequest{
		NotifyTo: wsa.NewEPR(wsa.V200408, "svc://sink"), Mode: V200408.DeliveryModePull()})
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range []string{"1", "2", "3"} {
		_ = i
		src.Publish(context.Background(), payload("S", p), PublishOptions{})
	}
	msgs, _ := sub.Pull(context.Background(), h, 0)
	if len(msgs) != 2 {
		t.Fatalf("queue held %d, want cap 2", len(msgs))
	}
	if msgs[0].ChildText(xmldom.N("urn:market", "price")) != "2" {
		t.Error("oldest message not dropped")
	}
}

func TestMessageFormatDifferences(t *testing.T) {
	// §V.4: the same logical subscribe renders differently per version.
	req := &SubscribeRequest{
		NotifyTo: wsa.NewEPR(wsa.V200408, "svc://sink"),
		Expires:  "PT5M",
	}
	e01 := req.Element(V200401)
	e08 := req.Element(V200408)
	if e01.Name.Space == e08.Name.Space {
		t.Error("namespaces should differ across versions")
	}
	if e01.Child(xmldom.N(NS200401, "Delivery")) != nil {
		t.Error("1/2004 should not have a Delivery wrapper")
	}
	if e08.Child(xmldom.N(NS200408, "Delivery")) == nil {
		t.Error("8/2004 should wrap NotifyTo in Delivery")
	}
	// Round-trip both.
	for _, el := range []*xmldom.Element{e01, e08} {
		back, _, err := ParseSubscribe(xmldom.MustParse(xmldom.Marshal(el)))
		if err != nil {
			t.Fatalf("round trip: %v", err)
		}
		if back.NotifyTo == nil || back.NotifyTo.Address != "svc://sink" {
			t.Error("NotifyTo lost")
		}
		if back.Expires != "PT5M" {
			t.Error("Expires lost")
		}
	}
}

func TestSubscriptionEndMessageRoundTrip(t *testing.T) {
	for _, v := range []Version{V200401, V200408} {
		end := &SubscriptionEnd{
			Manager: wsa.NewEPR(v.WSAVersion(), "svc://mgr"),
			ID:      "sub-7",
			Status:  EndDeliveryFailure,
			Reason:  "sink unreachable",
		}
		el := end.Element(v)
		back, ver, err := ParseSubscriptionEnd(xmldom.MustParse(xmldom.Marshal(el)))
		if err != nil || ver != v {
			t.Fatalf("%v: %v %v", v, ver, err)
		}
		if back.Status != EndDeliveryFailure || back.Reason != "sink unreachable" || back.ID != "sub-7" {
			t.Errorf("%v: round trip = %+v", v, back)
		}
	}
}

func TestCapabilitiesMatchTable1(t *testing.T) {
	c01 := V200401.Capabilities()
	c08 := V200408.Capabilities()
	// The five convergence items of §IV all flipped between versions.
	if c01.SeparateSubscriptionManager || !c08.SeparateSubscriptionManager {
		t.Error("separate manager row wrong")
	}
	if c01.GetStatusOperation || !c08.GetStatusOperation {
		t.Error("GetStatus row wrong")
	}
	if c01.SubscriptionIDInWSA || !c08.SubscriptionIDInWSA {
		t.Error("subscriptionId-in-WSA row wrong")
	}
	if c01.WrappedDelivery || !c08.WrappedDelivery {
		t.Error("wrapped row wrong")
	}
	if c01.PullDelivery || !c08.PullDelivery {
		t.Error("pull row wrong")
	}
	// Stable rows.
	if !c01.DurationExpiry || !c08.DurationExpiry || !c01.XPathDialect || !c08.XPathDialect {
		t.Error("duration/xpath rows wrong")
	}
	if c01.RequiresWSRF || c08.RequiresWSRF || c01.RequiresTopic || c08.RequiresTopic {
		t.Error("WSE never requires WSRF or topics")
	}
	if c01.WSAVersion != "2003/03" || c08.WSAVersion != "2004/08" {
		t.Errorf("WSA versions: %s %s", c01.WSAVersion, c08.WSAVersion)
	}
}

func TestConcurrentPublishAndSubscribe(t *testing.T) {
	f := newFixture(t, V200408)
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 25; j++ {
				f.sub.Subscribe(context.Background(), "svc://source",
					&SubscribeRequest{NotifyTo: wsa.NewEPR(wsa.V200408, "svc://sink")})
			}
		}()
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 25; j++ {
				f.source.Publish(context.Background(), payload("IBM", "80"), PublishOptions{})
			}
		}()
	}
	wg.Wait()
	if f.source.SubscriptionCount() != 100 {
		t.Errorf("subscriptions = %d", f.source.SubscriptionCount())
	}
}

func TestRenewWithoutExpiresGrantsIndefinite(t *testing.T) {
	f := newFixture(t, V200408)
	h := f.subscribe(t, &SubscribeRequest{Expires: "PT10M"})
	granted, err := f.sub.Renew(context.Background(), h, "")
	if err != nil {
		t.Fatal(err)
	}
	if !granted.IsZero() {
		t.Errorf("granted = %v, want zero", granted)
	}
	f.clock.advance(100 * time.Hour)
	if f.source.Scavenge() != 0 {
		t.Error("indefinite subscription scavenged")
	}
}

func TestParseSubscribeRejectsForeignBodies(t *testing.T) {
	if _, _, err := ParseSubscribe(xmldom.Elem("urn:x", "Subscribe")); err == nil {
		t.Error("foreign Subscribe accepted")
	}
	if _, _, err := ParseSubscribeResponse(xmldom.Elem("urn:x", "SubscribeResponse")); err == nil {
		t.Error("foreign response accepted")
	}
	if _, _, err := ParseSubscriptionEnd(xmldom.Elem("urn:x", "SubscriptionEnd")); err == nil {
		t.Error("foreign end accepted")
	}
	// 8/2004 response without a SubscriptionManager errors.
	if _, _, err := ParseSubscribeResponse(xmldom.NewElement(xmldom.N(NS200408, "SubscribeResponse"))); err == nil {
		t.Error("managerless response accepted")
	}
}

// TestWrappedBatchReportsSendError: the Publish that fills a wrapped batch
// sends it, so a failed send is that Publish's error.
func TestWrappedBatchReportsSendError(t *testing.T) {
	f := newFixture(t, V200408)
	f.source.cfg.WrapBatchSize = 2
	f.subscribe(t, &SubscribeRequest{NotifyTo: wsa.NewEPR(wsa.V200408, "svc://dead"), Mode: V200408.DeliveryModeWrap()})
	if _, err := f.source.Publish(context.Background(), payload("X", "1"), PublishOptions{}); err != nil {
		t.Errorf("buffering publish: %v", err)
	}
	if _, err := f.source.Publish(context.Background(), payload("X", "2"), PublishOptions{}); err == nil {
		t.Error("the publish that filled the batch did not report its failed send")
	}
}

// TestEngineTracksLeases: however a subscription ends — unsubscribe,
// failure eviction, scavenged expiry, shutdown — the dispatch engine lets
// go of it together with the lease store, and once nothing is buffered the
// engine's conservation law holds.
func TestEngineTracksLeases(t *testing.T) {
	f := newFixture(t, V200408)
	f.source.cfg.WrapBatchSize = 2
	check := func(step string) {
		t.Helper()
		if got, want := f.source.eng.Count(), f.source.store.Len(); got != want {
			t.Errorf("after %s: engine holds %d subscriptions, store %d", step, got, want)
		}
	}
	push := f.subscribe(t, &SubscribeRequest{})
	f.subscribe(t, &SubscribeRequest{Mode: V200408.DeliveryModePull()})
	f.subscribe(t, &SubscribeRequest{Mode: V200408.DeliveryModeWrap()})
	f.subscribe(t, &SubscribeRequest{Expires: "PT5M"})
	f.subscribe(t, &SubscribeRequest{NotifyTo: wsa.NewEPR(wsa.V200408, "svc://dead")})
	check("subscribe")
	if err := f.sub.Unsubscribe(context.Background(), push); err != nil {
		t.Fatal(err)
	}
	check("unsubscribe")
	for i := 0; i < 3; i++ {
		f.source.Publish(context.Background(), payload("X", "1"), PublishOptions{})
	}
	check("eviction")
	f.clock.advance(6 * time.Minute)
	if n := f.source.Scavenge(); n != 1 {
		t.Fatalf("scavenged %d", n)
	}
	check("scavenge")
	f.source.FlushWrapped()
	f.source.Shutdown()
	check("shutdown")
	if n := f.source.eng.Count(); n != 0 {
		t.Errorf("engine still holds %d subscriptions", n)
	}
	if st := f.source.eng.Stats(); st.Matched != st.Delivered+st.Dropped+st.Failed+st.DeadLettered {
		t.Errorf("conservation: %+v", st)
	}
}

// TestConcurrentPublishAndChurn publishes while other goroutines subscribe
// and unsubscribe through the handlers; run it under -race.
func TestConcurrentPublishAndChurn(t *testing.T) {
	f := newFixture(t, V200408)
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(2)
		go func() {
			defer wg.Done()
			for j := 0; j < 25; j++ {
				h, err := f.sub.Subscribe(context.Background(), "svc://source",
					&SubscribeRequest{NotifyTo: wsa.NewEPR(wsa.V200408, "svc://sink")})
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
			for j := 0; j < 25; j++ {
				f.source.Publish(context.Background(), payload("IBM", "80"), PublishOptions{})
			}
		}()
	}
	wg.Wait()
	if f.source.SubscriptionCount() != 0 || f.source.eng.Count() != 0 {
		t.Errorf("left behind: %d leases, %d engine subscriptions", f.source.SubscriptionCount(), f.source.eng.Count())
	}
}
