package core

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/backend"
	"repro/internal/soap"

	"repro/internal/topics"
	"repro/internal/transport"
	"repro/internal/wsa"
	"repro/internal/wse"
	"repro/internal/wsnt"
	"repro/internal/wsrf"
	"repro/internal/xmldom"
)

func TestPublishWithNoSubscribersSucceeds(t *testing.T) {
	f := newFixture(t)
	f.publishWSE(t, grid, event("nobody"))
	f.publishWSN(t, grid, event("nobody"))
	st := f.broker.Stats()
	if st.Published != 2 || st.Delivered != 0 {
		t.Errorf("stats = %+v", st)
	}
}

func TestEmptyBodyFaults(t *testing.T) {
	f := newFixture(t)
	_, err := f.lb.Call(context.Background(), "svc://wsm", soap.New(soap.V11))
	var fault *soap.Fault
	if !errors.As(err, &fault) {
		t.Errorf("empty body err = %v", err)
	}
}

func TestGetCurrentMessageIsWSNOnly(t *testing.T) {
	f := newFixture(t)
	// A hand-built WSE-namespace GetCurrentMessage-like request is just an
	// unknown management op.
	env := soap.New(soap.V11)
	env.AddBody(xmldom.Elem(wse.NS200408, "GetCurrentMessage"))
	_, err := f.lb.Call(context.Background(), "svc://wsm-subs", env)
	if err == nil {
		t.Error("WSE-namespace GetCurrentMessage accepted")
	}
}

func TestUnknownManagementOpFaults(t *testing.T) {
	f := newFixture(t)
	env := soap.New(soap.V11)
	env.AddBody(xmldom.Elem(wsnt.NS1_3, "Frobnicate"))
	_, err := f.lb.Call(context.Background(), "svc://wsm-subs", env)
	var fault *soap.Fault
	if !errors.As(err, &fault) || fault.Subcode.Local != "UnsupportedOperationFault" {
		t.Errorf("err = %v", err)
	}
	// Entirely foreign namespace at the manager.
	env2 := soap.New(soap.V11)
	env2.AddBody(xmldom.Elem("urn:alien", "Op"))
	if _, err := f.lb.Call(context.Background(), "svc://wsm-subs", env2); err == nil {
		t.Error("alien management request accepted")
	}
}

func TestBadWSNFilterAtBroker(t *testing.T) {
	f := newFixture(t)
	s := &wsnt.Subscriber{Client: f.lb, Version: wsnt.V1_3}
	_, err := s.Subscribe(context.Background(), "svc://wsm", &wsnt.SubscribeRequest{
		ConsumerReference: wsa.NewEPR(wsa.V200508, "svc://wsn-consumer"),
		ContentExpr:       "///bad[",
	})
	var fault *soap.Fault
	if !errors.As(err, &fault) || fault.Subcode.Local != "InvalidFilterFault" {
		t.Errorf("err = %v", err)
	}
	// Unknown topic dialect likewise.
	_, err = s.Subscribe(context.Background(), "svc://wsm", &wsnt.SubscribeRequest{
		ConsumerReference: wsa.NewEPR(wsa.V200508, "svc://wsn-consumer"),
		TopicExpression:   "t:a", TopicDialect: "urn:bogus",
		TopicNS: map[string]string{"t": "urn:x"},
	})
	if !errors.As(err, &fault) {
		t.Errorf("dialect err = %v", err)
	}
}

// failingBackend errors on publish, to exercise the fault path.
type failingBackend struct{ backend.Backend }

func (f failingBackend) Publish(backend.Message) error {
	return errors.New("fabric down")
}

func TestBackendFailureSurfacesAsReceiverFault(t *testing.T) {
	lb := transport.NewLoopback()
	b, err := New(Config{Address: "svc://x", Client: lb,
		Backend: failingBackend{backend.NewMemory()}, SyncDelivery: true})
	if err != nil {
		t.Fatal(err)
	}
	lb.Register("svc://x", b.FrontHandler())
	env := soap.New(soap.V11)
	(&wsa.MessageHeaders{Version: wsa.V200508, To: "svc://x",
		Action: wsnt.V1_3.ActionNotify()}).Apply(env)
	env.AddBody(wsnt.NotifyElement(wsnt.V1_3, []*wsnt.NotificationMessage{
		{Topic: grid, Payload: event("x")},
	}))
	err = lb.Send(context.Background(), "svc://x", env)
	var fault *soap.Fault
	if !errors.As(err, &fault) || fault.Code != soap.FaultReceiver {
		t.Errorf("err = %v", err)
	}
}

func TestEmptyPullAtBroker(t *testing.T) {
	f := newFixture(t)
	s := &wse.Subscriber{Client: f.lb, Version: wse.V200408}
	h, err := s.Subscribe(context.Background(), "svc://wsm", &wse.SubscribeRequest{
		NotifyTo: wsa.NewEPR(wsa.V200408, "svc://wse-sink"),
		Mode:     wse.V200408.DeliveryModePull(),
	})
	if err != nil {
		t.Fatal(err)
	}
	msgs, err := s.Pull(context.Background(), h, 0)
	if err != nil || len(msgs) != 0 {
		t.Errorf("empty pull = %d %v", len(msgs), err)
	}
}

// TestPullMaxElementsAtBroker: MaxElements bounds a pull; a value that is
// not a non-negative integer is the spec's InvalidMessage fault, not a
// silent "everything".
func TestPullMaxElementsAtBroker(t *testing.T) {
	f := newFixture(t)
	s := &wse.Subscriber{Client: f.lb, Version: wse.V200408}
	h, err := s.Subscribe(context.Background(), "svc://wsm", &wse.SubscribeRequest{
		NotifyTo: wsa.NewEPR(wsa.V200408, "svc://wse-sink"),
		Mode:     wse.V200408.DeliveryModePull(),
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		f.broker.Publish(grid, event(fmt.Sprint(i)))
	}
	pull := func(maxElements string) (*soap.Envelope, error) {
		env := soap.New(soap.V11)
		wsa.DestinationEPR(h.Manager, wse.V200408.ActionPull(), "urn:test:pull").Apply(env)
		env.AddBody(xmldom.Elem(wse.NS200408, "Pull", xmldom.Elem(wse.NS200408, "MaxElements", maxElements)))
		return f.lb.Call(context.Background(), h.Manager.Address, env)
	}
	for _, bad := range []string{"lots", "-1", "1.5", "2 apples"} {
		_, err := pull(bad)
		var fault *soap.Fault
		if !errors.As(err, &fault) || fault.Subcode.Local != "InvalidMessage" {
			t.Errorf("MaxElements %q: err = %v, want InvalidMessage", bad, err)
		}
	}
	// The malformed requests consumed nothing; a bounded pull then takes
	// exactly its bound, and an explicit 0 means everything, as absence does.
	for _, tc := range []struct {
		max  string
		want int
	}{{" 2 ", 2}, {"0", 1}} {
		resp, err := pull(tc.max)
		if err != nil {
			t.Fatalf("MaxElements %q: %v", tc.max, err)
		}
		if got := len(resp.FirstBody().ChildrenNamed(xmldom.N(wse.NS200408, "Message"))); got != tc.want {
			t.Errorf("MaxElements %q pulled %d, want %d", tc.max, got, tc.want)
		}
	}
}

func TestPullQueueOverflowAtBroker(t *testing.T) {
	lb := transport.NewLoopback()
	b, err := New(Config{Address: "svc://x", Client: lb, SyncDelivery: true, PullQueueCap: 2})
	if err != nil {
		t.Fatal(err)
	}
	lb.Register("svc://x", b.FrontHandler())
	lb.Register("svc://sink", &wse.Sink{})
	s := &wse.Subscriber{Client: lb, Version: wse.V200408}
	h, err := s.Subscribe(context.Background(), "svc://x", &wse.SubscribeRequest{
		NotifyTo: wsa.NewEPR(wsa.V200408, "svc://sink"),
		Mode:     wse.V200408.DeliveryModePull(),
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		b.Publish(grid, event("q"))
	}
	msgs, _ := s.Pull(context.Background(), h, 0)
	if len(msgs) != 2 {
		t.Errorf("queue = %d, want cap 2", len(msgs))
	}
	if b.Stats().Dropped != 3 {
		t.Errorf("dropped = %d, want 3", b.Stats().Dropped)
	}
}

// TestPullQueueOverflowKeepsNewestInOrder is the regression test for the
// old `pullQueue = pullQueue[1:]` overflow path: pushing far past
// PullQueueCap must keep exactly the newest cap messages, in publish
// order, without unbounded slice growth behind the scenes (covered at the
// ring level by TestRingDropOldestBounded in internal/dispatch).
func TestPullQueueOverflowKeepsNewestInOrder(t *testing.T) {
	const cap = 4
	lb := transport.NewLoopback()
	b, err := New(Config{Address: "svc://x", Client: lb, SyncDelivery: true, PullQueueCap: cap})
	if err != nil {
		t.Fatal(err)
	}
	lb.Register("svc://x", b.FrontHandler())
	s := &wse.Subscriber{Client: lb, Version: wse.V200408}
	h, err := s.Subscribe(context.Background(), "svc://x", &wse.SubscribeRequest{
		NotifyTo: wsa.NewEPR(wsa.V200408, "svc://sink"),
		Mode:     wse.V200408.DeliveryModePull(),
	})
	if err != nil {
		t.Fatal(err)
	}
	const total = 10 * cap
	for i := 0; i < total; i++ {
		b.Publish(grid, event(fmt.Sprintf("m%03d", i)))
	}
	msgs, err := s.Pull(context.Background(), h, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(msgs) != cap {
		t.Fatalf("pulled %d messages, want %d", len(msgs), cap)
	}
	for i, m := range msgs {
		want := fmt.Sprintf("m%03d", total-cap+i)
		if got := m.ChildText(xmldom.N("urn:grid", "val")); got != want {
			t.Errorf("survivor %d = %q, want %q (reordered or stale)", i, got, want)
		}
	}
	if got := b.Stats().Dropped; got != total-cap {
		t.Errorf("dropped = %d, want %d", got, total-cap)
	}
}

func TestExpiredSubscriptionNotDeliveredBeforeScavenge(t *testing.T) {
	f := newFixture(t)
	f.subscribeWSE(t, wse.V200408, &wse.SubscribeRequest{Expires: "PT5M"})
	f.clock.advance(6 * time.Minute)
	// Not yet scavenged, but lapsed — must not deliver.
	f.publishWSE(t, grid, event("late"))
	if f.wseSink.Count() != 0 {
		t.Error("lapsed subscription delivered before scavenge")
	}
}

func TestQueueDepthOverflowDropsAsync(t *testing.T) {
	// A stalled consumer with a tiny queue drops overflow instead of
	// blocking the publisher.
	lb := transport.NewLoopback()
	release := make(chan struct{})
	started := make(chan struct{}, 1)
	slow := transport.HandlerFunc(func(_ context.Context, _ *soap.Envelope) (*soap.Envelope, error) {
		select {
		case started <- struct{}{}:
		default:
		}
		<-release
		return nil, nil
	})
	lb.Register("svc://slow", slow)
	b, err := New(Config{Address: "svc://x", Client: lb, QueueDepth: 1})
	if err != nil {
		t.Fatal(err)
	}
	lb.Register("svc://x", b.FrontHandler())
	s := &wse.Subscriber{Client: lb, Version: wse.V200408}
	if _, err := s.Subscribe(context.Background(), "svc://x", &wse.SubscribeRequest{
		NotifyTo: wsa.NewEPR(wsa.V200408, "svc://slow")}); err != nil {
		t.Fatal(err)
	}
	// First publish occupies the worker; wait until it is being handled so
	// the queue slot is free again, then fill the queue and overflow it.
	b.Publish(grid, event("1"))
	<-started
	b.Publish(grid, event("2")) // sits in the queue
	b.Publish(grid, event("3")) // overflow: dropped
	b.Publish(grid, event("4")) // overflow: dropped
	if got := b.Stats().Dropped; got != 2 {
		t.Errorf("dropped = %d, want 2", got)
	}
	close(release)
	b.Flush()
}

func TestBrokerAccessorsAndExpiryRules(t *testing.T) {
	f := newFixture(t)
	if f.broker.Address() != "svc://wsm" || f.broker.ManagerAddress() != "svc://wsm-subs" {
		t.Errorf("addresses = %q %q", f.broker.Address(), f.broker.ManagerAddress())
	}
	// Default and max expiry applied at the broker.
	lb := transport.NewLoopback()
	b, err := New(Config{Address: "svc://b", Client: lb, Clock: f.clock.now,
		SyncDelivery: true, DefaultExpiry: time.Hour, MaxExpiry: 2 * time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	lb.Register("svc://b", b.FrontHandler())
	lb.Register("svc://sink", &wse.Sink{})
	s := &wse.Subscriber{Client: lb, Version: wse.V200408}
	h, err := s.Subscribe(context.Background(), "svc://b", &wse.SubscribeRequest{
		NotifyTo: wsa.NewEPR(wsa.V200408, "svc://sink")})
	if err != nil {
		t.Fatal(err)
	}
	if !h.Expires.Equal(f.clock.now().Add(time.Hour)) {
		t.Errorf("default expiry = %v", h.Expires)
	}
	h2, _ := s.Subscribe(context.Background(), "svc://b", &wse.SubscribeRequest{
		NotifyTo: wsa.NewEPR(wsa.V200408, "svc://sink"), Expires: "P30D"})
	if !h2.Expires.Equal(f.clock.now().Add(2 * time.Hour)) {
		t.Errorf("capped expiry = %v", h2.Expires)
	}
	// Garbage expiry faults.
	_, err = s.Subscribe(context.Background(), "svc://b", &wse.SubscribeRequest{
		NotifyTo: wsa.NewEPR(wsa.V200408, "svc://sink"), Expires: "nonsense"})
	if err == nil {
		t.Error("garbage expiry accepted")
	}
}

func TestRestoreRejectsBadEPRPayloads(t *testing.T) {
	lb := transport.NewLoopback()
	b, _ := New(Config{Address: "svc://x", Client: lb, SyncDelivery: true})
	// Snapshot with a malformed reference parameter and one with no
	// consumer at all.
	bad1 := `{"format":1,"subscriptions":[{"id":"wsm-1","family":1,
	  "consumer":{"version":1,"address":"svc://c","params":["<unclosed"]}}]}`
	if _, err := b.RestoreSubscriptions(strings.NewReader(bad1)); err == nil {
		t.Error("malformed EPR parameter accepted")
	}
	bad2 := `{"format":1,"subscriptions":[{"id":"wsm-2","family":1}]}`
	if _, err := b.RestoreSubscriptions(strings.NewReader(bad2)); err == nil {
		t.Error("consumerless subscription accepted")
	}
	bad3 := `{"format":1,"subscriptions":[{"id":"wsm-3","family":2,"wsn":1,
	  "consumer":{"version":2,"address":"svc://c"},"contentExpr":"///["}]}`
	if _, err := b.RestoreSubscriptions(strings.NewReader(bad3)); err == nil {
		t.Error("uncompilable filter accepted on restore")
	}
}

func TestBrokerAdvertisesTopicSet(t *testing.T) {
	f := newFixture(t)
	f.publishWSE(t, grid, event("a"))
	f.publishWSN(t, topics.NewPath("urn:grid", "weather"), event("b"))
	// A WSRF GetResourcePropertyDocument with no subscription id addresses
	// the broker itself and returns the TopicSet.
	epr := wsa.NewEPR(wsa.V200303, "svc://wsm-subs")
	resp, err := f.lb.Call(context.Background(), "svc://wsm-subs",
		wsrf.NewGetResourcePropertyDocument(epr, ""))
	if err != nil {
		t.Fatal(err)
	}
	doc := resp.FirstBody().ChildElements()[0]
	ts := doc.Child(xmldom.N("http://docs.oasis-open.org/wsn/t-1", "TopicSet"))
	if ts == nil {
		t.Fatalf("no TopicSet in %s", xmldom.Marshal(doc))
	}
	if len(f.broker.TopicSpace().Topics()) != 2 {
		t.Errorf("topic space = %v", f.broker.TopicSpace().Topics())
	}
	if doc.ChildText(xmldom.N("urn:ws-messenger", "Published")) != "2" {
		t.Errorf("published stat = %q", doc.ChildText(xmldom.N("urn:ws-messenger", "Published")))
	}
	// Destroying the broker through WSRF is refused.
	if _, err := f.lb.Call(context.Background(), "svc://wsm-subs", wsrf.NewDestroy(epr, "")); err == nil {
		t.Error("broker destroy accepted")
	}
	if _, err := f.lb.Call(context.Background(), "svc://wsm-subs",
		wsrf.NewSetTerminationTime(epr, "", time.Now())); err == nil {
		t.Error("broker termination scheduling accepted")
	}
}
