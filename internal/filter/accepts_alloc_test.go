package filter_test

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/filter"
	"repro/internal/mediation"
	"repro/internal/soap"
	"repro/internal/topics"
	"repro/internal/workload"
	"repro/internal/wsa"
	"repro/internal/wsnt"
	"repro/internal/xmldom"
)

// notifyPayload publishes one Medium workload event as a WS-Notification
// 1.3 Notify and returns its payload the way the broker holds it: parsed
// from the wire and still attached to its envelope, so "//" paths search
// the whole SOAP message.
func notifyPayload(t testing.TB) (topics.Path, *xmldom.Element) {
	t.Helper()
	ev := workload.New(workload.Config{Seed: 1, Size: workload.Medium}).Next()
	plan := mediation.DeliveryPlan{
		Dialect:        mediation.Dialect{Family: mediation.FamilyWSN, WSN: wsnt.V1_3},
		SubscriptionID: "wsm-1", ManagerAddress: "http://broker.invalid/manage", ProducerAddress: "http://broker.invalid/",
	}
	note := mediation.Notification{Topic: ev.Topic, Payload: ev.Payload}
	wire := mediation.Render(note, wsa.NewEPR(wsa.V200508, "http://sink.invalid/"), plan, "urn:uuid:m-1").Marshal()
	env, err := soap.ParseBytes(wire)
	if err != nil {
		t.Fatal(err)
	}
	ns, _, err := mediation.ParseIncoming(env)
	if err != nil || len(ns) != 1 {
		t.Fatalf("Notify parsed to %d notifications: %v", len(ns), err)
	}
	if ns[0].Payload.Parent() == nil {
		t.Fatal("payload detached from its envelope")
	}
	return ns[0].Topic, ns[0].Payload
}

// workloadFilter is the content filter shape of the benchmark's
// content_filter_select subscriptions that evaluates all three paths.
func workloadFilter(t testing.TB, user string) filter.Content {
	t.Helper()
	c, err := filter.NewContent(filter.DialectXPath10,
		fmt.Sprintf("//w:user='%s' and (//w:queue!='batch' or //w:exitCode='0')", user),
		map[string]string{"w": workload.NS})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// TestContentAcceptsAllocs ratchets the allocations of one content-filter
// evaluation on a Medium Notify envelope: every "//x" is one document-order
// walk from the root, with no sort and no de-duplication map, so the count
// stays a small constant instead of growing with the envelope's node count.
func TestContentAcceptsAllocs(t *testing.T) {
	const maxAllocs = 16
	tp, payload := notifyPayload(t)
	user := payload.ChildText(xmldom.N(workload.NS, "user"))
	queue := payload.ChildText(xmldom.N(workload.NS, "queue"))
	code := payload.Child(xmldom.N(workload.NS, "resources")).ChildText(xmldom.N(workload.NS, "exitCode"))
	msg := filter.Message{Topic: tp, Payload: payload}
	for _, tc := range []struct {
		user string
		want bool
	}{
		{user, queue != "batch" || code == "0"},
		{"nobody", false},
	} {
		c := workloadFilter(t, tc.user)
		ok, err := c.Accepts(msg)
		if err != nil || ok != tc.want {
			t.Fatalf("%s: Accepts = %v, %v; want %v", c.Describe(), ok, err, tc.want)
		}
		allocs := testing.AllocsPerRun(100, func() { _, _ = c.Accepts(msg) })
		if allocs > maxAllocs {
			t.Errorf("%s: %.0f allocations per Accepts, ceiling %d", c.Describe(), allocs, maxAllocs)
		}
	}
}

// TestContentAcceptsConcurrent evaluates one compiled filter from many
// goroutines at once; under -race it shows the evaluator keeps no state
// in the compiled expression.
func TestContentAcceptsConcurrent(t *testing.T) {
	tp, payload := notifyPayload(t)
	user := payload.ChildText(xmldom.N(workload.NS, "user"))
	msg := filter.Message{Topic: tp, Payload: payload}
	c := workloadFilter(t, user)
	want, err := c.Accepts(msg)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				if got, err := c.Accepts(msg); err != nil || got != want {
					t.Errorf("concurrent Accepts = %v, %v; want %v", got, err, want)
					return
				}
			}
		}()
	}
	wg.Wait()
}

// BenchmarkContentAcceptsNotify is the in-broker cost of one content
// filter of the content_filter_select shape (EXPERIMENTS.md B2): evaluated
// against a Medium payload still inside its WSN 1.3 Notify envelope, with
// a user that does not match, as 99 % of that workload's calls are.
func BenchmarkContentAcceptsNotify(b *testing.B) {
	tp, payload := notifyPayload(b)
	msg := filter.Message{Topic: tp, Payload: payload}
	c := workloadFilter(b, "nobody")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_, _ = c.Accepts(msg)
	}
}
