package core

import (
	"bytes"
	"context"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/dispatch"
	"repro/internal/dispatch/faulty"
	"repro/internal/obs"
	"repro/internal/soap"
	"repro/internal/transport"
	"repro/internal/wsa"
	"repro/internal/wse"
	"repro/internal/wsnt"
	"repro/internal/xmldom"
)

// scrape renders the registry's Prometheus exposition as a string.
func scrape(t *testing.T, reg *obs.Registry) string {
	t.Helper()
	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

// TestBrokerObsMetrics pins the broker-level series: per-operation and
// mediation-render timings show up under the right labels, the engine
// counters agree with Stats, and the WSRF property document grows a
// DeliveryLatency block when instrumentation is on.
func TestBrokerObsMetrics(t *testing.T) {
	reg := obs.NewRegistry()
	rec := obs.NewRecorder(reg, "broker", obs.RecorderConfig{SampleEvery: 1})
	f := newFixture(t, func(c *Config) { c.Obs = rec })
	defer f.broker.Shutdown()

	f.subscribeWSE(t, wse.V200408, &wse.SubscribeRequest{})
	f.subscribeWSN(t, wsnt.V1_3, &wsnt.SubscribeRequest{})
	f.publishWSE(t, grid, event("a"))
	f.publishWSN(t, grid, event("b"))
	f.broker.Flush()

	text := scrape(t, reg)
	for _, want := range []string{
		`wsm_op_seconds_count{component="broker",op="Subscribe",spec="WS-Eventing 8/2004"} 1`,
		`wsm_op_seconds_count{component="broker",op="Subscribe",spec="WS-Notification 1.3"} 1`,
		`wsm_op_seconds_count{component="broker",op="Notify",spec="WS-Eventing 8/2004"} 1`,
		`wsm_op_seconds_count{component="broker",op="Notify",spec="WS-Notification 1.3"} 1`,
		`wsm_mediation_render_seconds_count{component="broker"} 4`,
		`wsm_published_total{component="broker"} 2`,
		`wsm_delivered_total{component="broker"} 4`,
		`wsm_subscribers{component="broker"} 2`,
	} {
		if !strings.Contains(text, want+"\n") {
			t.Errorf("exposition missing %q", want)
		}
	}

	// The delivery-stage percentiles surface as a WSRF resource property
	// alongside DeadLetters.
	doc, err := brokerSelfResource{f.broker}.PropertyDocument()
	if err != nil {
		t.Fatal(err)
	}
	lat := doc.Child(xmldom.N("urn:ws-messenger", "DeliveryLatency"))
	if lat == nil {
		t.Fatal("property document has no DeliveryLatency")
	}
	for _, q := range []string{"P50", "P95", "P99"} {
		if lat.ChildText(xmldom.N("urn:ws-messenger", q)) == "" {
			t.Errorf("DeliveryLatency missing %s", q)
		}
	}

	// An uninstrumented broker must not advertise latencies it isn't
	// measuring.
	plain := newFixture(t)
	defer plain.broker.Shutdown()
	doc, err = brokerSelfResource{plain.broker}.PropertyDocument()
	if err != nil {
		t.Fatal(err)
	}
	if doc.Child(xmldom.N("urn:ws-messenger", "DeliveryLatency")) != nil {
		t.Error("uninstrumented property document advertises DeliveryLatency")
	}
}

// TestRenderHistogramFedOnBothTails pins the wsm_mediation_render_seconds
// feed: one observation per template build or fresh render — never per
// stamp — whether deliveries post directly or ride the per-destination
// pool. The pool tail used to feed nothing, so the daemon's default flags
// read 0.
func TestRenderHistogramFedOnBothTails(t *testing.T) {
	for name, batchMax := range map[string]int{"pool off": 0, "pool on": 8} {
		t.Run(name, func(t *testing.T) {
			reg := obs.NewRegistry()
			rec := obs.NewRecorder(reg, "broker", obs.RecorderConfig{SampleEvery: 1})
			f := newFixture(t, func(c *Config) { c.Obs, c.BatchMax = rec, batchMax })
			defer f.broker.Shutdown()
			if pooled := f.broker.DestWriter() != nil; pooled != (batchMax > 1) {
				t.Fatalf("dest pool present = %v with BatchMax %d", pooled, batchMax)
			}
			// Two render keys per publish: the WSE consumer's, and one the
			// two WSN 1.3 consumers share (build once, stamp twice).
			f.subscribeWSE(t, wse.V200408, &wse.SubscribeRequest{})
			f.subscribeWSN(t, wsnt.V1_3, &wsnt.SubscribeRequest{})
			f.subscribeWSN(t, wsnt.V1_3, &wsnt.SubscribeRequest{})
			f.publishWSE(t, grid, event("a"))
			f.publishWSN(t, grid, event("b"))
			f.broker.Flush()
			text := scrape(t, reg)
			for _, want := range []string{
				`wsm_delivered_total{component="broker"} 6`,
				`wsm_mediation_render_seconds_count{component="broker"} 4`,
				`wsm_render_cache_misses_total{component="broker"} 4`,
				`wsm_render_cache_hits_total{component="broker"} 2`,
			} {
				if !strings.Contains(text, want+"\n") {
					t.Errorf("exposition missing %q", want)
				}
			}
		})
	}
}

// TestHealthzFlipsOnOpenBreaker drives a consumer with the fault injector
// until its circuit breaker opens and asserts /healthz flips 200 → 503,
// naming the failed check.
func TestHealthzFlipsOnOpenBreaker(t *testing.T) {
	reg := obs.NewRegistry()
	rec := obs.NewRecorder(reg, "broker")
	f := newFixture(t, func(c *Config) {
		c.Obs = rec
		c.Breaker = &dispatch.BreakerPolicy{Window: 2, FailureRate: 0.5, Cooldown: time.Hour}
	})
	defer f.broker.Shutdown()

	inj := faulty.New(faulty.Script{FailAlways: true}, nil)
	f.lb.Register("svc://down", transport.HandlerFunc(
		func(ctx context.Context, _ *soap.Envelope) (*soap.Envelope, error) {
			return nil, inj.DeliverCtx(ctx, nil)
		}))
	f.subscribeWSE(t, wse.V200408, &wse.SubscribeRequest{
		NotifyTo: wsa.NewEPR(wse.V200408.WSAVersion(), "svc://down"),
	})

	healthz := obs.HealthHandler(f.broker.HealthChecks(0))
	get := func() *httptest.ResponseRecorder {
		w := httptest.NewRecorder()
		healthz.ServeHTTP(w, httptest.NewRequest("GET", "/healthz", nil))
		return w
	}

	if w := get(); w.Code != 200 {
		t.Fatalf("healthy broker: /healthz = %d, want 200", w.Code)
	}

	// Two failed deliveries fill the window and trip the breaker.
	f.publishWSE(t, grid, event("1"))
	f.publishWSE(t, grid, event("2"))
	f.broker.Flush()
	if inj.Failures() == 0 {
		t.Fatal("injector saw no delivery attempts")
	}
	if f.broker.OpenBreakerCount() != 1 {
		t.Fatalf("OpenBreakerCount = %d, want 1", f.broker.OpenBreakerCount())
	}

	w := get()
	if w.Code != 503 {
		t.Fatalf("open breaker: /healthz = %d, want 503", w.Code)
	}
	if body := w.Body.String(); !strings.Contains(body, "breakers: fail") {
		t.Errorf("healthz body does not name the failed check:\n%s", body)
	}
	if !strings.Contains(scrape(t, reg), `wsm_breakers_open{component="broker"} 1`+"\n") {
		t.Error("wsm_breakers_open does not report the open breaker")
	}

	// The DLQ watermark is the other degradation source: terminal failures
	// from the two publishes sit in the dead-letter queue.
	checks := f.broker.HealthChecks(1)()
	var dlqOK, found bool
	for _, c := range checks {
		if c.Name == "dlq" {
			found, dlqOK = true, c.OK
		}
	}
	if !found || dlqOK {
		t.Errorf("dlq check above watermark = %+v, want a failing dlq entry", checks)
	}
}
