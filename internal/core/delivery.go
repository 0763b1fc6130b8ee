package core

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"time"

	"repro/internal/cloudevents"
	"repro/internal/destwriter"
	"repro/internal/dispatch"
	"repro/internal/mediation"
	"repro/internal/obs"
	"repro/internal/soap"
	"repro/internal/xmldom"
)

// fanMsg is the dispatch payload: the notification body plus the
// publishing spec family (for the mediation counter), the federation relay
// provenance (nil outside federated deployments) and, when the broker
// delivers over a raw-bytes transport, the publish's shared render-template
// cache. The relay is constant across one publish's whole fan-out, so it
// bakes into the shared templates without splitting render keys.
type fanMsg struct {
	payload *xmldom.Element
	origin  string
	relay   *mediation.Relay
	rs      *renderSet
}

// notification is the canonical view of a dispatch message.
func notification(m dispatch.Message) mediation.Notification {
	fm := m.Payload.(fanMsg)
	return mediation.Notification{Topic: m.Topic, Payload: fm.payload, Relay: fm.relay}
}

// renderSet is one publish's render-template cache: subscribers whose
// delivery plans share a mediation.RenderKey share one rendered, serialised
// envelope and differ only by spliced fields. It lives exactly as long as
// the dispatch messages that reference it, so there is no invalidation —
// the next publish starts empty.
type renderSet struct {
	mu sync.Mutex
	m  map[mediation.RenderKey]*mediation.Template
}

func newRenderSet() *renderSet {
	return &renderSet{m: map[mediation.RenderKey]*mediation.Template{}}
}

// template returns the plan's template from the publish's render set,
// building (and timing) it on first use. A plan whose envelope cannot be
// spliced unambiguously (sentinel collision in the payload) memoises nil,
// so the build is attempted once and every delivery for that key falls
// back to a fresh render.
func (b *Broker) template(rs *renderSet, n mediation.Notification, plan mediation.DeliveryPlan) (tpl *mediation.Template, hit bool) {
	key := mediation.KeyFor(plan)
	rs.mu.Lock()
	defer rs.mu.Unlock()
	if tpl, hit = rs.m[key]; hit {
		return tpl, true
	}
	t0 := b.cfg.Obs.Now()
	tpl, err := mediation.NewTemplate(n, plan)
	b.observeRender(t0)
	if err != nil {
		tpl = nil
	}
	rs.m[key] = tpl
	return tpl, false
}

// sendBufPool recycles the buffers the direct wire tail serialises into;
// one buffer is in flight per concurrent send. Buffers that grew beyond
// maxPooledSendBuf are dropped so a single giant payload cannot pin memory.
var sendBufPool = sync.Pool{New: func() any {
	b := make([]byte, 0, 4096)
	return &b
}}

const maxPooledSendBuf = 1 << 20

func getSendBuf() *[]byte { return sendBufPool.Get().(*[]byte) }

func putSendBuf(b *[]byte) {
	if cap(*b) > maxPooledSendBuf {
		return
	}
	sendBufPool.Put(b)
}

func inc(c *obs.Counter) {
	if c != nil {
		c.Inc()
	}
}

// observeRender feeds one mediation render begun at t0 — a template build
// or a fresh render, never a mere stamp — into wsm_mediation_render_seconds:
// the cost of the paper's mediation layer, apart from the network send.
func (b *Broker) observeRender(t0 time.Time) {
	if b.renderSec != nil {
		b.renderSec.Observe(b.cfg.Obs.Now().Sub(t0))
	}
}

// render is the single render step: one notification in the subscriber's
// dialect, as a destwriter.Entry plus its content type and (CloudEvents
// binary mode only) protocol headers. With a render set and a cacheable
// consumer it serves the publish's shared template — render-once fan-out —
// and otherwise renders afresh, with a fresh MessageID per retry attempt
// either way. Bodies are serialised into *buf, so the direct tail's pooled
// buffer keeps its growth. frames leaves a coalescible template as a Frame
// for the pool to stamp into an envelope shared with other subscribers.
func (b *Broker) render(st *subState, m dispatch.Message, buf *[]byte, frames bool) (e destwriter.Entry, contentType string, header map[string]string) {
	n, plan, consumer := notification(m), st.plan, st.canon.Consumer
	ce := plan.Dialect.Family == mediation.FamilyCE
	binary := ce && plan.CEMode == mediation.CEBinary
	// Binary mode carries its attributes as headers, which a byte-splicing
	// template cannot hold: it never touches the cache or its counters.
	if rs := m.Payload.(fanMsg).rs; rs != nil && !binary {
		var tpl *mediation.Template
		hit := false
		if mediation.Cacheable(consumer) {
			tpl, hit = b.template(rs, n, plan)
		}
		if hit && tpl != nil {
			inc(b.cacheHits)
		} else {
			inc(b.cacheMisses)
		}
		if tpl != nil {
			contentType = soap.V11.ContentType()
			coalesce := frames && tpl.Coalescible()
			id, sub := "", plan.SubscriptionID
			if ce || !coalesce {
				id = b.nextMessageID()
			}
			if ce {
				// The minted event id is a CloudEvents template's only
				// splice; it rides whichever slot the mode's template cut
				// (MessageID for structured, SubID for batched).
				sub, contentType = id, cloudevents.ContentTypeJSON
				if plan.CEMode == mediation.CEBatched {
					contentType = cloudevents.ContentTypeBatch
				}
			}
			if coalesce {
				return destwriter.Entry{Frame: tpl, SubID: sub}, contentType, nil
			}
			*buf = tpl.Stamp((*buf)[:0], consumer.Address, id, sub)
			return destwriter.Entry{Body: *buf}, contentType, nil
		}
	}
	t0 := b.cfg.Obs.Now()
	switch {
	case !ce:
		env := mediation.Render(n, consumer, plan, b.nextMessageID())
		*buf = env.AppendMarshal((*buf)[:0])
		e.Body, contentType = *buf, env.Version.ContentType()
	case binary:
		header, contentType, e.Body = mediation.RenderCEBinary(n, plan, b.nextMessageID())
	default:
		e.Body, contentType = mediation.RenderCE(n, plan, b.nextMessageID())
	}
	b.observeRender(t0)
	return e, contentType, header
}

// pooled is the pool-routing rule: when the per-destination pool exists
// (BatchMax > 1 and a raw-bytes client), SOAP push and CloudEvents batched
// deliveries ride it — the dialects whose entries can share an envelope or
// a pipelined keep-alive connection. Structured and binary post directly.
func (b *Broker) pooled(st *subState) bool {
	return b.dest != nil &&
		(st.canon.Origin.Family != mediation.FamilyCE || st.plan.CEMode == mediation.CEBatched)
}

// deliver is the HTTP sink's single wire step: render one dispatch
// delivery — up to Batch messages for one subscriber — and either hand the
// entries to the per-destination pool as one destwriter.Batch (where they
// may merge with other subscribers bound for the same host) or post them
// one by one from a pooled buffer.
func (b *Broker) deliver(ctx context.Context, st *subState, batch []dispatch.Message) error {
	addr := st.canon.Consumer.Address
	if !b.pooled(st) {
		buf := getSendBuf()
		defer putSendBuf(buf)
		for _, m := range batch {
			e, contentType, header := b.render(st, m, buf, false)
			if err := b.post(ctx, addr, contentType, header, e.Body); err != nil {
				return err
			}
		}
		return nil
	}
	ctx, cancel := sendCtx(ctx)
	if cancel != nil {
		defer cancel()
	}
	db := &destwriter.Batch{
		Addr: addr,
		Key:  st.plan.SubscriptionID,
		Live: func() bool {
			_, err := b.store.Get(st.plan.SubscriptionID)
			return err == nil
		},
		Entries: make([]destwriter.Entry, len(batch)),
	}
	for i, m := range batch {
		// The pool may finish a send after this call's context expires, so
		// bodies are freshly allocated, never pooled.
		var body []byte
		db.Entries[i], db.ContentType, _ = b.render(st, m, &body, true)
	}
	err := b.dest.Deliver(ctx, db)
	if errors.Is(err, destwriter.ErrCanceled) {
		// The subscription died between enqueue and flush: nothing went on
		// the wire, and nothing should have. The engine counts the batch
		// Delivered rather than pushing a deliberately-cancelled tail into
		// retry/DLQ; the suppression stays visible via
		// wsm_dest_canceled_total.
		return nil
	}
	return err
}

// deliverWrapped is the WSE wrapped-mode sink: one envelope per batch. A
// batch is assembled from one subscriber's own queue, so there is nothing
// to share or cache; the pooled buffer and the wire step still apply.
func (b *Broker) deliverWrapped(ctx context.Context, st *subState, batch []dispatch.Message) error {
	ns := make([]mediation.Notification, len(batch))
	for i, m := range batch {
		ns[i] = notification(m)
	}
	buf := getSendBuf()
	defer putSendBuf(buf)
	t0 := b.cfg.Obs.Now()
	env := mediation.RenderWrappedWSE(ns, st.canon.Consumer, st.plan, b.nextMessageID())
	*buf = env.AppendMarshal((*buf)[:0])
	b.observeRender(t0)
	return b.post(ctx, st.canon.Consumer.Address, env.Version.ContentType(), nil, *buf)
}

// sendCtx applies the default delivery timeout when the dispatch engine's
// context does not already carry the retry policy's per-attempt deadline.
func sendCtx(ctx context.Context) (context.Context, context.CancelFunc) {
	if _, ok := ctx.Deadline(); ok {
		return ctx, nil
	}
	return context.WithTimeout(ctx, 10*time.Second)
}

// post puts one rendered body on the wire — the delivery path's only call
// into the transport client, which the pool's Send callback shares.
// CloudEvents bodies (an application/cloudevents type, or binary mode's
// ce-* headers) take the raw HTTP path, where any 2xx is success and the
// receipt is never parsed as an envelope; SOAP bodies take the raw-bytes
// path, or are re-parsed for a client that only takes envelopes.
func (b *Broker) post(ctx context.Context, addr, contentType string, header map[string]string, body []byte) error {
	ctx, cancel := sendCtx(ctx)
	if cancel != nil {
		defer cancel()
	}
	if header != nil || strings.HasPrefix(contentType, "application/cloudevents") {
		if b.ceClient == nil {
			return errors.New("core: transport cannot deliver CloudEvents over HTTP")
		}
		err := b.ceClient.SendRaw(ctx, addr, contentType, header, body)
		if err != nil {
			inc(b.ceErrors)
		} else {
			inc(b.ceDeliveries)
		}
		return err
	}
	if b.rawClient != nil {
		return b.rawClient.SendBytes(ctx, addr, contentType, body)
	}
	env, err := soap.ParseBytes(body)
	if err != nil {
		return fmt.Errorf("core: delivery envelope: %w", err)
	}
	return b.cfg.Client.Send(ctx, addr, env)
}
