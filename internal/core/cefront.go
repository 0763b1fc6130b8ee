package core

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"

	"repro/internal/cloudevents"
	"repro/internal/mediation"
	"repro/internal/topics"
	"repro/internal/wsa"
	"repro/internal/xsdt"
)

// The CloudEvents front door (mounted at /ce): the modern, JSON-native
// counterpart of the SOAP front door. One endpoint serves both directions:
//
//   - POST with a CloudEvents content type (structured, batched or binary
//     mode) publishes the event(s) into the broker. The event's type
//     attribute carries the topic in Clark form ("{ns}a/b"), so a
//     CloudEvents producer addresses the same topic space SOAP publishers
//     use; ingressed events are preserved end to end, so a CE→CE round
//     trip keeps the producer's id, source and data untouched.
//   - POST application/json manages subscriptions: {"sink": url} creates
//     one (optionally with "topic", "mode" and "expires"), {"unsubscribe":
//     id} cancels. CloudEvents subscribers receive mediated deliveries of
//     every matching publish regardless of which front door it entered.
//
// Relay extension attributes on ingressed events are stripped for the same
// anti-forgery reason the SOAP front door ignores inbound wsmf:Relay
// headers: only the federation ingest may assert provenance. Egress adds
// them back from the broker's own relay state, so federation dedup holds
// across the protocol boundary.

// ceMaxBody caps a /ce request body (publishes and control calls alike).
const ceMaxBody = 4 << 20

// ceSubscribeRequest is the /ce control vocabulary.
type ceSubscribeRequest struct {
	// Sink is the consumer's HTTP endpoint (required to subscribe).
	Sink string `json:"sink"`
	// Topic optionally filters by Clark-form topic path "{ns}a/b".
	Topic string `json:"topic,omitempty"`
	// Mode is the delivery content mode: structured (default), batched or
	// binary.
	Mode string `json:"mode,omitempty"`
	// Expires optionally bounds the subscription (xsd:dateTime or
	// xsd:duration, same grammar as the SOAP front door).
	Expires string `json:"expires,omitempty"`
	// Unsubscribe cancels the named subscription instead.
	Unsubscribe string `json:"unsubscribe,omitempty"`
}

// CEHandler returns the broker's CloudEvents front door.
func (b *Broker) CEHandler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			http.Error(w, "ws-messenger: /ce accepts POST only", http.StatusMethodNotAllowed)
			return
		}
		body, err := io.ReadAll(io.LimitReader(r.Body, ceMaxBody+1))
		if err != nil {
			http.Error(w, "ws-messenger: read: "+err.Error(), http.StatusBadRequest)
			return
		}
		if len(body) > ceMaxBody {
			http.Error(w, "ws-messenger: event too large", http.StatusRequestEntityTooLarge)
			return
		}
		ct := r.Header.Get("Content-Type")
		switch {
		case cloudevents.IsBinaryRequest(r.Header):
			ev, err := cloudevents.FromBinary(r.Header, body)
			if err != nil {
				ceError(w, http.StatusBadRequest, err)
				return
			}
			b.ceAccept(w, ev)
		case strings.HasPrefix(ct, cloudevents.ContentTypeBatch):
			evs, err := cloudevents.ParseBatchJSON(body)
			if err != nil {
				ceError(w, http.StatusBadRequest, err)
				return
			}
			b.ceAccept(w, evs...)
		case strings.HasPrefix(ct, cloudevents.ContentTypeJSON):
			ev, err := cloudevents.ParseJSON(body)
			if err != nil {
				ceError(w, http.StatusBadRequest, err)
				return
			}
			b.ceAccept(w, ev)
		case ct == "" || strings.HasPrefix(ct, "application/json"):
			b.ceControl(w, body)
		default:
			http.Error(w, "ws-messenger: unsupported media type "+ct, http.StatusUnsupportedMediaType)
		}
	})
}

// ceAccept publishes ingressed events and writes the acceptance receipt.
func (b *Broker) ceAccept(w http.ResponseWriter, evs ...*cloudevents.Event) {
	for i, ev := range evs {
		if err := b.PublishCE(ev); err != nil {
			// Events before i were accepted (and durably logged, when the
			// broker keeps a log); the receipt says how far we got.
			ceJSON(w, http.StatusBadRequest, map[string]any{
				"accepted": i, "error": err.Error(),
			})
			return
		}
	}
	ceJSON(w, http.StatusAccepted, map[string]any{"accepted": len(evs)})
}

// PublishCE publishes one CloudEvent into the broker: the ingress behind
// the /ce and /ws front doors, also usable by embedded deployments. The
// event is wrapped into its XML bridge form so CloudEvents egress can
// unwrap it faithfully; inbound relay extension attributes are stripped
// (only the federation ingest may assert provenance).
func (b *Broker) PublishCE(ev *cloudevents.Event) error {
	if err := ev.Valid(); err != nil {
		return err
	}
	for _, k := range []string{
		cloudevents.ExtRelayOrigin, cloudevents.ExtRelayID,
		cloudevents.ExtRelayHops, cloudevents.ExtRelayPos,
	} {
		delete(ev.Extensions, k)
	}
	topic := cloudevents.TopicForType(ev.Type)
	if err := b.publish(topic, cloudevents.WrapXML(ev), mediation.FamilyCE.String(), nil); err != nil {
		return err
	}
	inc(b.cePublished)
	return nil
}

// ceControl handles the JSON subscription-management vocabulary.
func (b *Broker) ceControl(w http.ResponseWriter, body []byte) {
	var req ceSubscribeRequest
	if err := json.Unmarshal(body, &req); err != nil {
		ceError(w, http.StatusBadRequest, err)
		return
	}
	if req.Unsubscribe != "" {
		if err := b.cancelSubscription(req.Unsubscribe); err != nil {
			ceError(w, http.StatusNotFound, err)
			return
		}
		ceJSON(w, http.StatusOK, map[string]any{"unsubscribed": req.Unsubscribe})
		return
	}
	if req.Sink == "" {
		ceError(w, http.StatusBadRequest, fmt.Errorf("subscribe needs a sink"))
		return
	}
	if b.ceClient == nil {
		// The configured transport has no raw HTTP path (e.g. a SOAP-only
		// loopback), so CloudEvents deliveries could never leave the broker.
		// Reject up front instead of dead-lettering every future publish.
		ceError(w, http.StatusNotImplemented,
			fmt.Errorf("this broker's transport cannot deliver CloudEvents over HTTP"))
		return
	}
	mode := req.Mode
	if mode == "" {
		mode = mediation.CEStructured
	}
	switch mode {
	case mediation.CEStructured, mediation.CEBatched, mediation.CEBinary:
	default:
		ceError(w, http.StatusBadRequest, fmt.Errorf("unknown mode %q", mode))
		return
	}
	canon, err := ceCanon(req.Sink, req.Topic, mode)
	if err != nil {
		ceError(w, http.StatusBadRequest, err)
		return
	}
	canon.Expires = req.Expires
	id, expires, err := b.subscribeCE(&subState{canon: canon})
	if err != nil {
		ceError(w, http.StatusBadRequest, err)
		return
	}
	resp := map[string]any{"id": id, "mode": mode}
	if !expires.IsZero() {
		resp["expires"] = xsdt.FormatDateTime(expires)
	}
	ceJSON(w, http.StatusCreated, resp)
}

// ceCanon builds the canonical subscribe of a CloudEvents-family consumer,
// optionally filtered by a Clark-form topic path ("{ns}a/b"; empty matches
// everything).
func ceCanon(consumer, clarkTopic, mode string) (*mediation.Subscribe, error) {
	canon := &mediation.Subscribe{
		Origin:   mediation.Dialect{Family: mediation.FamilyCE},
		Consumer: wsa.NewEPR(wsa.V200508, consumer),
		CEMode:   mode,
	}
	if clarkTopic != "" {
		expr, ns, err := ceTopicExpr(clarkTopic)
		if err != nil {
			return nil, err
		}
		canon.TopicExpr, canon.TopicDialect, canon.TopicNS = expr, topics.DialectConcrete, ns
	}
	return canon, nil
}

// ceTopicExpr converts a Clark-form topic path into the concrete-dialect
// expression and prefix bindings the canonical filter machinery compiles.
func ceTopicExpr(clark string) (string, map[string]string, error) {
	p, err := topics.ParseClark(clark)
	if err != nil {
		return "", nil, err
	}
	expr := strings.Join(p.Segments, "/")
	if p.Namespace == "" {
		return expr, nil, nil
	}
	return "t:" + expr, map[string]string{"t": p.Namespace}, nil
}

func ceJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

func ceError(w http.ResponseWriter, status int, err error) {
	ceJSON(w, status, map[string]any{"error": err.Error()})
}
