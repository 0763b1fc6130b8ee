package wse

import (
	"context"
	"sync"

	"repro/internal/soap"
	"repro/internal/topics"
	"repro/internal/transport"
	"repro/internal/wsa"
	"repro/internal/xmldom"
)

// Notification is one event as seen by an event sink.
type Notification struct {
	// Payload is the notification body (one element per message; wrapped
	// deliveries are unbatched before the callback).
	Payload *xmldom.Element
	// Action is the WS-Addressing action the message arrived with.
	Action string
	// Topic is the optional topic extension header (see TopicHeaderName).
	Topic topics.Path
	// Wrapped reports that the message arrived inside a wrapped batch.
	Wrapped bool
}

// Sink is an event sink: the entity that receives notifications and
// SubscriptionEnd messages. It implements transport.Handler; register it
// at the NotifyTo/EndTo address.
type Sink struct {
	// OnNotify receives each notification; nil sinks just count.
	OnNotify func(n Notification)
	// OnEnd receives SubscriptionEnd notices.
	OnEnd func(end *SubscriptionEnd)

	mu       sync.Mutex
	received []Notification
	ends     []*SubscriptionEnd
}

// ServeSOAP implements transport.Handler.
func (k *Sink) ServeSOAP(_ context.Context, env *soap.Envelope) (*soap.Envelope, error) {
	body := env.FirstBody()
	if body == nil {
		return nil, nil
	}
	// SubscriptionEnd of either version.
	if body.Name.Local == "SubscriptionEnd" &&
		(body.Name.Space == NS200401 || body.Name.Space == NS200408) {
		end, _, err := ParseSubscriptionEnd(body)
		if err == nil {
			k.mu.Lock()
			k.ends = append(k.ends, end)
			cb := k.OnEnd
			k.mu.Unlock()
			if cb != nil {
				cb(end)
			}
		}
		return nil, nil
	}

	action := ""
	var topic topics.Path
	if h, ok := wsa.ParseHeaders(env); ok {
		action = h.Action
		for _, e := range h.Echoed {
			if e.Name == TopicHeaderName {
				topic, _ = topics.ParseClark(e.Text())
			}
		}
	}

	deliver := func(payload *xmldom.Element, wrapped bool) {
		n := Notification{Payload: payload, Action: action, Topic: topic, Wrapped: wrapped}
		k.mu.Lock()
		k.received = append(k.received, n)
		cb := k.OnNotify
		k.mu.Unlock()
		if cb != nil {
			cb(n)
		}
	}

	if body.Name == WrappedName {
		for _, m := range body.ChildrenNamed(xmldom.N(WrappedName.Space, "Message")) {
			if len(m.ChildElements()) > 0 {
				deliver(m.ChildElements()[0], true)
			}
		}
		return nil, nil
	}
	deliver(body, false)
	return nil, nil
}

// Received returns a snapshot of everything delivered so far.
func (k *Sink) Received() []Notification {
	k.mu.Lock()
	defer k.mu.Unlock()
	out := make([]Notification, len(k.received))
	copy(out, k.received)
	return out
}

// Ends returns the SubscriptionEnd notices seen so far.
func (k *Sink) Ends() []*SubscriptionEnd {
	k.mu.Lock()
	defer k.mu.Unlock()
	out := make([]*SubscriptionEnd, len(k.ends))
	copy(out, k.ends)
	return out
}

// Count reports the number of notifications received.
func (k *Sink) Count() int {
	k.mu.Lock()
	defer k.mu.Unlock()
	return len(k.received)
}

var _ transport.Handler = (*Sink)(nil)
