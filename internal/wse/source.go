package wse

import (
	"context"
	"fmt"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/dispatch"
	"repro/internal/filter"
	"repro/internal/soap"
	"repro/internal/sublease"
	"repro/internal/topics"
	"repro/internal/transport"
	"repro/internal/wsa"
	"repro/internal/xmldom"
)

// SourceConfig configures an event source.
type SourceConfig struct {
	// Version selects which WS-Eventing release the source speaks.
	Version Version
	// Address is the event source endpoint (where Subscribe arrives).
	Address string
	// ManagerAddress is the subscription manager endpoint. Ignored for
	// 1/2004 (the source manages its own subscriptions); defaults to
	// Address when empty.
	ManagerAddress string
	// Client delivers notifications and SubscriptionEnd messages.
	Client transport.Client
	// Clock is injectable for tests; time.Now when nil.
	Clock func() time.Time
	// DefaultExpiry is granted when a subscriber omits Expires; zero
	// grants an indefinite subscription.
	DefaultExpiry time.Duration
	// MaxExpiry caps granted expirations; zero means no cap.
	MaxExpiry time.Duration
	// WrapBatchSize is the wrapped-mode batch size (default 10).
	WrapBatchSize int
	// PullQueueCap bounds each pull-mode queue (default 1024); the oldest
	// notification is dropped on overflow.
	PullQueueCap int
	// NotificationAction is the default WS-Addressing action on
	// notification messages.
	NotificationAction string
}

func (c *SourceConfig) withDefaults() SourceConfig {
	out := *c
	if out.ManagerAddress == "" || out.Version == V200401 {
		out.ManagerAddress = out.Address
	}
	if out.Clock == nil {
		out.Clock = time.Now
	}
	if out.WrapBatchSize <= 0 {
		out.WrapBatchSize = 10
	}
	if out.PullQueueCap <= 0 {
		out.PullQueueCap = 1024
	}
	if out.NotificationAction == "" {
		out.NotificationAction = out.Version.NS() + "/Notification"
	}
	return out
}

// subscription is the lease payload: the granted request and its filter.
type subscription struct {
	*SubscribeRequest
	flt filter.All
}

// Source is a WS-Eventing event source (and, for 1/2004 or shared-address
// deployments, its own subscription manager). Leases live in the store;
// delivery — push, the pull queues and the wrapped batches — runs through
// the shared dispatch engine.
type Source struct {
	cfg   SourceConfig
	store *sublease.Store
	eng   *dispatch.Engine
	msgID atomic.Uint64
}

// NewSource builds an event source.
func NewSource(cfg SourceConfig) *Source {
	s := &Source{cfg: cfg.withDefaults()}
	s.eng = dispatch.New(dispatch.Config{Clock: s.cfg.Clock})
	s.store = sublease.NewStore(
		sublease.WithClock(s.cfg.Clock),
		sublease.WithIDPrefix("wse"),
		sublease.WithEndObserver(s.onLeaseEnd),
	)
	return s
}

// ManagerAddress returns the subscription manager endpoint address.
func (s *Source) ManagerAddress() string { return s.cfg.ManagerAddress }

// SubscriptionCount reports the number of live subscriptions.
func (s *Source) SubscriptionCount() int { return len(s.store.Active()) }

func (s *Source) nextMessageID() string {
	return fmt.Sprintf("urn:uuid:wse-msg-%d", s.msgID.Add(1))
}

// SourceHandler returns the handler for the event source endpoint.
// For 8/2004 with a distinct manager address it accepts only Subscribe;
// management requests belong at the manager endpoint.
func (s *Source) SourceHandler() transport.Handler {
	return transport.HandlerFunc(func(ctx context.Context, env *soap.Envelope) (*soap.Envelope, error) {
		body := env.FirstBody()
		if body == nil {
			return nil, FaultInvalidMessage(s.cfg.Version, "empty body")
		}
		switch {
		case body.Name.Local == "Subscribe":
			return HandleSubscribe(s.cfg.Version, sourceState{s}, env, s.nextMessageID)
		case s.cfg.ManagerAddress == s.cfg.Address: // always so for 1/2004
			return s.manage(ctx, env)
		}
		return nil, FaultInvalidMessage(s.cfg.Version,
			fmt.Sprintf("operation %s must be sent to the subscription manager", body.Name.Local))
	})
}

// ManagerHandler returns the handler for the subscription manager
// endpoint: Renew, GetStatus, Unsubscribe and Pull.
func (s *Source) ManagerHandler() transport.Handler { return transport.HandlerFunc(s.manage) }

func (s *Source) manage(_ context.Context, env *soap.Envelope) (*soap.Envelope, error) {
	return HandleManagement(s.cfg.Version, sourceState{s}, env, s.subscriptionID(env), s.nextMessageID)
}

// subscriptionID recovers which subscription a management request
// addresses: the wse:Identifier reference parameter echoed as a header
// (8/2004) or the wse:Id element in the body (1/2004).
func (s *Source) subscriptionID(env *soap.Envelope) string {
	v := s.cfg.Version
	el := env.Header(v.IdentifierName())
	if v == V200401 && env.FirstBody() != nil {
		el = env.FirstBody().Child(v.IdentifierName())
	}
	if el == nil {
		return ""
	}
	return strings.TrimSpace(el.Text())
}

// sourceState is the Source's lease store and dispatch engine as
// HandleSubscribe and HandleManagement see them. Every change reaches both.
type sourceState struct{ *Source }

func (s sourceState) Now() time.Time { return s.cfg.Clock() }

func (s sourceState) Grant(requested time.Time) time.Time {
	return sublease.Grant(requested, s.cfg.Clock(), s.cfg.DefaultExpiry, s.cfg.MaxExpiry)
}

func (s sourceState) Create(_ Version, req *SubscribeRequest, flt filter.All, expires time.Time) string {
	sub := &subscription{req, flt}
	lease := s.store.Create(sub, expires)
	s.attach(lease.ID, sub, expires)
	return lease.ID
}

func (s sourceState) Renew(id string, expires time.Time) (time.Time, error) {
	granted, err := s.store.Renew(id, expires)
	if err == nil {
		s.eng.SetDeadline(id, granted)
	}
	return granted, err
}

func (s sourceState) Expires(id string) (time.Time, error) {
	sn, err := s.store.Get(id)
	return sn.Expires, err
}

func (s sourceState) Unsubscribe(id string) error {
	err := s.store.Cancel(id, sublease.EndCancelled)
	s.eng.Unsubscribe(id)
	return err
}

func (s sourceState) Pull(id string, max int) ([]*xmldom.Element, error) {
	batch, err := s.eng.Pull(id, max)
	msgs := make([]*xmldom.Element, len(batch))
	for i, m := range batch {
		msgs[i] = m.Payload.(*publication).msg.Payload
	}
	return msgs, err
}

// PublishOptions modifies one Publish call.
type PublishOptions struct {
	// Action overrides the notification action URI.
	Action string
	// Topic, when non-zero, is evaluated against topic filters and carried
	// as a SOAP header — the paper notes WS-Eventing has no body slot for
	// topics, so an extension header is the only place for one (§V.4.6).
	Topic topics.Path
}

// TopicHeaderName is the extension header carrying a topic on WSE
// notifications.
var TopicHeaderName = xmldom.N("urn:ws-messenger:extensions", "Topic")

// publication is one Publish call as the dispatch engine carries it: the
// message the filters see, how its pushes are addressed, and where the
// first failed send is recorded for Publish to return.
type publication struct {
	ctx    context.Context
	msg    filter.Message
	action string
	err    *error
}

func (pub *publication) report(err error) error {
	if err != nil && *pub.err == nil {
		*pub.err = err
	}
	return err
}

// keep copies a publication, payload included, for a pull queue or a
// wrapped batch to hold past the Publish call.
func keep(m dispatch.Message) dispatch.Message {
	c := *m.Payload.(*publication)
	c.msg.Payload = c.msg.Payload.Clone()
	return dispatch.Message{Payload: &c}
}

// attach registers a subscription with the dispatch engine. Pull buffers
// at the engine, dropping the oldest past PullQueueCap; push and wrapped
// send inline on the publishing goroutine, one notification or
// WrapBatchSize of them per send. The engine evicts a subscription after
// three consecutive failed sends, and it ends with a DeliveryFailure notice.
func (s *Source) attach(id string, sub *subscription, expires time.Time) {
	v := s.cfg.Version
	ds := dispatch.Sub{
		ID: id,
		Filter: func(m dispatch.Message) (bool, error) {
			return sub.flt.Accepts(m.Payload.(*publication).msg)
		},
		Prepare:  keep,
		OnEvict:  func(id string) { s.store.Cancel(id, sublease.EndDeliveryFailure) },
		Deadline: expires,
	}
	size := 1
	switch sub.Mode {
	case v.DeliveryModePull():
		ds.Mode, ds.QueueCap, ds.Overflow = dispatch.Pull, s.cfg.PullQueueCap, dispatch.DropOldest
	case v.DeliveryModeWrap():
		size = s.cfg.WrapBatchSize
	}
	ds.Batch = size
	ds.DeliverCtx = func(ctx context.Context, batch []dispatch.Message) error {
		return s.deliver(ctx, sub, batch, size)
	}
	_ = s.eng.Subscribe(ds)
}

// Publish delivers a notification payload to every matching subscription
// and returns the number of subscriptions that matched (push sends, pull
// enqueues, wrap buffer appends) and the first failed send.
func (s *Source) Publish(ctx context.Context, payload *xmldom.Element, opts PublishOptions) (int, error) {
	action := opts.Action
	if action == "" {
		action = s.cfg.NotificationAction
	}
	var err error
	pub := &publication{ctx: ctx, msg: filter.Message{Topic: opts.Topic, Payload: payload}, action: action, err: &err}
	return s.eng.Dispatch(dispatch.Message{Topic: opts.Topic, Payload: pub}), err
}

// push sends body to the subscription's sink, with the topic (if any) in
// the extension header.
func (s *Source) push(ctx context.Context, sub *subscription, body *xmldom.Element, action string, topic topics.Path) error {
	env := soap.New(soap.V11)
	wsa.DestinationEPR(sub.NotifyTo, action, s.nextMessageID()).Apply(env)
	if !topic.IsZero() {
		env.AddHeader(xmldom.Elem(TopicHeaderName.Space, TopicHeaderName.Local, topic.String()))
	}
	env.AddBody(body)
	return s.cfg.Client.Send(ctx, sub.NotifyTo.Address, env)
}

// WrappedName is the batch wrapper element. The 8/2004 spec admits the
// wrapped mode but does not define its message format (Table 1), so this
// implementation supplies one in an extension namespace and documents the
// substitution.
var WrappedName = xmldom.N("urn:ws-messenger:extensions", "Notifications")

// deliver sends a push notification bare, or a wrapped batch in the
// wrapper. A full batch leaves from the Publish that filled it, under its
// context, action and topic, and its send error is that call's; a partial
// one can only be FlushWrapped's, and goes with the default action.
func (s *Source) deliver(ctx context.Context, sub *subscription, batch []dispatch.Message, size int) error {
	body := batch[0].Payload.(*publication).msg.Payload
	if sub.Mode == s.cfg.Version.DeliveryModeWrap() {
		body = xmldom.NewElement(WrappedName)
		for _, m := range batch {
			body.Append(xmldom.Elem(WrappedName.Space, "Message", m.Payload.(*publication).msg.Payload))
		}
	}
	if len(batch) < size {
		return s.push(ctx, sub, body, s.cfg.NotificationAction, topics.Path{})
	}
	pub := batch[len(batch)-1].Payload.(*publication)
	return pub.report(s.push(pub.ctx, sub, body, pub.action, pub.msg.Topic))
}

// FlushWrapped forces out every partially filled wrapped-mode batch.
func (s *Source) FlushWrapped() { s.eng.FlushBatches() }

// Shutdown terminates every subscription, emitting SubscriptionEnd notices
// (SourceShuttingDown) to subscribers that supplied EndTo.
func (s *Source) Shutdown() { s.store.Shutdown() }

// Scavenge expires lapsed subscriptions, emitting end notices.
func (s *Source) Scavenge() int { return s.store.Scavenge() }

// onLeaseEnd detaches the subscription from the engine and sends the
// SubscriptionEnd message. Errors are swallowed: the subscription is
// already gone and the notice is best-effort, exactly as the spec intends.
func (s *Source) onLeaseEnd(sn sublease.Snapshot, reason sublease.EndReason) {
	s.eng.Unsubscribe(sn.ID)
	sub, ok := sn.Data.(*subscription)
	if !ok || sub.EndTo == nil {
		return
	}
	status := EndSourceCanceling
	switch reason {
	case sublease.EndSourceShutdown:
		status = EndSourceShuttingDown
	case sublease.EndDeliveryFailure:
		status = EndDeliveryFailure
	}
	v := s.cfg.Version
	end := &SubscriptionEnd{
		Manager: wsa.NewEPR(v.WSAVersion(), s.cfg.ManagerAddress),
		ID:      sn.ID,
		Status:  status,
		Reason:  string(reason),
	}
	env := soap.New(soap.V11)
	wsa.DestinationEPR(sub.EndTo, v.ActionSubscriptionEnd(), s.nextMessageID()).Apply(env)
	env.AddBody(end.Element(v))
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	_ = s.cfg.Client.Send(ctx, sub.EndTo.Address, env)
}
