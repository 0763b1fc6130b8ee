package wse

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"time"

	"repro/internal/filter"
	"repro/internal/soap"
	"repro/internal/sublease"
	"repro/internal/topics"
	"repro/internal/transport"
	"repro/internal/wsa"
	"repro/internal/xmldom"
	"repro/internal/xsdt"
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
	// FailureLimit is the number of consecutive delivery failures after
	// which the source abandons a subscription with a DeliveryFailure end
	// notice (default 3).
	FailureLimit int
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
	if out.FailureLimit <= 0 {
		out.FailureLimit = 3
	}
	if out.NotificationAction == "" {
		out.NotificationAction = out.Version.NS() + "/Notification"
	}
	return out
}

// subscription is the lease payload.
type subscription struct {
	notifyTo *wsa.EndpointReference
	endTo    *wsa.EndpointReference
	mode     string
	flt      filter.Filter

	mu       sync.Mutex
	queue    []*xmldom.Element // pull mode
	dropped  int
	wrapBuf  []*xmldom.Element // wrapped mode
	failures int
}

// Source is a WS-Eventing event source (and, for 1/2004 or shared-address
// deployments, its own subscription manager).
type Source struct {
	cfg   SourceConfig
	store *sublease.Store
	msgID uint64
	mu    sync.Mutex // guards msgID
}

// NewSource builds an event source.
func NewSource(cfg SourceConfig) *Source {
	s := &Source{cfg: cfg.withDefaults()}
	s.store = sublease.NewStore(
		sublease.WithClock(s.cfg.Clock),
		sublease.WithIDPrefix("wse"),
		sublease.WithEndObserver(s.onLeaseEnd),
	)
	return s
}

// Version returns the spec version the source speaks.
func (s *Source) Version() Version { return s.cfg.Version }

// Address returns the event source endpoint address.
func (s *Source) Address() string { return s.cfg.Address }

// ManagerAddress returns the subscription manager endpoint address.
func (s *Source) ManagerAddress() string { return s.cfg.ManagerAddress }

// SubscriptionCount reports the number of live subscriptions.
func (s *Source) SubscriptionCount() int { return len(s.store.Active()) }

// Store exposes the lease store for scavenging loops.
func (s *Source) Store() *sublease.Store { return s.store }

func (s *Source) nextMessageID() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.msgID++
	return fmt.Sprintf("urn:uuid:wse-msg-%d", s.msgID)
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
		ns := s.cfg.Version.NS()
		if body.Name == (xmldom.N(ns, "Subscribe")) {
			return s.handleSubscribe(env)
		}
		if !s.separateEndpoints() {
			return s.manage(env)
		}
		return nil, FaultInvalidMessage(s.cfg.Version,
			fmt.Sprintf("operation %s must be sent to the subscription manager", body.Name.Local))
	})
}

// ManagerHandler returns the handler for the subscription manager
// endpoint: Renew, GetStatus, Unsubscribe and Pull.
func (s *Source) ManagerHandler() transport.Handler {
	return transport.HandlerFunc(func(ctx context.Context, env *soap.Envelope) (*soap.Envelope, error) {
		return s.manage(env)
	})
}

func (s *Source) manage(env *soap.Envelope) (*soap.Envelope, error) {
	return HandleManagement(s.cfg.Version, sourceState{s}, env, s.subscriptionID(env), s.nextMessageID)
}

func (s *Source) separateEndpoints() bool {
	return s.cfg.Version == V200408 && s.cfg.ManagerAddress != s.cfg.Address
}

func (s *Source) handleSubscribe(env *soap.Envelope) (*soap.Envelope, error) {
	v := s.cfg.Version
	req, reqVer, err := ParseSubscribe(env.FirstBody())
	if err != nil {
		return nil, FaultInvalidMessage(v, err.Error())
	}
	if reqVer != v {
		return nil, FaultInvalidMessage(v, fmt.Sprintf("subscribe uses %v, this source speaks %v", reqVer, v))
	}
	if err := req.Validate(v); err != nil {
		return nil, err
	}

	flt := filter.Filter(filter.AcceptAll)
	if req.FilterExpr != "" {
		c, err := filter.NewContent(req.FilterDialect, req.FilterExpr, req.FilterNS)
		if err != nil {
			return nil, FaultFilteringNotSupported(v, err.Error())
		}
		flt = c
	}

	now := s.cfg.Clock()
	requested, err := ResolveExpires(req.Expires, now)
	if err != nil {
		return nil, FaultUnsupportedExpirationType(v)
	}
	expires := sublease.Grant(requested, now, s.cfg.DefaultExpiry, s.cfg.MaxExpiry)

	sub := &subscription{notifyTo: req.NotifyTo, endTo: req.EndTo, mode: req.Mode, flt: flt}
	lease := s.store.Create(sub, expires)

	resp := &SubscribeResponse{
		Manager: wsa.NewEPR(v.WSAVersion(), s.cfg.ManagerAddress),
		ID:      lease.ID,
		Expires: expiryText(expires),
	}
	return reply(v, env, resp.Element(v), s.nextMessageID), nil
}

func expiryText(t time.Time) string {
	if t.IsZero() {
		return ""
	}
	return xsdt.FormatDateTime(t)
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

// sourceState is the Source's lease store and pull queues as
// HandleManagement sees them.
type sourceState struct{ *Source }

func (s sourceState) Now() time.Time { return s.cfg.Clock() }

func (s sourceState) Renew(id string, requested time.Time) (time.Time, error) {
	return s.store.Renew(id, sublease.Grant(requested, s.cfg.Clock(), s.cfg.DefaultExpiry, s.cfg.MaxExpiry))
}

func (s sourceState) Expires(id string) (time.Time, error) {
	sn, err := s.store.Get(id)
	return sn.Expires, err
}

func (s sourceState) Unsubscribe(id string) error { return s.store.Cancel(id, sublease.EndCancelled) }

func (s sourceState) Pull(id string, max int) ([]*xmldom.Element, error) {
	sn, err := s.store.Get(id)
	if err != nil {
		return nil, err
	}
	return sn.Data.(*subscription).drain(max), nil
}

func (sub *subscription) drain(max int) []*xmldom.Element {
	sub.mu.Lock()
	defer sub.mu.Unlock()
	n := len(sub.queue)
	if max > 0 && max < n {
		n = max
	}
	out := sub.queue[:n:n]
	sub.queue = append([]*xmldom.Element(nil), sub.queue[n:]...)
	return out
}

func (sub *subscription) enqueue(msg *xmldom.Element, cap int) {
	sub.mu.Lock()
	defer sub.mu.Unlock()
	if len(sub.queue) >= cap {
		sub.queue = sub.queue[1:]
		sub.dropped++
	}
	sub.queue = append(sub.queue, msg)
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

// Publish delivers a notification payload to every matching subscription
// and returns the number of deliveries attempted (push sends, pull
// enqueues, wrap buffer appends).
func (s *Source) Publish(ctx context.Context, payload *xmldom.Element, opts PublishOptions) (int, error) {
	v := s.cfg.Version
	action := opts.Action
	if action == "" {
		action = s.cfg.NotificationAction
	}
	msg := filter.Message{Topic: opts.Topic, Payload: payload}
	var firstErr error
	delivered := 0
	for _, sn := range s.store.Deliverable() {
		sub := sn.Data.(*subscription)
		ok, err := sub.flt.Accepts(msg)
		if err != nil || !ok {
			continue
		}
		delivered++
		switch sub.mode {
		case v.DeliveryModePull():
			sub.enqueue(payload.Clone(), s.cfg.PullQueueCap)
		case v.DeliveryModeWrap():
			s.bufferWrapped(ctx, sn.ID, sub, payload, action, opts.Topic)
		default: // push
			if err := s.push(ctx, sn.ID, sub, payload.Clone(), action, opts.Topic); err != nil && firstErr == nil {
				firstErr = err
			}
		}
	}
	return delivered, firstErr
}

func (s *Source) notificationEnvelope(sub *subscription, body *xmldom.Element, action string, topic topics.Path) *soap.Envelope {
	env := soap.New(soap.V11)
	h := wsa.DestinationEPR(sub.notifyTo, action, s.nextMessageID())
	h.Apply(env)
	if !topic.IsZero() {
		env.AddHeader(xmldom.Elem(TopicHeaderName.Space, TopicHeaderName.Local, topic.String()))
	}
	env.AddBody(body)
	return env
}

func (s *Source) push(ctx context.Context, id string, sub *subscription, payload *xmldom.Element, action string, topic topics.Path) error {
	env := s.notificationEnvelope(sub, payload, action, topic)
	err := s.cfg.Client.Send(ctx, sub.notifyTo.Address, env)
	s.recordDelivery(ctx, id, sub, err)
	return err
}

// recordDelivery implements the consecutive-failure drop policy.
func (s *Source) recordDelivery(ctx context.Context, id string, sub *subscription, err error) {
	sub.mu.Lock()
	if err == nil {
		sub.failures = 0
		sub.mu.Unlock()
		return
	}
	sub.failures++
	drop := sub.failures >= s.cfg.FailureLimit
	sub.mu.Unlock()
	if drop {
		s.store.Cancel(id, sublease.EndDeliveryFailure)
	}
}

func (s *Source) bufferWrapped(ctx context.Context, id string, sub *subscription, payload *xmldom.Element, action string, topic topics.Path) {
	sub.mu.Lock()
	sub.wrapBuf = append(sub.wrapBuf, payload.Clone())
	flush := len(sub.wrapBuf) >= s.cfg.WrapBatchSize
	var batch []*xmldom.Element
	if flush {
		batch = sub.wrapBuf
		sub.wrapBuf = nil
	}
	sub.mu.Unlock()
	if flush {
		s.deliverWrapped(ctx, id, sub, batch, action, topic)
	}
}

// WrappedName is the batch wrapper element. The 8/2004 spec admits the
// wrapped mode but does not define its message format (Table 1), so this
// implementation supplies one in an extension namespace and documents the
// substitution.
var WrappedName = xmldom.N("urn:ws-messenger:extensions", "Notifications")

func (s *Source) deliverWrapped(ctx context.Context, id string, sub *subscription, batch []*xmldom.Element, action string, topic topics.Path) error {
	wrapper := xmldom.NewElement(WrappedName)
	for _, m := range batch {
		wrapper.Append(xmldom.Elem(WrappedName.Space, "Message", m))
	}
	return s.push(ctx, id, sub, wrapper, action, topic)
}

// FlushWrapped forces out every partially filled wrapped-mode batch.
func (s *Source) FlushWrapped(ctx context.Context) {
	for _, sn := range s.store.Deliverable() {
		sub := sn.Data.(*subscription)
		sub.mu.Lock()
		batch := sub.wrapBuf
		sub.wrapBuf = nil
		sub.mu.Unlock()
		if len(batch) > 0 {
			s.deliverWrapped(ctx, sn.ID, sub, batch, s.cfg.NotificationAction, topics.Path{})
		}
	}
}

// Shutdown terminates every subscription, emitting SubscriptionEnd notices
// (SourceShuttingDown) to subscribers that supplied EndTo.
func (s *Source) Shutdown() { s.store.Shutdown() }

// Scavenge expires lapsed subscriptions, emitting end notices.
func (s *Source) Scavenge() int { return s.store.Scavenge() }

// onLeaseEnd sends the SubscriptionEnd message. Errors are swallowed: the
// subscription is already gone and the notice is best-effort, exactly as
// the spec intends.
func (s *Source) onLeaseEnd(sn sublease.Snapshot, reason sublease.EndReason) {
	sub, ok := sn.Data.(*subscription)
	if !ok || sub.endTo == nil {
		return
	}
	status := EndSourceCanceling
	switch reason {
	case sublease.EndSourceShutdown:
		status = EndSourceShuttingDown
	case sublease.EndDeliveryFailure:
		status = EndDeliveryFailure
	case sublease.EndExpired:
		status = EndSourceCanceling
	}
	v := s.cfg.Version
	end := &SubscriptionEnd{
		Manager: wsa.NewEPR(v.WSAVersion(), s.cfg.ManagerAddress),
		ID:      sn.ID,
		Status:  status,
		Reason:  string(reason),
	}
	env := soap.New(soap.V11)
	h := wsa.DestinationEPR(sub.endTo, v.ActionSubscriptionEnd(), s.nextMessageID())
	h.Apply(env)
	env.AddBody(end.Element(v))
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	_ = s.cfg.Client.Send(ctx, sub.endTo.Address, env)
}
