package core

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"sync/atomic"
	"time"

	"repro/internal/cloudevents"
	"repro/internal/mediation"
	"repro/internal/wspush"
)

// The WebSocket front door (mounted at /ws): push delivery without a
// consumer-side HTTP server. A client upgrades, subscribes over the socket
// and receives every matching publish — whichever front door it entered —
// as a CloudEvents structured-mode JSON frame. The session vocabulary is
// line-of-sight JSON:
//
//	→ {"action":"subscribe","topic":"{ns}a/b"}   (topic optional)
//	← {"action":"subscribed","sid":"wsm-1"}
//	→ {"action":"unsubscribe","sid":"wsm-1"}
//	→ {"action":"publish","event":{...CloudEvents JSON...}}
//	← {"action":"event","sid":"wsm-1","event":{...}}
//
// Liveness: the broker pings every wsPingInterval; a connection that stays
// silent for wsLivenessGrace intervals is declared dead, which fails its
// pending deliveries into the same retry/breaker/DLQ machinery HTTP
// consumers use — the conservation law holds for sockets too. A client
// close frame is honoured gracefully: queued events drain before the
// close handshake completes.
//
// Connection-bound subscriptions are local: they die with the socket and
// are never persisted in subscription snapshots.

const (
	// wsPingInterval is how often the broker pings an idle connection.
	wsPingInterval = 15 * time.Second
	// wsLivenessGrace is how many silent ping intervals a connection
	// survives before it is declared dead.
	wsLivenessGrace = 2
	// wsOutDepth bounds the per-connection outbound frame queue; a full
	// queue pushes back into the subscriber's dispatch queue.
	wsOutDepth = 64
	// wsConsumerURN is the consumer address of connection-bound subscriptions.
	wsConsumerURN = "urn:ws-messenger:websocket"
)

// wsRequest is a client→broker session frame.
type wsRequest struct {
	Action string          `json:"action"`
	Topic  string          `json:"topic,omitempty"`
	SID    string          `json:"sid,omitempty"`
	Event  json.RawMessage `json:"event,omitempty"`
}

// wsReply is a broker→client session frame.
type wsReply struct {
	Action string          `json:"action"`
	SID    string          `json:"sid,omitempty"`
	ID     string          `json:"id,omitempty"`
	Event  json.RawMessage `json:"event,omitempty"`
	Error  string          `json:"error,omitempty"`
}

// wsSession is one upgraded connection's state.
type wsSession struct {
	b   *Broker
	c   *wspush.Conn
	out chan []byte
	// dead closes when the session stops delivering (liveness timeout, IO
	// error or close handshake); closing closes when the client asked for a
	// graceful close and queued frames should drain first; wdone closes
	// when the write loop has exited.
	dead     chan struct{}
	closing  chan struct{}
	wdone    chan struct{}
	deadOnce func()
	closeOn  func()
	lastSeen atomic.Int64 // UnixNano of the last frame read
	subs     map[string]struct{}
}

var errWSClosed = errors.New("core: websocket connection closed")

// WSHandler returns the broker's WebSocket front door.
func (b *Broker) WSHandler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		c, err := wspush.Upgrade(w, r)
		if err != nil {
			return // Upgrade already wrote the HTTP error
		}
		b.wsConns.Add(1)
		inc(b.wsConnsTotal)
		defer b.wsConns.Add(-1)
		s := &wsSession{
			b: b, c: c,
			out:     make(chan []byte, wsOutDepth),
			dead:    make(chan struct{}),
			closing: make(chan struct{}),
			wdone:   make(chan struct{}),
			subs:    map[string]struct{}{},
		}
		s.deadOnce = onceClose(s.dead)
		s.closeOn = onceClose(s.closing)
		s.lastSeen.Store(time.Now().UnixNano())
		go s.writeLoop()
		graceful := s.readLoop()
		if !graceful {
			// Abnormal exit: stop the writer now rather than waiting for
			// its next ping tick to discover the broken socket.
			s.deadOnce()
		}
		// Let the writer finish (on a graceful close it is draining queued
		// events first); a consumer that stops reading mid-drain is cut off.
		select {
		case <-s.wdone:
		case <-time.After(5 * time.Second):
			s.deadOnce()
			_ = c.Close()
			<-s.wdone
		}
		s.deadOnce()
		// The socket is done: connection-bound subscriptions die with it.
		for id := range s.subs {
			_ = b.cancelSubscription(id)
		}
		_ = c.Close()
	})
}

// onceClose returns an idempotent closer for ch.
func onceClose(ch chan struct{}) func() {
	var done atomic.Bool
	return func() {
		if done.CompareAndSwap(false, true) {
			close(ch)
		}
	}
}

// readLoop pumps client frames until the socket fails or the client sends
// a close frame; it reports whether the exit was a graceful close.
func (s *wsSession) readLoop() (graceful bool) {
	grace := wsPingInterval * (wsLivenessGrace + 1)
	for {
		_ = s.c.SetReadDeadline(time.Now().Add(grace))
		op, p, err := s.c.ReadMessage()
		if err != nil {
			return false
		}
		s.lastSeen.Store(time.Now().UnixNano())
		switch op {
		case wspush.OpPing:
			_ = s.c.WritePong(p)
		case wspush.OpPong:
			// lastSeen already refreshed
		case wspush.OpClose:
			s.closeOn()
			return true
		case wspush.OpText:
			s.handle(p)
		}
	}
}

func (s *wsSession) writeLoop() {
	defer close(s.wdone)
	ticker := time.NewTicker(wsPingInterval)
	defer ticker.Stop()
	for {
		select {
		case msg := <-s.out:
			if err := s.c.WriteMessage(wspush.OpText, msg); err != nil {
				s.deadOnce()
				return
			}
			inc(s.b.wsEvents)
		case <-ticker.C:
			silent := time.Since(time.Unix(0, s.lastSeen.Load()))
			if silent > wsPingInterval*wsLivenessGrace {
				// The consumer stopped answering pings: declare the
				// connection dead so pending deliveries fail into the
				// subscriber's retry/breaker path instead of queueing
				// forever behind a black hole.
				inc(s.b.wsPingTimeouts)
				s.deadOnce()
				_ = s.c.Close()
				return
			}
			if err := s.c.WritePing(nil); err != nil {
				s.deadOnce()
				return
			}
		case <-s.closing:
			// Graceful close: drain what is already queued, then complete
			// the close handshake.
			for {
				select {
				case msg := <-s.out:
					if err := s.c.WriteMessage(wspush.OpText, msg); err != nil {
						s.deadOnce()
						return
					}
					inc(s.b.wsEvents)
				default:
					_ = s.c.WriteClose(wspush.CloseNormal, "")
					s.deadOnce()
					return
				}
			}
		case <-s.dead:
			return
		}
	}
}

// handle processes one client JSON frame.
func (s *wsSession) handle(p []byte) {
	var req wsRequest
	if err := json.Unmarshal(p, &req); err != nil {
		s.reply(wsReply{Action: "error", Error: "bad frame: " + err.Error()})
		return
	}
	switch req.Action {
	case "subscribe":
		id, err := s.subscribe(req.Topic)
		if err != nil {
			s.reply(wsReply{Action: "error", Error: err.Error()})
			return
		}
		s.subs[id] = struct{}{}
		s.reply(wsReply{Action: "subscribed", SID: id})
	case "unsubscribe":
		if _, mine := s.subs[req.SID]; !mine {
			s.reply(wsReply{Action: "error", SID: req.SID, Error: "unknown subscription"})
			return
		}
		delete(s.subs, req.SID)
		_ = s.b.cancelSubscription(req.SID)
		s.reply(wsReply{Action: "unsubscribed", SID: req.SID})
	case "publish":
		ev, err := cloudevents.ParseJSON(req.Event)
		if err != nil {
			s.reply(wsReply{Action: "error", Error: err.Error()})
			return
		}
		if err := s.b.PublishCE(ev); err != nil {
			s.reply(wsReply{Action: "error", Error: err.Error()})
			return
		}
		s.reply(wsReply{Action: "published", ID: ev.ID})
	default:
		s.reply(wsReply{Action: "error", Error: "unknown action " + req.Action})
	}
}

// reply enqueues a session frame (dropped once the session is dead).
func (s *wsSession) reply(r wsReply) {
	b, _ := json.Marshal(r)
	select {
	case s.out <- b:
	case <-s.dead:
	}
}

// deliver is the dispatch-side delivery hook for this session's
// subscriptions: it renders the notification as a CloudEvents
// structured-mode body, frames it and enqueues it. A full queue blocks
// until the delivery context gives up, feeding the subscription's retry
// policy exactly like a slow HTTP consumer.
func (s *wsSession) deliver(ctx context.Context, st *subState, n mediation.Notification) error {
	event, _ := mediation.RenderCE(n, st.plan, s.b.nextMessageID())
	b, _ := json.Marshal(wsReply{Action: "event", SID: st.plan.SubscriptionID, Event: event})
	select {
	case s.out <- b:
		return nil
	case <-s.dead:
		return errWSClosed
	case <-ctx.Done():
		return ctx.Err()
	}
}

// subscribe creates a connection-bound subscription, optionally filtered
// by a Clark-form topic. It rides the same dispatch queues, retry policies
// and conservation accounting as a remote one, but is skipped by
// subscription snapshots — it cannot outlive its connection.
func (s *wsSession) subscribe(clarkTopic string) (string, error) {
	canon, err := ceCanon(wsConsumerURN, clarkTopic, mediation.CEStructured)
	if err != nil {
		return "", err
	}
	st := &subState{canon: canon}
	st.session = func(ctx context.Context, n mediation.Notification) error {
		return s.deliver(ctx, st, n)
	}
	id, _, err := s.b.subscribeCE(st)
	return id, err
}
