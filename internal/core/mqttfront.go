package core

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"strconv"
	"time"

	"sync"

	"repro/internal/cloudevents"
	"repro/internal/lru"
	"repro/internal/mediation"
	"repro/internal/mqtt"
	"repro/internal/topics"
	"repro/internal/wsa"
	"repro/internal/xmldom"
)

// MQTT 3.1.1 front door: the session layer that turns the internal/mqtt
// codec into the broker's fourth ingress/egress. Each QoS level rides the
// delivery machinery the other doors already use:
//
//	QoS 0  at-most-once   sync write at the session edge; a slow or dead
//	                      consumer drops the frame (counted) and never
//	                      blocks dispatch
//	QoS 1  at-least-once  dispatch's retry policy is the retransmission
//	                      loop; PUBACK is the ack edge, and an unacked
//	                      delivery surfaces as a delivery error so the
//	                      next attempt carries DUP=1 with the same id
//	QoS 2  exactly-once   outbound: a per-message PUBREC/PUBREL/PUBCOMP
//	                      state machine that never re-PUBLISHes after
//	                      PUBREC; inbound: the federation dedup LRU keyed
//	                      by packet id suppresses redeliveries
//
// Subscriptions are session-bound subState entries (session) compiled
// through mqtt.ExprForFilter onto the Full topic dialect, so they ride the
// exact/prefix topic index and count toward the same conservation law
// (Matched == Delivered + Dropped + Failed + DeadLettered) as SOAP, CE and
// WebSocket subscribers. Persistent sessions (CleanSession=0) pause with
// buffering on disconnect and resume on reconnect.

const (
	// mqttInflightCap bounds each session's inbound QoS 2 dedup set.
	mqttInflightCap = 4096
	// mqttWriteTimeout bounds one frame write to a consumer socket.
	mqttWriteTimeout = 10 * time.Second
	// mqttQoS0Timeout is the stingier bound for at-most-once frames: a
	// consumer that cannot take the write inside it loses the message.
	mqttQoS0Timeout = 2 * time.Second
	// mqttConsumerURN is the consumer address of session-bound subscriptions.
	mqttConsumerURN = "urn:ws-messenger:mqtt"
)

var errMQTTOffline = errors.New("mqtt: session offline")

// mqttFront is the broker-wide MQTT state: live sessions by client id and
// the retained-message store.
type mqttFront struct {
	b        *Broker
	mu       sync.Mutex
	sessions map[string]*mqttSession
	retained map[string]retainedMsg // by wire topic name
}

type retainedMsg struct {
	payload []byte
	qos     byte
}

func newMQTTFront(b *Broker) *mqttFront {
	return &mqttFront{b: b, sessions: map[string]*mqttSession{}, retained: map[string]retainedMsg{}}
}

// mqttSession is one client's session state. For persistent sessions
// (CleanSession=0) it outlives the connection; the conn field is nil while
// the client is offline.
type mqttSession struct {
	f          *mqttFront
	clientID   string
	persistent bool

	mu      sync.Mutex
	conn    *mqtt.Conn
	gen     int // connection generation; bumped on every (re)attach
	subs    map[string]*mqttSub
	nextPID uint16
	out     map[any]*mqttOut    // outbound in-flight, by stable message key
	byPID   map[uint16]*mqttOut // same, by packet id (readLoop routing)
	dead    chan struct{}       // closed on detach; re-made on attach

	// inflight dedups inbound QoS 2 publishes by packet id until PUBREL.
	inflight *lru.Set
}

// mqttSub is one granted topic filter.
type mqttSub struct {
	filter mqtt.Filter
	qos    byte
	subID  string
}

// mqttOutKey identifies one outbound delivery across dispatch retries:
// the subscription it rides plus the stable fanMsg payload pointer. The
// subscription must be part of the key — overlapping filters on one
// session each deliver the same payload pointer concurrently, and each
// delivery owns its own packet id and handshake ([MQTT-3.3.5-1] lets the
// server send one message per matching subscription).
type mqttOutKey struct {
	sub *mqttSub
	msg any
}

// mqttOut tracks one outbound QoS 1/2 message through its handshake.
type mqttOut struct {
	pid     uint16
	ch      chan byte // ack packet types, routed by readLoop
	started bool      // a PUBLISH attempt has been written (retry ⇒ DUP)
	relSent bool      // QoS 2: PUBREC seen, handshake resumes at PUBREL
}

// ServeMQTT accepts MQTT connections on ln until it is closed. It is the
// MQTT analogue of http.Serve for the other front doors.
func (b *Broker) ServeMQTT(ln net.Listener) error {
	for {
		nc, err := ln.Accept()
		if err != nil {
			return err
		}
		go b.mqtt.serve(nc)
	}
}

// serve runs one connection: CONNECT handshake, session attach, then the
// packet loop until the socket dies.
func (f *mqttFront) serve(nc net.Conn) {
	conn := mqtt.NewConn(nc)
	p, err := conn.ReadPacket(time.Now().Add(10 * time.Second))
	if err != nil {
		conn.Close()
		return
	}
	c, ok := p.(*mqtt.Connect)
	if !ok {
		conn.Close() // [MQTT-3.1.0-1]: first packet must be CONNECT
		return
	}
	if c.ClientID == "" && !c.CleanSession {
		// [MQTT-3.1.3-8]: a zero-byte id requires a clean session.
		_ = conn.WritePacket(&mqtt.Connack{Code: mqtt.ConnRefusedIdentifier}, mqttWriteTimeout)
		conn.Close()
		return
	}
	clientID := c.ClientID
	if clientID == "" {
		clientID = "anon-" + f.b.nextMessageID()
	}
	s, present, resumed := f.attach(clientID, c.CleanSession, conn)
	if err := conn.WritePacket(&mqtt.Connack{SessionPresent: present, Code: mqtt.ConnAccepted}, mqttWriteTimeout); err != nil {
		f.detach(s, conn, false, nil)
		return
	}
	// Resume (and re-lease) buffered subscriptions only now: the CONNACK
	// must be the first packet on the wire ([MQTT-3.2.0-1]), and a resumed
	// backlog flushes PUBLISHes as soon as delivery restarts.
	for _, sub := range resumed {
		_ = f.b.resumeSubscription(sub.subID) // an expired lease stays dead
		_, _ = f.b.renewSubscription(sub.subID, f.b.grant(time.Time{}))
	}
	f.b.mqttConns.Add(1)
	inc(f.b.mqttConnsTotal)
	defer f.b.mqttConns.Add(-1)

	grace := time.Duration(0)
	if c.KeepAlive > 0 {
		grace = time.Duration(c.KeepAlive) * time.Second * 3 / 2 // [MQTT-3.1.2-24]
	}
	graceful := f.readLoop(s, conn, grace)
	f.detach(s, conn, graceful, c.Will)
}

// attach binds a connection to its (possibly pre-existing) session,
// reporting whether previous session state was present ([MQTT-3.2.2-2])
// and which subscriptions the caller must resume once the CONNACK is out.
func (f *mqttFront) attach(clientID string, clean bool, conn *mqtt.Conn) (*mqttSession, bool, []*mqttSub) {
	f.mu.Lock()
	old := f.sessions[clientID]
	var fresh *mqttSession
	present := false
	switch {
	case old != nil && !clean && old.persistent:
		present = true
		fresh = old
	default:
		fresh = &mqttSession{
			f: f, clientID: clientID, persistent: !clean,
			subs:     map[string]*mqttSub{},
			out:      map[any]*mqttOut{},
			byPID:    map[uint16]*mqttOut{},
			inflight: lru.New(mqttInflightCap),
		}
		f.sessions[clientID] = fresh
	}
	f.mu.Unlock()

	if old != nil && old != fresh {
		// The new connection replaces an incompatible session (clean flag
		// flipped, or the old one was clean): cancel its subscriptions.
		old.mu.Lock()
		oldConn, oldSubs := old.conn, old.subs
		old.conn, old.subs = nil, map[string]*mqttSub{}
		old.mu.Unlock()
		if oldConn != nil {
			oldConn.Close()
		}
		for _, sub := range oldSubs {
			_ = f.b.cancelSubscription(sub.subID)
		}
	}

	fresh.mu.Lock()
	prevConn := fresh.conn
	fresh.conn = conn
	fresh.gen++
	if prevConn != nil {
		// Takeover won the race against the old socket's read error: its
		// detach will no-op on the conn guard, so wake any in-flight
		// deliveries parked on the old channel — their retry re-sends on
		// the new connection with DUP.
		close(fresh.dead)
	}
	fresh.dead = make(chan struct{})
	subs := make([]*mqttSub, 0, len(fresh.subs))
	for _, sub := range fresh.subs {
		subs = append(subs, sub)
	}
	fresh.mu.Unlock()
	if prevConn != nil {
		prevConn.Close() // [MQTT-3.1.4-2]: session takeover
	}
	return fresh, present, subs
}

// detach tears a connection down: graceful disconnects discard the will;
// clean sessions evaporate; persistent ones pause with buffering.
func (f *mqttFront) detach(s *mqttSession, conn *mqtt.Conn, graceful bool, will *mqtt.Will) {
	s.mu.Lock()
	if s.conn != conn {
		// A takeover already replaced this connection; nothing to detach.
		s.mu.Unlock()
		conn.Close()
		return
	}
	s.conn = nil
	close(s.dead)
	subs := make([]*mqttSub, 0, len(s.subs))
	for _, sub := range s.subs {
		subs = append(subs, sub)
	}
	if !s.persistent {
		s.subs = map[string]*mqttSub{}
	}
	s.mu.Unlock()
	conn.Close()

	if s.persistent {
		for _, sub := range subs {
			_ = f.b.pauseSubscription(sub.subID) // an expired lease has nothing to buffer
		}
	} else {
		f.mu.Lock()
		if f.sessions[s.clientID] == s {
			delete(f.sessions, s.clientID)
		}
		f.mu.Unlock()
		for _, sub := range subs {
			_ = f.b.cancelSubscription(sub.subID)
		}
	}
	if !graceful && will != nil {
		// [MQTT-3.1.2-8]: abnormal disconnect publishes the will.
		_ = f.ingest(s.clientID, &mqtt.Publish{
			Topic: will.Topic, Payload: will.Payload, QoS: will.QoS, Retain: will.Retain,
		})
	}
}

// readLoop processes inbound packets until the connection dies, reporting
// whether the client said DISCONNECT first.
func (f *mqttFront) readLoop(s *mqttSession, conn *mqtt.Conn, grace time.Duration) (graceful bool) {
	for {
		var deadline time.Time
		if grace > 0 {
			deadline = time.Now().Add(grace)
		}
		p, err := conn.ReadPacket(deadline)
		if err != nil {
			var ne net.Error
			if errors.As(err, &ne) && ne.Timeout() {
				inc(f.b.mqttKeepaliveTOs)
			}
			return false
		}
		switch p := p.(type) {
		case *mqtt.Publish:
			if err := f.inboundPublish(s, conn, p); err != nil {
				return false // protocol violation: close ([MQTT-4.8.0-1])
			}
		case *mqtt.Ack:
			switch p.PacketType {
			case mqtt.PUBACK, mqtt.PUBREC, mqtt.PUBCOMP:
				s.routeAck(p)
			case mqtt.PUBREL:
				// Inbound QoS 2 release: the id may be reused now.
				s.inflight.Remove(strconv.Itoa(int(p.PacketID)))
				_ = conn.WritePacket(&mqtt.Ack{PacketType: mqtt.PUBCOMP, PacketID: p.PacketID}, mqttWriteTimeout)
			}
		case *mqtt.Subscribe:
			f.subscribe(s, conn, p)
		case *mqtt.Unsubscribe:
			f.unsubscribe(s, conn, p)
		case mqtt.Pingreq:
			_ = conn.WritePacket(mqtt.Pingresp{}, mqttWriteTimeout)
		case mqtt.Disconnect:
			return true
		default:
			return false // CONNECT twice, or server-only packets from a client
		}
	}
}

// inboundPublish runs the receiver half of the QoS contract, handing the
// message to the broker's common ingress.
func (f *mqttFront) inboundPublish(s *mqttSession, conn *mqtt.Conn, p *mqtt.Publish) error {
	switch p.QoS {
	case 0:
		return f.ingest(s.clientID, p)
	case 1:
		if err := f.ingest(s.clientID, p); err != nil {
			return err
		}
		return conn.WritePacket(&mqtt.Ack{PacketType: mqtt.PUBACK, PacketID: p.PacketID}, mqttWriteTimeout)
	default: // QoS 2: exactly-once via the dedup set
		if s.inflight.Add(strconv.Itoa(int(p.PacketID))) {
			if err := f.ingest(s.clientID, p); err != nil {
				s.inflight.Remove(strconv.Itoa(int(p.PacketID)))
				return err
			}
		} else {
			inc(f.b.mqttDupDrops)
		}
		return conn.WritePacket(&mqtt.Ack{PacketType: mqtt.PUBREC, PacketID: p.PacketID}, mqttWriteTimeout)
	}
}

// ingest publishes one inbound MQTT message through the broker's common
// CloudEvents ingress, updating the retained store first.
func (f *mqttFront) ingest(clientID string, p *mqtt.Publish) error {
	path, err := mqtt.PathForTopic(p.Topic)
	if err != nil {
		return err
	}
	if p.Retain {
		// [MQTT-3.3.1-10,11]: empty retained payload clears the slot; the
		// message still publishes normally either way.
		f.mu.Lock()
		if len(p.Payload) == 0 {
			delete(f.retained, p.Topic)
		} else {
			f.retained[p.Topic] = retainedMsg{payload: append([]byte(nil), p.Payload...), qos: p.QoS}
		}
		f.mu.Unlock()
	}
	ev := &cloudevents.Event{
		SpecVersion: cloudevents.SpecVersion,
		ID:          f.b.nextMessageID(),
		Source:      "urn:ws-messenger:mqtt:" + clientID,
		Type:        cloudevents.TypeForTopic(path),
		Time:        f.b.cfg.Clock().UTC().Format(time.RFC3339Nano),
	}
	if len(p.Payload) > 0 {
		if json.Valid(p.Payload) {
			ev.Data = append(json.RawMessage(nil), p.Payload...)
		} else {
			ev.Data, ev.DataBase64 = append([]byte(nil), p.Payload...), true
		}
	}
	if err := f.b.PublishCE(ev); err != nil {
		return err
	}
	inc(f.b.mqttPublished)
	return nil
}

// subscribe grants each filter, answers the SUBACK, then replays matching
// retained messages at the granted QoS.
func (f *mqttFront) subscribe(s *mqttSession, conn *mqtt.Conn, p *mqtt.Subscribe) {
	codes := make([]byte, len(p.Filters))
	granted := make([]*mqttSub, 0, len(p.Filters))
	for i, fq := range p.Filters {
		flt, err := mqtt.ParseFilter(fq.Filter)
		if err != nil {
			codes[i] = mqtt.SubackFailure
			continue
		}
		sub, err := f.grant(s, flt, fq.QoS)
		if err != nil {
			codes[i] = mqtt.SubackFailure
			continue
		}
		codes[i] = fq.QoS
		granted = append(granted, sub)
	}
	_ = conn.WritePacket(&mqtt.Suback{PacketID: p.PacketID, Codes: codes}, mqttWriteTimeout)
	if len(granted) == 0 {
		return
	}
	// Retained replay, off the read loop so acks keep flowing.
	f.mu.Lock()
	snapshot := make(map[string]retainedMsg, len(f.retained))
	for t, m := range f.retained {
		snapshot[t] = m
	}
	f.mu.Unlock()
	go func() {
		for topic, m := range snapshot {
			for _, sub := range granted {
				if !sub.filter.Matches(topic) {
					continue
				}
				qos := min(m.qos, sub.qos)
				ctx, cancel := sendCtx(context.Background())
				_ = s.writeQoS(ctx, &retainKey{}, qos, topic, m.payload, true)
				cancel()
				break // one retained delivery per message per SUBSCRIBE
			}
		}
	}()
}

// retainKey gives each retained replay a unique in-flight identity.
type retainKey struct{ _ byte }

// grant registers one filter as a session-bound broker subscription. A
// re-subscribe to an existing filter replaces the granted QoS in place
// ([MQTT-3.8.4-3]) without touching the underlying lease.
func (f *mqttFront) grant(s *mqttSession, flt mqtt.Filter, qos byte) (*mqttSub, error) {
	s.mu.Lock()
	if existing, ok := s.subs[flt.String()]; ok {
		existing.qos = qos
		s.mu.Unlock()
		return existing, nil
	}
	s.mu.Unlock()

	expr, nsm, err := mqtt.ExprForFilter(flt)
	if err != nil {
		return nil, err
	}
	canon := &mediation.Subscribe{
		Origin:   mediation.Dialect{Family: mediation.FamilyCE},
		Consumer: wsa.NewEPR(wsa.V200508, mqttConsumerURN),
		CEMode:   mediation.CEStructured,
	}
	canon.TopicExpr, canon.TopicDialect, canon.TopicNS = expr, topics.DialectFull, nsm
	sub := &mqttSub{filter: flt, qos: qos}
	st := &subState{canon: canon, persistent: s.persistent}
	st.session = func(ctx context.Context, n mediation.Notification) error {
		return s.deliver(ctx, sub, n)
	}
	if sub.subID, _, err = f.b.subscribeCE(st); err != nil {
		return nil, err
	}

	s.mu.Lock()
	s.subs[flt.String()] = sub
	s.mu.Unlock()
	return sub, nil
}

func (f *mqttFront) unsubscribe(s *mqttSession, conn *mqtt.Conn, p *mqtt.Unsubscribe) {
	for _, raw := range p.Filters {
		s.mu.Lock()
		sub, ok := s.subs[raw]
		if ok {
			delete(s.subs, raw)
		}
		s.mu.Unlock()
		if ok {
			_ = f.b.cancelSubscription(sub.subID)
		}
	}
	_ = conn.WritePacket(&mqtt.Ack{PacketType: mqtt.UNSUBACK, PacketID: p.PacketID}, mqttWriteTimeout)
}

// deliver is the dispatch-side delivery hook: frame the notification per
// the granted QoS and run the sender half of the handshake. The fanMsg
// payload pointer is stable across dispatch retries, so (sub, payload)
// keys the in-flight state and retransmissions reuse their packet id
// with DUP — while overlapping subscriptions delivering the same payload
// each get their own id.
func (s *mqttSession) deliver(ctx context.Context, sub *mqttSub, n mediation.Notification) error {
	topic, err := mqtt.TopicForPath(n.Topic)
	if err != nil {
		// Unroutable topic: permanent, not a delivery failure.
		inc(s.f.b.mqttDropped)
		return nil
	}
	// Session-layer recheck: [MQTT-4.7.2-1] ($-topics) and the namespace
	// rules live in the string matcher, not the compiled expression.
	if !sub.filter.Matches(topic) {
		return nil
	}
	return s.writeQoS(ctx, mqttOutKey{sub: sub, msg: n.Payload}, sub.qos, topic, mqttPayloadBytes(n.Payload), false)
}

// mqttPayloadBytes extracts the wire payload: the original data bytes for
// the CloudEvents bridge wrapper, the serialised XML otherwise.
func mqttPayloadBytes(p *xmldom.Element) []byte {
	if ev, ok := cloudevents.UnwrapXML(p); ok {
		return ev.Data
	}
	if p == nil {
		return nil
	}
	return []byte(xmldom.Marshal(p))
}

// writeQoS runs the sender half of one message's QoS contract. key
// identifies the message across retries.
func (s *mqttSession) writeQoS(ctx context.Context, key any, qos byte, topic string, payload []byte, retain bool) error {
	if qos == 0 {
		s.mu.Lock()
		conn := s.conn
		s.mu.Unlock()
		if conn == nil {
			inc(s.f.b.mqttDropped)
			return nil // at-most-once: offline loses the message
		}
		if err := conn.WritePacket(&mqtt.Publish{Topic: topic, Payload: payload, Retain: retain}, mqttQoS0Timeout); err != nil {
			inc(s.f.b.mqttDropped)
			return nil // at-most-once: a stalled socket loses the message
		}
		inc(s.f.b.mqttDeliveries)
		return nil
	}

	s.mu.Lock()
	conn, dead := s.conn, s.dead
	if conn == nil {
		s.mu.Unlock()
		return errMQTTOffline
	}
	out := s.out[key]
	if out == nil {
		pid, ok := s.allocPID()
		if !ok {
			s.mu.Unlock()
			return fmt.Errorf("mqtt: session %s has no free packet ids", s.clientID)
		}
		out = &mqttOut{pid: pid, ch: make(chan byte, 2)}
		s.out[key] = out
		s.byPID[pid] = out
	}
	dup := out.started
	out.started = true
	relSent := out.relSent
	s.mu.Unlock()

	finish := func() {
		s.mu.Lock()
		delete(s.out, key)
		delete(s.byPID, out.pid)
		s.mu.Unlock()
	}

	wait := func(want byte) (byte, error) {
		for {
			select {
			case got := <-out.ch:
				if got == want || (want == mqtt.PUBREC && got == mqtt.PUBCOMP) {
					return got, nil
				}
				// Stale ack from a previous attempt; keep waiting.
			case <-ctx.Done():
				return 0, ctx.Err()
			case <-dead:
				return 0, errMQTTOffline
			}
		}
	}

	if qos == 1 {
		if err := conn.WritePacket(&mqtt.Publish{
			Topic: topic, Payload: payload, QoS: 1, PacketID: out.pid, Dup: dup, Retain: retain,
		}, mqttWriteTimeout); err != nil {
			return err
		}
		inc(s.f.b.mqttDeliveries)
		if _, err := wait(mqtt.PUBACK); err != nil {
			return err
		}
		finish()
		return nil
	}

	// QoS 2. Never re-PUBLISH once PUBREC has been seen: the handshake
	// resumes at PUBREL ([MQTT-4.3.3]).
	if !relSent {
		if err := conn.WritePacket(&mqtt.Publish{
			Topic: topic, Payload: payload, QoS: 2, PacketID: out.pid, Dup: dup, Retain: retain,
		}, mqttWriteTimeout); err != nil {
			return err
		}
		inc(s.f.b.mqttDeliveries)
		got, err := wait(mqtt.PUBREC)
		if err != nil {
			return err
		}
		if got == mqtt.PUBCOMP {
			// Consumer raced the whole handshake; done.
			finish()
			return nil
		}
		s.mu.Lock()
		out.relSent = true
		s.mu.Unlock()
	}
	if err := conn.WritePacket(&mqtt.Ack{PacketType: mqtt.PUBREL, PacketID: out.pid}, mqttWriteTimeout); err != nil {
		return err
	}
	if _, err := wait(mqtt.PUBCOMP); err != nil {
		return err
	}
	finish()
	return nil
}

// routeAck hands a consumer acknowledgement to the in-flight delivery.
func (s *mqttSession) routeAck(a *mqtt.Ack) {
	s.mu.Lock()
	out := s.byPID[a.PacketID]
	s.mu.Unlock()
	if out == nil {
		return
	}
	select {
	case out.ch <- a.PacketType:
	default:
	}
}

// allocPID claims a free nonzero packet id (caller holds s.mu).
func (s *mqttSession) allocPID() (uint16, bool) {
	for i := 0; i < 65535; i++ {
		s.nextPID++
		if s.nextPID == 0 {
			s.nextPID = 1
		}
		if _, busy := s.byPID[s.nextPID]; !busy {
			return s.nextPID, true
		}
	}
	return 0, false
}
