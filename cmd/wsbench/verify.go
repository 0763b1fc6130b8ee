package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strings"

	"repro/internal/cloudevents"
	"repro/internal/mqtt"
	"repro/internal/soap"
	"repro/internal/wsa"
	"repro/internal/wse"
	"repro/internal/wsnt"
	"repro/internal/xmldom"
)

// verifySample parses one kept delivery in full and checks that it is in
// the subscriber's dialect and carries the payload that was published,
// unchanged. It runs after the phases, off the measured path.
func (b *bench) verifySample(sm sample) error {
	rc := sm.rc
	if int(rc.sub) >= len(b.subs) {
		return fmt.Errorf("sample names unknown subscriber %d", rc.sub)
	}
	sub := b.subs[rc.sub]
	msg := b.msgFor(int(rc.pub), int(rc.seq))
	var want [stampLen]byte
	putStamp(want[:], int(rc.pub), rc.seq, rc.due)
	topic := b.topics[msg.topic]

	// samePayload compares a delivered XML payload with the published one,
	// structurally (prefixes and whitespace may differ, nothing else).
	samePayload := func(got *xmldom.Element) error {
		if got == nil {
			return fmt.Errorf("%s delivery has no payload", sub.kind)
		}
		if msg.payload == nil { // CloudEvents publish: the XML bridge form
			ev, ok := cloudevents.UnwrapXML(got)
			if !ok {
				return fmt.Errorf("%s delivery of a CloudEvents publish is not the wsmce:Event bridge form", sub.kind)
			}
			return b.sameEvent(ev, msg, string(want[:]), topic.String())
		}
		exp := msg.payload.Clone()
		st := exp.Child(xmldom.N(exp.Name.Space, "stamp"))
		st.Children = []xmldom.Node{xmldom.Text(want[:])}
		if !exp.Equal(got) {
			return fmt.Errorf("%s delivery payload differs from the published one", sub.kind)
		}
		return nil
	}

	switch sub.kind {
	case kindWSN:
		env, err := soap.ParseBytes(sm.body)
		if err != nil {
			return fmt.Errorf("wsn delivery: %w", err)
		}
		body := env.FirstBody()
		if body == nil || body.Name != xmldom.N(wsnt.NS1_3, "Notify") {
			return fmt.Errorf("wsn delivery body is not a WS-Notification 1.3 Notify")
		}
		msgs, _, err := wsnt.ParseNotify(body)
		if err != nil {
			return err
		}
		for _, nm := range msgs {
			if nm.SubscriptionReference == nil || nm.Payload == nil {
				continue
			}
			if !eprNames(nm.SubscriptionReference, sub.id) || !bytes.Contains([]byte(xmldom.Marshal(nm.Payload)), want[:]) {
				continue
			}
			if !nm.Topic.Equal(topic) {
				return fmt.Errorf("wsn delivery topic %s, want %s", nm.Topic, topic)
			}
			return samePayload(nm.Payload)
		}
		return fmt.Errorf("wsn delivery holds no entry for subscription %s and stamp %s", sub.id, want[:])
	case kindWSE:
		env, err := soap.ParseBytes(sm.body)
		if err != nil {
			return fmt.Errorf("wse delivery: %w", err)
		}
		body := env.FirstBody()
		if body == nil || body.Name.Space == wsnt.NS1_3 || body.Name.Space == wsnt.NS1_0 {
			return fmt.Errorf("wse delivery is wrapped in a WS-Notification body, want the raw payload")
		}
		if got := env.HeaderText(wse.TopicHeaderName); got != topic.String() {
			return fmt.Errorf("wse delivery topic header %q, want %q", got, topic)
		}
		return samePayload(body)
	case kindCE:
		ev, err := cloudevents.ParseJSON(sm.body)
		if err != nil {
			return fmt.Errorf("ce delivery: %w", err)
		}
		return b.sameEvent(ev, msg, string(want[:]), topic.String())
	case kindWS:
		var frame struct {
			Action, SID string
			Event       json.RawMessage
		}
		if err := json.Unmarshal(sm.body, &frame); err != nil {
			return fmt.Errorf("ws frame: %w", err)
		}
		if frame.Action != "event" || frame.SID != sub.id {
			return fmt.Errorf("ws frame action %q sid %q, want event for %s", frame.Action, frame.SID, sub.id)
		}
		ev, err := cloudevents.ParseJSON(frame.Event)
		if err != nil {
			return fmt.Errorf("ws event: %w", err)
		}
		return b.sameEvent(ev, msg, string(want[:]), topic.String())
	case kindMQTT:
		exp := append([]byte(nil), msg.data...)
		copy(exp[msg.forms[0].off:], want[:])
		if !bytes.Equal(sm.body, exp) {
			return fmt.Errorf("mqtt delivery payload differs from the published bytes")
		}
		if wantTopic, _ := mqtt.TopicForPath(topic); sm.topic != wantTopic {
			return fmt.Errorf("mqtt delivery topic %q, want %q", sm.topic, wantTopic)
		}
		return nil
	}
	return fmt.Errorf("unknown subscriber kind %d", sub.kind)
}

// eprNames reports whether a subscription reference carries id among its
// reference parameters.
func eprNames(epr *wsa.EndpointReference, id string) bool {
	for _, p := range epr.IdentityParameters() {
		if strings.TrimSpace(p.Text()) == id {
			return true
		}
	}
	return false
}

// sameEvent checks a delivered CloudEvent against the published message:
// its type names the topic and its data is the published payload.
func (b *bench) sameEvent(ev *cloudevents.Event, msg *message, stamp, topic string) error {
	if got := cloudevents.TopicForType(ev.Type).String(); got != topic {
		return fmt.Errorf("event type names topic %q, want %q", got, topic)
	}
	if msg.payload != nil {
		// An XML publish travels as a JSON string holding the document.
		var doc string
		if err := json.Unmarshal(ev.Data, &doc); err != nil {
			return fmt.Errorf("event data of an XML publish is not a JSON string: %w", err)
		}
		got, err := xmldom.ParseString(doc)
		if err != nil {
			return fmt.Errorf("event data: %w", err)
		}
		exp := msg.payload.Clone()
		exp.Child(xmldom.N(exp.Name.Space, "stamp")).Children = []xmldom.Node{xmldom.Text(stamp)}
		if !exp.Equal(got) {
			return fmt.Errorf("event data differs from the published payload")
		}
		return nil
	}
	// JSON publishes: the stamp rides in the data (MQTT) or is the event
	// id (CloudEvents); either way data must come back value-equal.
	exp := msg.data
	if i := bytes.Index(exp, []byte(stampBlank)); i >= 0 {
		exp = append([]byte(nil), exp...)
		copy(exp[i:], stamp)
	} else if ev.ID != stamp {
		return fmt.Errorf("event id %q, want the stamp %q", ev.ID, stamp)
	}
	var g, w any
	if json.Unmarshal(ev.Data, &g) != nil || json.Unmarshal(exp, &w) != nil || fmt.Sprint(g) != fmt.Sprint(w) {
		return fmt.Errorf("event data %s differs from the published %s", ev.Data, exp)
	}
	return nil
}
