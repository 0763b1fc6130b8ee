package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cloudevents"
	"repro/internal/mqtt"
	"repro/internal/wspush"
)

// subKind is the dialect a subscriber asked to be served in; the oracle
// checks every delivery arrives in it.
type subKind uint8

const (
	kindWSE  subKind = iota // WS-Eventing 8/2004 push: raw payload body, topic header
	kindWSN                 // WS-Notification 1.3: wsnt:Notify with NotificationMessage entries
	kindCE                  // CloudEvents structured-mode webhook
	kindMQTT                // MQTT 3.1.1 session: bare payload bytes
	kindWS                  // /ws socket: CloudEvents JSON event frames
)

func (k subKind) String() string {
	return [...]string{"wse", "wsn", "ce", "mqtt", "ws"}[k]
}

// subscriber is one consumer identity the bench can tell apart on the
// wire: a push subscription, a /ws subscription, or one MQTT connection
// (an MQTT PUBLISH names only its topic, so the overlapping filters of one
// session are one subscriber that must see mult copies).
type subscriber struct {
	kind subKind
	id   string // broker-assigned subscription id, where deliveries carry it
	mult int    // copies of each matching publish this consumer must receive
	qos  byte   // MQTT only: 1 permits DUP-flagged redeliveries
}

// receipt is one stamped notification seen at a consumer socket.
type receipt struct {
	at    int64 // ns since epoch, taken right after the read
	due   int64 // from the stamp
	seq   uint32
	sub   uint16
	pub   uint8
	flags uint8
}

const (
	flagDup     = 1 << iota // MQTT DUP bit was set
	flagBadType             // content type (or frame shape) is not the subscriber's dialect
)

// sample is a delivery kept whole so its dialect and payload can be
// checked in full once the phase is over.
type sample struct {
	rc    receipt
	topic string // MQTT only
	body  []byte
}

// sampleEvery selects which sequence numbers are kept whole. Parsing
// every delivery in the bench would cost more CPU than the broker spends
// producing it; every receipt is still matched, ordered and type-checked.
const sampleEvery = 61

// recorder collects what one consumer endpoint (a sink listener or a
// session connection) saw. One recorder per endpoint keeps the lock
// uncontended.
type recorder struct {
	mu        sync.Mutex
	recs      []receipt
	samples   []sample
	unstamped int // bodies without a stamp: end notices, session replies
	// total, when set, counts receipts across all of a run's recorders so
	// the burst phase can wait for "every expected receipt arrived"
	// without taking any recorder's lock.
	total *atomic.Int64
}

func (r *recorder) add(rc receipt, body []byte, topic string) {
	r.mu.Lock()
	r.recs = append(r.recs, rc)
	if rc.seq%sampleEvery == 0 {
		r.samples = append(r.samples, sample{rc: rc, topic: topic, body: append([]byte(nil), body...)})
	}
	r.mu.Unlock()
	if r.total != nil {
		r.total.Add(1)
	}
}

func (r *recorder) noStamp() {
	r.mu.Lock()
	r.unstamped++
	r.mu.Unlock()
}

// countingListener counts accepted connections and the bytes read from
// them — the wire-side figures of the per-layer table.
type countingListener struct {
	net.Listener
	conns, in atomic.Int64
}

func (l *countingListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	l.conns.Add(1)
	return &countingConn{Conn: c, l: l}, nil
}

type countingConn struct {
	net.Conn
	l *countingListener
}

func (c *countingConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.l.in.Add(int64(n))
	return n, err
}

// sink is one loopback HTTP host receiving push deliveries. WS-
// Notification subscribers of a host share /wsn (so the broker can
// coalesce them into one envelope; each entry names its subscription);
// WS-Eventing and CloudEvents subscribers get a path of their own, which
// is the only thing that identifies them in those dialects.
type sink struct {
	epoch    time.Time
	rec      recorder
	ln       *countingListener
	srv      *http.Server
	url      string
	requests atomic.Int64
	wsnIDs   map[string]uint16 // subscription id → subscriber index; frozen before traffic
	bufs     sync.Pool
}

func startSink(epoch time.Time) (*sink, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s := &sink{epoch: epoch, ln: &countingListener{Listener: ln}, wsnIDs: map[string]uint16{}}
	s.url = "http://" + ln.Addr().String()
	s.bufs.New = func() any { return new(bytes.Buffer) }
	s.srv = &http.Server{Handler: s}
	go func() { _ = s.srv.Serve(s.ln) }()
	return s, nil
}

func (s *sink) close() { _ = s.srv.Close() }

// ServeHTTP does the minimum per delivery: read the body, take the time,
// find the stamps. Everything else waits until the phase is over.
func (s *sink) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	buf := s.bufs.Get().(*bytes.Buffer)
	buf.Reset()
	_, err := buf.ReadFrom(r.Body)
	at := int64(time.Since(s.epoch))
	if err != nil {
		s.bufs.Put(buf)
		http.Error(w, "read", http.StatusBadRequest)
		return
	}
	s.requests.Add(1)
	body := buf.Bytes()
	ct := r.Header.Get("Content-Type")
	path := r.URL.Path
	switch {
	case path == "/wsn":
		s.scanWSN(body, at, !strings.HasPrefix(ct, "text/xml"))
	case strings.HasPrefix(path, "/wse/"):
		s.scanOne(body, at, path[len("/wse/"):], !strings.HasPrefix(ct, "text/xml"))
	case strings.HasPrefix(path, "/ce/"):
		s.scanOne(body, at, path[len("/ce/"):], !strings.HasPrefix(ct, cloudevents.ContentTypeJSON))
	default:
		s.rec.noStamp()
	}
	s.bufs.Put(buf)
	w.WriteHeader(http.StatusAccepted)
}

// scanOne records a delivery whose subscriber is named by the URL path.
func (s *sink) scanOne(body []byte, at int64, idx string, badType bool) {
	sub, err := strconv.Atoi(idx)
	st, _, ok := nextStamp(body, 0)
	if err != nil || !ok {
		s.rec.noStamp()
		return
	}
	rc := receipt{at: at, due: st.due, seq: st.seq, sub: uint16(sub), pub: uint8(st.pub)}
	if badType {
		rc.flags |= flagBadType
	}
	s.rec.add(rc, body, "")
}

var subIDTag = []byte("SubscriptionId")

// scanWSN walks a (possibly coalesced) Notify envelope: each
// NotificationMessage names its subscription before its payload, so
// pairing every SubscriptionId with the next stamp recovers (subscriber,
// publish) per entry without parsing XML.
func (s *sink) scanWSN(body []byte, at int64, badType bool) {
	pos, found := 0, false
	for {
		i := bytes.Index(body[pos:], subIDTag)
		if i < 0 {
			break
		}
		p := pos + i + len(subIDTag)
		gt := bytes.IndexByte(body[p:], '>')
		if gt < 0 {
			break
		}
		p += gt + 1
		lt := bytes.IndexByte(body[p:], '<')
		if lt < 0 {
			break
		}
		sub, known := s.wsnIDs[string(bytes.TrimSpace(body[p:p+lt]))]
		st, end, ok := nextStamp(body, p+lt)
		if !ok {
			break
		}
		pos = end
		if !known {
			continue
		}
		found = true
		rc := receipt{at: at, due: st.due, seq: st.seq, sub: sub, pub: uint8(st.pub)}
		if badType {
			rc.flags |= flagBadType
		}
		s.rec.add(rc, body, "")
	}
	if !found {
		s.rec.noStamp()
	}
}

// mqttConsumer is one MQTT session read straight off the codec: PUBLISH
// in, PUBACK out for QoS 1, nothing else per message.
type mqttConsumer struct {
	epoch time.Time
	rec   recorder
	conn  *mqtt.Conn
	sub   uint16
	done  chan struct{}
}

// dialMQTTConsumer connects, subscribes to filters at qos and starts the
// read loop.
func dialMQTTConsumer(epoch time.Time, addr, clientID string, sub uint16, qos byte, filters []string) (*mqttConsumer, error) {
	nc, err := net.DialTimeout("tcp", addr, 5*time.Second)
	if err != nil {
		return nil, err
	}
	c := &mqttConsumer{epoch: epoch, conn: mqtt.NewConn(nc), sub: sub, done: make(chan struct{})}
	fail := func(err error) (*mqttConsumer, error) {
		c.conn.Close()
		return nil, err
	}
	if err := c.conn.WritePacket(&mqtt.Connect{ClientID: clientID, CleanSession: true, KeepAlive: 0}, 5*time.Second); err != nil {
		return fail(err)
	}
	p, err := c.conn.ReadPacket(time.Now().Add(5 * time.Second))
	if err != nil {
		return fail(err)
	}
	if ack, ok := p.(*mqtt.Connack); !ok || ack.Code != mqtt.ConnAccepted {
		return fail(fmt.Errorf("wsbench: mqtt consumer %s: CONNECT refused (%T)", clientID, p))
	}
	req := &mqtt.Subscribe{PacketID: 1}
	for _, f := range filters {
		req.Filters = append(req.Filters, mqtt.TopicFilterQoS{Filter: f, QoS: qos})
	}
	if err := c.conn.WritePacket(req, 5*time.Second); err != nil {
		return fail(err)
	}
	p, err = c.conn.ReadPacket(time.Now().Add(5 * time.Second))
	if err != nil {
		return fail(err)
	}
	sa, ok := p.(*mqtt.Suback)
	if !ok || len(sa.Codes) != len(filters) {
		return fail(fmt.Errorf("wsbench: mqtt consumer %s: bad SUBACK (%T)", clientID, p))
	}
	for i, code := range sa.Codes {
		if code != qos {
			return fail(fmt.Errorf("wsbench: mqtt consumer %s: filter %q granted %#x, want QoS %d", clientID, filters[i], code, qos))
		}
	}
	go c.readLoop()
	return c, nil
}

func (c *mqttConsumer) readLoop() {
	defer close(c.done)
	for {
		p, err := c.conn.ReadPacket(time.Time{})
		if err != nil {
			return
		}
		pub, ok := p.(*mqtt.Publish)
		if !ok {
			continue
		}
		at := int64(time.Since(c.epoch))
		if pub.QoS == 1 {
			_ = c.conn.WritePacket(&mqtt.Ack{PacketType: mqtt.PUBACK, PacketID: pub.PacketID}, 5*time.Second)
		}
		st, _, ok := nextStamp(pub.Payload, 0)
		if !ok {
			c.rec.noStamp()
			continue
		}
		rc := receipt{at: at, due: st.due, seq: st.seq, sub: c.sub, pub: uint8(st.pub)}
		if pub.Dup {
			rc.flags |= flagDup
		}
		c.rec.add(rc, pub.Payload, pub.Topic)
	}
}

func (c *mqttConsumer) close() {
	_ = c.conn.WritePacket(mqtt.Disconnect{}, time.Second)
	c.conn.Close()
	<-c.done
}

// wsConsumer is one /ws connection holding several subscriptions; every
// event frame names the subscription it is for.
type wsConsumer struct {
	epoch time.Time
	rec   recorder
	conn  *wspush.Conn
	sids  map[string]uint16 // frozen before traffic
	done  chan struct{}
}

func dialWSConsumer(ctx context.Context, epoch time.Time, url string) (*wsConsumer, error) {
	conn, err := wspush.Dial(ctx, url)
	if err != nil {
		return nil, err
	}
	return &wsConsumer{epoch: epoch, conn: conn, sids: map[string]uint16{}, done: make(chan struct{})}, nil
}

// subscribe registers one subscription (topic "" = catch-all) and binds
// its sid to subscriber index sub. Only valid before start.
func (c *wsConsumer) subscribe(topic string, sub uint16) (string, error) {
	req, _ := json.Marshal(map[string]string{"action": "subscribe", "topic": topic})
	if err := c.conn.WriteMessage(wspush.OpText, req); err != nil {
		return "", err
	}
	_ = c.conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	defer c.conn.SetReadDeadline(time.Time{})
	for {
		op, payload, err := c.conn.ReadMessage()
		if err != nil {
			return "", err
		}
		if op != wspush.OpText {
			continue
		}
		var reply struct{ Action, SID, Error string }
		if err := json.Unmarshal(payload, &reply); err != nil {
			return "", err
		}
		if reply.Action != "subscribed" {
			return "", fmt.Errorf("wsbench: /ws subscribe %q: %s %s", topic, reply.Action, reply.Error)
		}
		c.sids[reply.SID] = sub
		return reply.SID, nil
	}
}

func (c *wsConsumer) start() { go c.readLoop() }

var sidKey = []byte(`"sid":"`)

func (c *wsConsumer) readLoop() {
	defer close(c.done)
	for {
		op, payload, err := c.conn.ReadMessage()
		if err != nil {
			return
		}
		at := int64(time.Since(c.epoch))
		if op == wspush.OpPing {
			// The broker drops a socket that stays silent through two of
			// its 15 s pings.
			_ = c.conn.WritePong(payload)
		}
		if op != wspush.OpText {
			continue
		}
		st, _, ok := nextStamp(payload, 0)
		i := bytes.Index(payload, sidKey)
		if !ok || i < 0 {
			c.rec.noStamp()
			continue
		}
		rest := payload[i+len(sidKey):]
		q := bytes.IndexByte(rest, '"')
		if q < 0 {
			c.rec.noStamp()
			continue
		}
		sub, known := c.sids[string(rest[:q])]
		if !known {
			c.rec.noStamp()
			continue
		}
		c.rec.add(receipt{at: at, due: st.due, seq: st.seq, sub: sub, pub: uint8(st.pub)}, payload, "")
	}
}

func (c *wsConsumer) close() {
	_ = c.conn.WriteClose(wspush.CloseNormal, "")
	_ = c.conn.Close()
	<-c.done
}
