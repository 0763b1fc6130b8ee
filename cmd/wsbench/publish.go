package main

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"time"

	"repro/internal/mqtt"
	"repro/internal/xmldom"
)

// form is one ready-to-send rendering of a message: the bytes with a
// blank stamp at off. Stamping a copy is all a publish costs the
// generator.
type form struct {
	body        []byte
	off         int
	contentType string
	topic       string // MQTT topic name; unused over HTTP
}

// newForm locates the single blank stamp in body.
func newForm(body []byte, contentType string) (form, error) {
	off := bytes.Index(body, []byte(stampBlank))
	if off < 0 || bytes.Contains(body[off+stampLen:], []byte(stampBlank)) {
		return form{}, fmt.Errorf("wsbench: rendered message must hold exactly one blank stamp")
	}
	return form{body: body, off: off, contentType: contentType}, nil
}

// message is one entry of a run's seeded message pool.
type message struct {
	topic   int             // index into the workload's topic list
	recv    []uint16        // subscribers that must receive it
	payload *xmldom.Element // as published, blank stamp included; nil for JSON payloads
	data    []byte          // JSON payload as published (session and CloudEvents workloads)
	forms   []form          // publish k goes out as forms[k % len(forms)]
}

// publisher is one publishing connection. send stamps and publishes
// message k of this publisher and returns once the broker acknowledged
// it (HTTP 2xx or PUBACK) — one outstanding publish per connection.
type publisher interface {
	send(f *form, k int, due time.Duration) error
	close()
}

// httpPublisher posts to one door over a single keep-alive connection.
type httpPublisher struct {
	pub     int
	url     string
	hc      *http.Client
	scratch []byte
}

func newHTTPPublisher(pub int, url string) *httpPublisher {
	return &httpPublisher{pub: pub, url: url, hc: &http.Client{
		Timeout:   10 * time.Second,
		Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1},
	}}
}

func (p *httpPublisher) send(f *form, k int, due time.Duration) error {
	p.scratch = append(p.scratch[:0], f.body...)
	putStamp(p.scratch[f.off:], p.pub, uint32(k), int64(due))
	req, err := http.NewRequest(http.MethodPost, p.url, bytes.NewReader(p.scratch))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", f.contentType)
	resp, err := p.hc.Do(req)
	if err != nil {
		return err
	}
	_, _ = io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode < 200 || resp.StatusCode > 299 {
		return fmt.Errorf("wsbench: publish refused: HTTP %d", resp.StatusCode)
	}
	return nil
}

func (p *httpPublisher) close() { p.hc.CloseIdleConnections() }

// mqttPublisher publishes at QoS 1 over one MQTT session.
type mqttPublisher struct {
	pub     int
	c       *mqtt.Client
	scratch []byte
}

func dialMQTTPublisher(pub int, addr string) (*mqttPublisher, error) {
	c, _, err := mqtt.Dial(addr, mqtt.ConnectOptions{ClientID: fmt.Sprintf("wsbench-pub-%d", pub), CleanSession: true})
	if err != nil {
		return nil, err
	}
	c.AckTimeout = 10 * time.Second
	return &mqttPublisher{pub: pub, c: c}, nil
}

func (p *mqttPublisher) send(f *form, k int, due time.Duration) error {
	p.scratch = append(p.scratch[:0], f.body...)
	putStamp(p.scratch[f.off:], p.pub, uint32(k), int64(due))
	return p.c.Publish(f.topic, p.scratch, 1, false)
}

func (p *mqttPublisher) close() { _ = p.c.Disconnect() }
