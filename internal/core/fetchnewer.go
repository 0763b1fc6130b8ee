package core

import (
	"context"
	"strconv"
	"strings"

	"repro/internal/eventlog"
	"repro/internal/mediation"
	"repro/internal/soap"
	"repro/internal/topics"
	"repro/internal/transport"
	"repro/internal/wsa"
	"repro/internal/xmldom"
)

// FetchNewer is the log's cursor operation on the broker's front door:
// "give me every publish newer than cursor X", the pull-is-fundamental
// primitive remote consumers re-sync with. Two cursor spaces exist:
//
//   - no Origin: the cursor is a position in THIS broker's log; the reply
//     pages local entries in position order.
//   - Origin set: the cursor is a position in the ORIGIN broker's log; the
//     reply pages this broker's retained entries that originated there,
//     ordered by origin position. This is what a recovering federation
//     peer uses — it knows its per-origin high water marks, not its
//     neighbours' local numbering.
//
// The operation lives in the broker's own namespace (it extends both spec
// families rather than belonging to either), and the front door intercepts
// it before the raw-publish fallback.

// WSMNS is the broker's extension namespace.
const WSMNS = "urn:ws-messenger"

func init() { xmldom.RegisterPrefix(WSMNS, "wsm") }

var fetchNewerName = xmldom.N(WSMNS, "FetchNewer")

// DefaultFetchPage caps how many entries one FetchNewer reply carries when
// the request does not say (bounded catch-up: a cursor far behind pages,
// never floods).
const DefaultFetchPage = 256

// LogEntry is one FetchNewer result on the client side.
type LogEntry struct {
	// Pos is the entry's position in the serving broker's log.
	Pos uint64
	// Topic is the publish's topic (zero when it had none).
	Topic topics.Path
	// Relay is the entry's federation provenance; for entries that
	// originated at the serving broker it carries that broker's identity
	// and the entry's own position. Nil for unfederated brokers.
	Relay *mediation.Relay
	// Payload is the published notification body.
	Payload *xmldom.Element
}

func (b *Broker) handleFetchNewer(env *soap.Envelope, body *xmldom.Element) (*soap.Envelope, error) {
	done := b.opDone("FetchNewer")
	defer func() { done("wsm") }()
	if b.log == nil {
		return nil, soap.Faultf(soap.FaultSender, "ws-messenger: this broker keeps no event log")
	}
	origin := strings.TrimSpace(body.ChildText(xmldom.N(WSMNS, "Origin")))
	var cursor uint64
	if c := strings.TrimSpace(body.ChildText(xmldom.N(WSMNS, "Cursor"))); c != "" {
		n, err := strconv.ParseUint(c, 10, 64)
		if err != nil {
			return nil, soap.Faultf(soap.FaultSender, "ws-messenger: bad Cursor %q", c)
		}
		cursor = n
	}
	max := DefaultFetchPage
	if m := strings.TrimSpace(body.ChildText(xmldom.N(WSMNS, "MaxEntries"))); m != "" {
		n, err := strconv.Atoi(m)
		if err != nil || n < 0 {
			return nil, soap.Faultf(soap.FaultSender, "ws-messenger: bad MaxEntries %q", m)
		}
		if n > 0 && n < max {
			max = n
		}
	}

	var entries []eventlog.Entry
	var next uint64
	var gap uint64
	if origin == "" {
		entries, next, gap = b.log.ReadAfterFunc(cursor, max, func(e eventlog.Entry) bool {
			return e.Key == ""
		})
	} else {
		// Origin-space cursor: scan the retained window for entries from
		// that origin past the cursor. Origin positions arrive in order
		// over a peer link, so local order preserves origin order.
		next = cursor
		entries, _, _ = b.log.ReadAfterFunc(0, max, func(e eventlog.Entry) bool {
			return e.Key == "" && entryOrigin(e, b.cfg.BrokerID) == origin && originPos(e) > cursor
		})
		if n := len(entries); n > 0 {
			next = originPos(entries[n-1])
		}
	}

	resp := xmldom.NewElement(xmldom.N(WSMNS, "FetchNewerResponse"))
	for _, e := range entries {
		resp.Append(b.renderLogEntry(e))
	}
	resp.Append(xmldom.Elem(WSMNS, "Cursor", strconv.FormatUint(next, 10)))
	if gap > 0 {
		// The cursor predates the retained window: gap positions were
		// compacted away and can never be served. Clients surface this as
		// "missed events", exactly like a pull point's drop counter.
		resp.Append(xmldom.Elem(WSMNS, "Gap", strconv.FormatUint(gap, 10)))
	}
	return wsa.Reply(wsa.V200508, WSMNS+"/FetchNewerResponse", env, resp, b.nextMessageID), nil
}

// entryOrigin resolves which broker an entry originated at: its recorded
// relay origin, or the serving broker itself for unrelayed entries.
func entryOrigin(e eventlog.Entry, selfID string) string {
	if e.Origin != "" {
		return e.Origin
	}
	return selfID
}

func (b *Broker) renderLogEntry(e eventlog.Entry) *xmldom.Element {
	el := xmldom.NewElement(xmldom.N(WSMNS, "Entry"))
	el.SetAttr(xmldom.N("", "pos"), strconv.FormatUint(e.Pos, 10))
	if e.Topic != "" {
		el.Append(xmldom.Elem(WSMNS, "Topic", e.Topic))
	}
	if origin := entryOrigin(e, b.cfg.BrokerID); origin != "" {
		r := mediation.Relay{Origin: origin, ID: e.RelayID, Hops: e.Hops, Pos: originPos(e)}
		if r.ID == "" {
			// Pre-federation local entries have no message id; synthesise a
			// stable one from the position so peers can still dedup.
			r.ID = "urn:wsm-pos-" + strconv.FormatUint(e.Pos, 10)
		}
		el.Append(r.Element())
	}
	if payload, err := xmldom.ParseString(string(e.Body)); err == nil {
		el.Append(xmldom.Elem(WSMNS, "Payload", payload))
	}
	return el
}

// FetchNewer asks a broker for log entries newer than cursor. origin == ""
// pages the remote broker's own log positions; otherwise the cursor and
// returned next are positions in the named origin broker's log. gap > 0
// reports positions compacted away before they could be served.
func FetchNewer(ctx context.Context, client transport.Client, addr, origin string, cursor uint64, max int) (entries []LogEntry, next uint64, gap uint64, err error) {
	env := soap.New(soap.V11)
	h := &wsa.MessageHeaders{Version: wsa.V200508, To: addr, Action: WSMNS + "/FetchNewer"}
	h.Apply(env)
	req := xmldom.NewElement(fetchNewerName)
	if origin != "" {
		req.Append(xmldom.Elem(WSMNS, "Origin", origin))
	}
	req.Append(xmldom.Elem(WSMNS, "Cursor", strconv.FormatUint(cursor, 10)))
	if max > 0 {
		req.Append(xmldom.Elem(WSMNS, "MaxEntries", strconv.Itoa(max)))
	}
	env.AddBody(req)
	resp, err := client.Call(ctx, addr, env)
	if err != nil {
		return nil, cursor, 0, err
	}
	body := resp.FirstBody()
	if body == nil || body.Name != xmldom.N(WSMNS, "FetchNewerResponse") {
		return nil, cursor, 0, soap.Faultf(soap.FaultReceiver, "ws-messenger: unexpected FetchNewer reply")
	}
	next = cursor
	for _, child := range body.ChildElements() {
		switch child.Name {
		case xmldom.N(WSMNS, "Cursor"):
			if n, perr := strconv.ParseUint(strings.TrimSpace(child.Text()), 10, 64); perr == nil {
				next = n
			}
		case xmldom.N(WSMNS, "Gap"):
			if n, perr := strconv.ParseUint(strings.TrimSpace(child.Text()), 10, 64); perr == nil {
				gap = n
			}
		case xmldom.N(WSMNS, "Entry"):
			le := LogEntry{}
			if p, perr := strconv.ParseUint(child.AttrValue(xmldom.N("", "pos")), 10, 64); perr == nil {
				le.Pos = p
			}
			if ts := child.ChildText(xmldom.N(WSMNS, "Topic")); ts != "" {
				if tp, perr := topics.ParseClark(ts); perr == nil {
					le.Topic = tp
				}
			}
			if rel := child.Child(mediation.RelayHeaderName); rel != nil {
				if r, perr := mediation.ParseRelayElement(rel); perr == nil {
					le.Relay = r
				}
			}
			if pl := child.Child(xmldom.N(WSMNS, "Payload")); pl != nil {
				if els := pl.ChildElements(); len(els) > 0 {
					le.Payload = els[0]
				}
			}
			if le.Payload != nil {
				entries = append(entries, le)
			}
		}
	}
	return entries, next, gap, nil
}
