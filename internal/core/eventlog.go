package core

import (
	"bytes"
	"errors"
	"fmt"

	"repro/internal/dispatch"
	"repro/internal/eventlog"
	"repro/internal/mediation"
	"repro/internal/obs"
	"repro/internal/topics"
	"repro/internal/xmldom"
)

// The broker's durable event log. Every accepted publish is appended —
// and, under batch durability, fsynced — before Publish returns, so an
// acknowledged publish survives a crash. The log is the substrate for
// every catch-up path: dead-letter replay re-reads payloads by position,
// ReplayLog redelivers to a subscription from a cursor, the FetchNewer
// front-door operation serves remote cursors (pull points, recovering
// federation peers), and recovery-on-boot resumes positions where the
// previous process stopped.

// ErrNoLog is returned by log-backed operations on a broker configured
// without an event log.
var ErrNoLog = errors.New("core: broker has no event log")

// openLog builds the broker's event log per Config: no DataDir and no
// Durability means no log at all (the zero-cost default every pre-log
// deployment keeps); Durability alone opens a memory-only log (cursors
// without persistence); DataDir opens the durable log, batch-fsync unless
// told otherwise.
func (b *Broker) openLog() error {
	if b.cfg.DataDir == "" && b.cfg.Durability == "" {
		return nil
	}
	dur, err := eventlog.ParseDurability(b.cfg.Durability)
	if err != nil {
		return err
	}
	opts := eventlog.Options{
		Dir:            b.cfg.DataDir,
		Durability:     dur,
		SegmentBytes:   b.cfg.LogSegmentBytes,
		RetainSegments: b.cfg.LogRetainSegments,
		Clock:          b.cfg.Clock,
	}
	if rec := b.cfg.Obs; rec != nil {
		appendSec := rec.Registry().Histogram("wsm_log_append_seconds",
			"Durable event log append latency, fsync wait included.",
			nil, obs.L("component", rec.Component()))
		fsyncSec := rec.Registry().Histogram("wsm_log_fsync_seconds",
			"Durable event log fsync latency (one observation per group commit).",
			nil, obs.L("component", rec.Component()))
		opts.OnAppend = appendSec.Observe
		opts.OnFsync = fsyncSec.Observe
	}
	l, err := eventlog.Open(opts)
	if err != nil {
		return err
	}
	b.log = l
	if rec := b.cfg.Obs; rec != nil {
		comp := obs.L("component", rec.Component())
		reg := rec.Registry()
		reg.GaugeFunc("wsm_log_segments",
			"Durable event log segment count (active segment included).",
			func() float64 { return float64(l.Stats().Segments) }, comp)
		reg.GaugeFunc("wsm_log_bytes",
			"Durable event log retained size in bytes.",
			func() float64 { return float64(l.Stats().Bytes) }, comp)
		reg.GaugeFunc("wsm_log_head_pos",
			"Durable event log head position (last assigned LogPos).",
			func() float64 { return float64(l.Head()) }, comp)
		reg.CounterFunc("wsm_log_appends_total",
			"Durable event log appends.",
			func() uint64 { return l.Stats().Appends }, comp)
		reg.CounterFunc("wsm_log_fsyncs_total",
			"Durable event log fsyncs (group commits, async flushes and segment seals).",
			func() uint64 { return l.Stats().Fsyncs }, comp)
	}
	return nil
}

// Log exposes the broker's event log (nil when the broker runs without
// one) for shared-log consumers like the pull-point service.
func (b *Broker) Log() *eventlog.Log { return b.log }

// LogHead returns the last assigned log position (0 without a log or
// before the first publish).
func (b *Broker) LogHead() uint64 {
	if b.log == nil {
		return 0
	}
	return b.log.Head()
}

// appendToLog writes one accepted publish into the event log and returns
// its position. Under batch durability this blocks until the record is
// fsynced — the durable-ack contract: a publish error means "not
// accepted", a nil error means "survives kill -9".
func (b *Broker) appendToLog(topic topics.Path, payload *xmldom.Element, origin string, relay *mediation.Relay) (uint64, error) {
	rec := eventlog.Record{Src: origin}
	if !topic.IsZero() {
		rec.Topic = topic.String()
	}
	if relay != nil {
		rec.Origin = relay.Origin
		rec.RelayID = relay.ID
		rec.Hops = relay.Hops
		rec.OriginPos = relay.Pos
	}
	rec.Body = xmldom.AppendMarshal(nil, payload)
	pos, err := b.log.Append(rec)
	if err != nil {
		return 0, fmt.Errorf("core: event log append: %w", err)
	}
	return pos, nil
}

// entryMessage rebuilds the dispatch message a logged entry was fanned out
// as. ok is false when the stored body no longer parses (it was CRC-valid,
// so this indicates an encoding bug, not corruption — but replay must
// degrade, not panic).
func (b *Broker) entryMessage(e eventlog.Entry) (dispatch.Message, bool) {
	payload, err := xmldom.Parse(bytes.NewReader(e.Body))
	if err != nil {
		return dispatch.Message{}, false
	}
	var topic topics.Path
	if e.Topic != "" {
		if topic, err = topics.ParseClark(e.Topic); err != nil {
			return dispatch.Message{}, false
		}
	}
	var relay *mediation.Relay
	if e.Origin != "" {
		relay = &mediation.Relay{Origin: e.Origin, ID: e.RelayID, Hops: e.Hops, Pos: originPos(e)}
	}
	return dispatch.Message{
		Topic:   topic,
		Pos:     e.Pos,
		Payload: fanMsg{payload: payload, origin: e.Src, relay: relay},
	}, true
}

// originPos resolves an entry's position in its origin broker's log: the
// wire-carried OriginPos for relayed entries, the entry's own position for
// locally originated ones (whose record predates its position — the
// position is assigned by the very append that stores it).
func originPos(e eventlog.Entry) uint64 {
	if e.OriginPos != 0 {
		return e.OriginPos
	}
	return e.Pos
}

// fetchLogged is the dispatch engine's DLQFetch hook: re-read a
// dead-lettered message's payload from the log by position, so dead
// letters hold coordinates instead of payload copies.
func (b *Broker) fetchLogged(pos uint64) (dispatch.Message, bool) {
	e, ok := b.log.Get(pos)
	if !ok || e.Key != "" {
		return dispatch.Message{}, false
	}
	return b.entryMessage(e)
}

// ReplayLog redelivers logged publishes with positions after the cursor to
// one subscription, applying the subscription's filter, up to max entries
// scanned per call (<= 0 scans everything). It returns how many messages
// were injected and the next cursor to resume from — the cursor-replay
// primitive behind crash recovery: restore subscriptions from a snapshot,
// then ReplayLog each from its last acknowledged cursor.
func (b *Broker) ReplayLog(subID string, after uint64, max int) (n int, next uint64, err error) {
	if b.log == nil {
		return 0, after, ErrNoLog
	}
	sn, err := b.store.Get(subID)
	if err != nil {
		return 0, after, err
	}
	st, _ := sn.Data.(*subState)
	var msgs []dispatch.Message
	entries, next, _ := b.log.ReadAfterFunc(after, max, func(e eventlog.Entry) bool {
		return e.Key == "" // broker publishes only; keyed records belong to pull points
	})
	for _, e := range entries {
		m, ok := b.entryMessage(e)
		if !ok {
			continue
		}
		if st != nil {
			if ok, err := b.accepts(st, m); err != nil || !ok {
				continue
			}
		}
		msgs = append(msgs, m)
	}
	n, err = b.engine.Inject(subID, msgs)
	return n, next, err
}

// CloseLog fsyncs and closes the event log (idempotent; no-op without
// one). Shutdown calls it; embedders that keep the broker but want the log
// released may call it directly.
func (b *Broker) CloseLog() error {
	if b.log == nil {
		return nil
	}
	return b.log.Close()
}
