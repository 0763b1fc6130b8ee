package core

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"

	"repro/internal/mediation"
	"repro/internal/sublease"
	"repro/internal/wsa"
	"repro/internal/wse"
	"repro/internal/wsnt"
	"repro/internal/xmldom"
)

// Subscription persistence: a JSON snapshot of the broker's durable state
// (canonical subscriptions and their leases), so a restarted broker keeps
// honouring the subscription references its clients hold. In-flight
// delivery queues and pull queues are intentionally NOT persisted — they
// are transient, exactly like non-persistent messages in the JMS baseline.

type persistedEPR struct {
	Version int      `json:"version"`
	Address string   `json:"address"`
	Params  []string `json:"params,omitempty"` // marshalled identity parameters
}

func eprOut(e *wsa.EndpointReference) *persistedEPR {
	if e == nil {
		return nil
	}
	out := &persistedEPR{Version: int(e.Version), Address: e.Address}
	for _, p := range e.IdentityParameters() {
		out.Params = append(out.Params, xmldom.Marshal(p))
	}
	return out
}

func eprIn(p *persistedEPR) (*wsa.EndpointReference, error) {
	if p == nil {
		return nil, nil
	}
	e := wsa.NewEPR(wsa.Version(p.Version), p.Address)
	for _, raw := range p.Params {
		el, err := xmldom.ParseString(raw)
		if err != nil {
			return nil, fmt.Errorf("core: persisted EPR parameter: %w", err)
		}
		e.AddReferenceParameter(el)
	}
	return e, nil
}

type persistedSub struct {
	ID        string    `json:"id"`
	CreatedAt time.Time `json:"createdAt"`
	Expires   time.Time `json:"expires,omitempty"`
	Paused    bool      `json:"paused,omitempty"`

	Family int `json:"family"`
	WSE    int `json:"wse,omitempty"`
	WSN    int `json:"wsn,omitempty"`

	Consumer *persistedEPR `json:"consumer"`
	EndTo    *persistedEPR `json:"endTo,omitempty"`

	TopicExpr    string            `json:"topicExpr,omitempty"`
	TopicDialect string            `json:"topicDialect,omitempty"`
	TopicNS      map[string]string `json:"topicNS,omitempty"`

	ContentExpr    string            `json:"contentExpr,omitempty"`
	ContentDialect string            `json:"contentDialect,omitempty"`
	ContentNS      map[string]string `json:"contentNS,omitempty"`

	ProducerPropsExpr    string            `json:"producerPropsExpr,omitempty"`
	ProducerPropsDialect string            `json:"producerPropsDialect,omitempty"`
	ProducerPropsNS      map[string]string `json:"producerPropsNS,omitempty"`

	UseRaw   bool `json:"useRaw,omitempty"`
	PullMode bool `json:"pullMode,omitempty"`
	WrapMode bool `json:"wrapMode,omitempty"`
	// CEMode is the CloudEvents delivery content mode (FamilyCE only).
	CEMode string `json:"ceMode,omitempty"`
}

type persistedState struct {
	Format        int            `json:"format"`
	Subscriptions []persistedSub `json:"subscriptions"`
}

// SaveSubscriptions writes the durable subscription state as JSON.
func (b *Broker) SaveSubscriptions(w io.Writer) error {
	state := persistedState{Format: 1}
	for _, sn := range b.store.Active() {
		st, ok := sn.Data.(*subState)
		if !ok {
			continue
		}
		if st.session != nil {
			// Connection-bound (WebSocket) and session-bound (MQTT)
			// subscriptions cannot outlive the process; a restarted broker
			// could never deliver to them.
			continue
		}
		c := st.canon
		state.Subscriptions = append(state.Subscriptions, persistedSub{
			ID: sn.ID, CreatedAt: sn.CreatedAt, Expires: sn.Expires, Paused: sn.Paused,
			Family: int(c.Origin.Family), WSE: int(c.Origin.WSE), WSN: int(c.Origin.WSN),
			Consumer: eprOut(c.Consumer), EndTo: eprOut(c.EndTo),
			TopicExpr: c.TopicExpr, TopicDialect: c.TopicDialect, TopicNS: c.TopicNS,
			ContentExpr: c.ContentExpr, ContentDialect: c.ContentDialect, ContentNS: c.ContentNS,
			ProducerPropsExpr: c.ProducerPropsExpr, ProducerPropsDialect: c.ProducerPropsDialect,
			ProducerPropsNS: c.ProducerPropsNS,
			UseRaw:          c.UseRaw, PullMode: c.PullMode, WrapMode: c.WrapMode,
			CEMode: c.CEMode,
		})
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(state)
}

// SaveSubscriptionsFile writes the snapshot to path crash-safely: the JSON
// goes to a temp file in the same directory, is fsynced, then atomically
// renamed over path (and the directory fsynced so the rename itself is
// durable). A crash at any instant leaves either the old snapshot or the
// new one — never a truncated mix.
func (b *Broker) SaveSubscriptionsFile(path string) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, filepath.Base(path)+".tmp-*")
	if err != nil {
		return fmt.Errorf("core: snapshot: %w", err)
	}
	defer os.Remove(tmp.Name()) // no-op once the rename lands
	if err := b.SaveSubscriptions(tmp); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return fmt.Errorf("core: snapshot fsync: %w", err)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("core: snapshot close: %w", err)
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		return fmt.Errorf("core: snapshot rename: %w", err)
	}
	if d, err := os.Open(dir); err == nil {
		_ = d.Sync()
		d.Close()
	}
	return nil
}

// RestoreSubscriptions reloads a snapshot produced by SaveSubscriptions,
// recompiling every filter and re-creating the delivery machinery. It
// returns how many subscriptions were restored; a filter that no longer
// compiles aborts the restore with an error naming the subscription.
func (b *Broker) RestoreSubscriptions(r io.Reader) (int, error) {
	var state persistedState
	if err := json.NewDecoder(r).Decode(&state); err != nil {
		return 0, fmt.Errorf("core: restore: %w", err)
	}
	if state.Format != 1 {
		return 0, fmt.Errorf("core: restore: unsupported snapshot format %d", state.Format)
	}
	restored := 0
	for _, ps := range state.Subscriptions {
		if ps.ID == "" {
			return restored, fmt.Errorf("core: restore: subscription without an id")
		}
		consumer, err := eprIn(ps.Consumer)
		if err != nil {
			return restored, fmt.Errorf("core: restore %s: %w", ps.ID, err)
		}
		if consumer == nil {
			return restored, fmt.Errorf("core: restore %s: no consumer", ps.ID)
		}
		endTo, err := eprIn(ps.EndTo)
		if err != nil {
			return restored, fmt.Errorf("core: restore %s: %w", ps.ID, err)
		}
		canon := &mediation.Subscribe{
			Origin: mediation.Dialect{
				Family: mediation.Family(ps.Family),
				WSE:    wse.Version(ps.WSE),
				WSN:    wsnt.Version(ps.WSN),
			},
			Consumer: consumer, EndTo: endTo,
			TopicExpr: ps.TopicExpr, TopicDialect: ps.TopicDialect, TopicNS: ps.TopicNS,
			ContentExpr: ps.ContentExpr, ContentDialect: ps.ContentDialect, ContentNS: ps.ContentNS,
			ProducerPropsExpr: ps.ProducerPropsExpr, ProducerPropsDialect: ps.ProducerPropsDialect,
			ProducerPropsNS: ps.ProducerPropsNS,
			UseRaw:          ps.UseRaw, PullMode: ps.PullMode, WrapMode: ps.WrapMode,
			CEMode: ps.CEMode,
		}
		flt, err := canon.BuildFilter()
		if err != nil {
			return restored, fmt.Errorf("core: restore %s: filter: %w", ps.ID, err)
		}
		if _, err := b.newSubscription(&subState{canon: canon, flt: flt}, sublease.Snapshot{
			ID: ps.ID, CreatedAt: ps.CreatedAt, Expires: ps.Expires, Paused: ps.Paused,
		}); err != nil {
			return restored, err
		}
		restored++
	}
	return restored, nil
}
