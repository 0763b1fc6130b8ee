// Package sublease implements the soft-state subscription store shared by
// the WS-Eventing and WS-Notification subscription managers.
//
// The paper identifies soft-state subscription management — "the
// connections to event consumers do not always keep alive" (§VI
// observation 5) — as one of the key shifts from the CORBA-era systems to
// the WS-based ones. Both spec families express it the same way:
// subscriptions carry an expiration (absolute time or duration), can be
// renewed, and are scavenged when they lapse; WS-Notification additionally
// pauses and resumes them. One store serves both spec front-ends so
// mediation never has to reconcile two sources of truth.
package sublease

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"
)

// Common errors. The spec layers map these onto their fault vocabulary
// (e.g. WS-Eventing's InvalidMessage, WSRF's ResourceUnknownFault).
var (
	ErrNotFound = errors.New("sublease: no such subscription")
	ErrExpired  = errors.New("sublease: subscription expired")
	ErrPaused   = errors.New("sublease: subscription is paused")
)

// EndReason tells a termination observer why a lease ended.
type EndReason string

const (
	// EndExpired — the lease lapsed without renewal.
	EndExpired EndReason = "expired"
	// EndCancelled — explicit Unsubscribe/Destroy.
	EndCancelled EndReason = "cancelled"
	// EndSourceShutdown — the producer is terminating all subscriptions,
	// the case WS-Eventing's SubscriptionEnd message exists for.
	EndSourceShutdown EndReason = "source-shutting-down"
	// EndDeliveryFailure — the producer abandoned the subscription after
	// repeated delivery failures.
	EndDeliveryFailure EndReason = "delivery-failure"
)

// Lease is one stored subscription. Data carries the spec layer's payload
// (filters, delivery endpoint, format flags) and is opaque to the store.
type Lease struct {
	ID        string
	CreatedAt time.Time
	Expires   time.Time // zero means no expiry
	Paused    bool
	Data      any
}

// Snapshot is a copy of a lease's state at observation time.
type Snapshot struct {
	ID        string
	CreatedAt time.Time
	Expires   time.Time
	Paused    bool
	Data      any
}

// Store is a concurrency-safe lease table with an injectable clock.
type Store struct {
	mu     sync.Mutex
	clock  func() time.Time
	leases map[string]*Lease
	nextID uint64
	prefix string
	onEnd  func(Snapshot, EndReason)
}

// Option configures a Store.
type Option func(*Store)

// WithClock injects a time source, for deterministic tests.
func WithClock(clock func() time.Time) Option {
	return func(s *Store) { s.clock = clock }
}

// WithIDPrefix sets the prefix of generated subscription identifiers.
func WithIDPrefix(prefix string) Option {
	return func(s *Store) { s.prefix = prefix }
}

// WithEndObserver registers a callback invoked (outside the store lock)
// whenever a lease ends for any reason. The spec layers hook their
// SubscriptionEnd / TerminationNotification senders here.
func WithEndObserver(fn func(Snapshot, EndReason)) Option {
	return func(s *Store) { s.onEnd = fn }
}

// NewStore returns an empty store.
func NewStore(opts ...Option) *Store {
	s := &Store{
		clock:  time.Now,
		leases: map[string]*Lease{},
		prefix: "sub",
	}
	for _, o := range opts {
		o(s)
	}
	return s
}

// Restore re-inserts a lease with a caller-provided identity — the
// broker's persistence layer uses it to reload subscriptions after a
// restart, preserving the ids subscribers hold in their endpoint
// references. It fails on duplicate ids and keeps the id generator ahead
// of any restored numeric suffix.
func (s *Store) Restore(sn Snapshot) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, exists := s.leases[sn.ID]; exists {
		return fmt.Errorf("sublease: duplicate id %q", sn.ID)
	}
	s.leases[sn.ID] = &Lease{
		ID: sn.ID, CreatedAt: sn.CreatedAt, Expires: sn.Expires,
		Paused: sn.Paused, Data: sn.Data,
	}
	var suffix uint64
	if n, err := fmt.Sscanf(sn.ID, s.prefix+"-%d", &suffix); err == nil && n == 1 && suffix > s.nextID {
		s.nextID = suffix
	}
	return nil
}

// Grant settles a requested expiry (zero: none requested) against a
// server's lease policy at now: def is granted when nothing was requested
// and max caps every grant; a zero duration disables either rule.
func Grant(requested, now time.Time, def, max time.Duration) time.Time {
	t := requested
	if t.IsZero() && def > 0 {
		t = now.Add(def)
	}
	if !t.IsZero() && max > 0 {
		if limit := now.Add(max); t.After(limit) {
			t = limit
		}
	}
	return t
}

// Create registers a new lease. A zero expires means "never expires"
// (both specs allow the producer to grant indefinite subscriptions).
func (s *Store) Create(data any, expires time.Time) *Lease {
	return s.CreateFunc(func(string) any { return data }, expires)
}

// CreateFunc registers a new lease whose payload is built by factory from
// the assigned id, under the store lock — so a payload that needs its own
// id (delivery workers keyed by subscription id, ids embedded in delivery
// plans) is fully initialised before any snapshot can observe the lease.
func (s *Store) CreateFunc(factory func(id string) any, expires time.Time) *Lease {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.nextID++
	l := &Lease{
		ID:        fmt.Sprintf("%s-%d", s.prefix, s.nextID),
		CreatedAt: s.clock(),
		Expires:   expires,
	}
	l.Data = factory(l.ID)
	s.leases[l.ID] = l
	return l
}

// get returns the live lease or an error; caller holds the lock.
func (s *Store) get(id string) (*Lease, error) {
	l, ok := s.leases[id]
	if !ok {
		return nil, ErrNotFound
	}
	if s.lapsed(l) {
		return nil, ErrExpired
	}
	return l, nil
}

func (s *Store) lapsed(l *Lease) bool {
	return !l.Expires.IsZero() && !s.clock().Before(l.Expires)
}

// Get returns a snapshot of the lease (the GetStatus operation).
func (s *Store) Get(id string) (Snapshot, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	l, err := s.get(id)
	if err != nil {
		return Snapshot{}, err
	}
	return snap(l), nil
}

func snap(l *Lease) Snapshot {
	return Snapshot{ID: l.ID, CreatedAt: l.CreatedAt, Expires: l.Expires, Paused: l.Paused, Data: l.Data}
}

// Renew extends (or shortens) the expiry of a live lease and returns the
// granted expiry.
func (s *Store) Renew(id string, expires time.Time) (time.Time, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	l, err := s.get(id)
	if err != nil {
		return time.Time{}, err
	}
	l.Expires = expires
	return expires, nil
}

// Pause suspends delivery for the lease (WS-Notification only).
func (s *Store) Pause(id string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	l, err := s.get(id)
	if err != nil {
		return err
	}
	l.Paused = true
	return nil
}

// Resume re-enables delivery for the lease.
func (s *Store) Resume(id string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	l, err := s.get(id)
	if err != nil {
		return err
	}
	l.Paused = false
	return nil
}

// Cancel removes a lease. When reason is not EndCancelled the end observer
// fires, mirroring the specs: an explicit Unsubscribe is acknowledged
// in-band, while unexpected terminations generate SubscriptionEnd notices.
func (s *Store) Cancel(id string, reason EndReason) error {
	s.mu.Lock()
	l, ok := s.leases[id]
	if !ok {
		s.mu.Unlock()
		return ErrNotFound
	}
	delete(s.leases, id)
	sn := snap(l)
	onEnd := s.onEnd
	s.mu.Unlock()
	if reason != EndCancelled && onEnd != nil {
		onEnd(sn, reason)
	}
	return nil
}

// Active returns snapshots of every live, unexpired lease (paused included)
// in creation order — what the delivery fan-out iterates.
func (s *Store) Active() []Snapshot {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]Snapshot, 0, len(s.leases))
	for _, l := range s.leases {
		if !s.lapsed(l) {
			out = append(out, snap(l))
		}
	}
	sortByCreation(out)
	return out
}

func sortByCreation(out []Snapshot) {
	sort.SliceStable(out, func(i, j int) bool {
		if out[i].CreatedAt.Equal(out[j].CreatedAt) {
			return out[i].ID < out[j].ID
		}
		return out[i].CreatedAt.Before(out[j].CreatedAt)
	})
}

// Deliverable returns the live leases that are not paused — the actual
// notification targets.
func (s *Store) Deliverable() []Snapshot {
	all := s.Active()
	out := all[:0]
	for _, sn := range all {
		if !sn.Paused {
			out = append(out, sn)
		}
	}
	return out
}

// Len reports the number of stored leases, including lapsed ones awaiting
// scavenge.
func (s *Store) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.leases)
}

// Scavenge removes every lapsed lease, firing the end observer with
// EndExpired for each, and reports how many were removed.
func (s *Store) Scavenge() int {
	s.mu.Lock()
	var ended []Snapshot
	for id, l := range s.leases {
		if s.lapsed(l) {
			ended = append(ended, snap(l))
			delete(s.leases, id)
		}
	}
	onEnd := s.onEnd
	s.mu.Unlock()
	if onEnd != nil {
		sortByCreation(ended)
		for _, sn := range ended {
			onEnd(sn, EndExpired)
		}
	}
	return len(ended)
}

// Shutdown cancels every lease with EndSourceShutdown, the "event source
// terminates the subscription unexpectedly" path that produces
// SubscriptionEnd messages in WS-Eventing.
func (s *Store) Shutdown() int {
	s.mu.Lock()
	var ended []Snapshot
	for id, l := range s.leases {
		ended = append(ended, snap(l))
		delete(s.leases, id)
	}
	onEnd := s.onEnd
	s.mu.Unlock()
	if onEnd != nil {
		sortByCreation(ended)
		for _, sn := range ended {
			onEnd(sn, EndSourceShutdown)
		}
	}
	return len(ended)
}

// Run scavenges on the given interval until ctx is cancelled — the
// background soft-state reaper a long-running broker starts once.
func (s *Store) Run(ctx context.Context, interval time.Duration) {
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
			s.Scavenge()
		}
	}
}
