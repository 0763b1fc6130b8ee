package dispatch

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/topics"
)

const testNS = "urn:dispatch-test"

func path(segs ...string) topics.Path {
	return topics.Path{Namespace: testNS, Segments: segs}
}

func mustExpr(t *testing.T, dialect, s string) *topics.Expression {
	t.Helper()
	e, err := topics.ParseExpression(dialect, s, map[string]string{"t": testNS})
	if err != nil {
		t.Fatalf("parse %q: %v", s, err)
	}
	return e
}

func checkStats(t *testing.T, e *Engine, want Stats) {
	t.Helper()
	if got := e.Stats(); got != want {
		t.Fatalf("stats = %+v, want %+v", got, want)
	}
}

func TestSyncDeliveryAndStats(t *testing.T) {
	e := New(Config{})
	var got []int
	if err := e.Subscribe(Sub{
		ID:   "a",
		Mode: Sync,
		Deliver: func(batch []Message) error {
			got = append(got, batch[0].Payload.(int))
			return nil
		},
	}); err != nil {
		t.Fatal(err)
	}
	if n := e.Dispatch(Message{Payload: 1}); n != 1 {
		t.Fatalf("matched %d, want 1", n)
	}
	e.Dispatch(Message{Payload: 2})
	if len(got) != 2 || got[0] != 1 || got[1] != 2 {
		t.Fatalf("delivered %v", got)
	}
	checkStats(t, e, Stats{Published: 2, Matched: 2, Delivered: 2})
}

func TestDuplicateAndUnknown(t *testing.T) {
	e := New(Config{})
	sub := Sub{ID: "a", Mode: Sync, Deliver: func([]Message) error { return nil }}
	if err := e.Subscribe(sub); err != nil {
		t.Fatal(err)
	}
	if err := e.Subscribe(sub); !errors.Is(err, ErrDuplicateSub) {
		t.Fatalf("duplicate subscribe: %v", err)
	}
	if !e.Unsubscribe("a") {
		t.Fatal("unsubscribe known id returned false")
	}
	if e.Unsubscribe("a") {
		t.Fatal("unsubscribe unknown id returned true")
	}
	if _, err := e.Pull("a", 1); !errors.Is(err, ErrUnknownSub) {
		t.Fatalf("pull unknown: %v", err)
	}
}

func TestFilterAndPrepare(t *testing.T) {
	e := New(Config{})
	var got []int
	e.Subscribe(Sub{
		ID:      "even",
		Mode:    Sync,
		Filter:  func(m Message) (bool, error) { return m.Payload.(int)%2 == 0, nil },
		Prepare: func(m Message) Message { return Message{Payload: m.Payload.(int) * 10} },
		Deliver: func(batch []Message) error {
			got = append(got, batch[0].Payload.(int))
			return nil
		},
	})
	e.Subscribe(Sub{
		ID:     "err",
		Mode:   Sync,
		Filter: func(Message) (bool, error) { return true, errors.New("boom") },
		Deliver: func([]Message) error {
			t.Fatal("filter error must count as mismatch")
			return nil
		},
	})
	for i := 1; i <= 4; i++ {
		e.Dispatch(Message{Payload: i})
	}
	if len(got) != 2 || got[0] != 20 || got[1] != 40 {
		t.Fatalf("got %v", got)
	}
	checkStats(t, e, Stats{Published: 4, Matched: 2, Delivered: 2})
}

func TestQueuedDeliveryOrderAndOverflow(t *testing.T) {
	e := New(Config{})
	block := make(chan struct{})
	var mu sync.Mutex
	var got []int
	started := make(chan struct{})
	var once sync.Once
	e.Subscribe(Sub{
		ID:       "q",
		Mode:     Queued,
		QueueCap: 2,
		Overflow: DropNewest,
		Deliver: func(batch []Message) error {
			once.Do(func() { close(started) })
			<-block
			mu.Lock()
			got = append(got, batch[0].Payload.(int))
			mu.Unlock()
			return nil
		},
	})
	e.Dispatch(Message{Payload: 1})
	<-started // worker holds message 1; ring is empty
	e.Dispatch(Message{Payload: 2})
	e.Dispatch(Message{Payload: 3})
	e.Dispatch(Message{Payload: 4}) // ring full (2,3): dropped
	e.Dispatch(Message{Payload: 5}) // dropped
	close(block)
	e.Quiesce()
	mu.Lock()
	defer mu.Unlock()
	if len(got) != 3 || got[0] != 1 || got[1] != 2 || got[2] != 3 {
		t.Fatalf("got %v, want [1 2 3]", got)
	}
	checkStats(t, e, Stats{Published: 5, Matched: 5, Delivered: 3, Dropped: 2})
}

func TestUnsubscribeDrainsQueued(t *testing.T) {
	e := New(Config{})
	block := make(chan struct{})
	started := make(chan struct{})
	var once sync.Once
	var delivered atomic.Uint64
	e.Subscribe(Sub{
		ID:   "q",
		Mode: Queued,
		Deliver: func([]Message) error {
			once.Do(func() { close(started) })
			<-block
			delivered.Add(1)
			return nil
		},
	})
	e.Dispatch(Message{Payload: 1})
	<-started
	e.Dispatch(Message{Payload: 2})
	e.Dispatch(Message{Payload: 3})
	e.Unsubscribe("q") // 2 and 3 still queued: dropped
	close(block)
	e.Quiesce() // must not hang on the un-attempted wg entries
	s := e.Stats()
	if s.Dropped != 2 {
		t.Fatalf("dropped=%d want 2", s.Dropped)
	}
	if s.Matched != s.Delivered+s.Dropped+s.Failed {
		t.Fatalf("invariant broken: %+v", s)
	}
}

func TestPullFIFOAndEdit(t *testing.T) {
	e := New(Config{})
	e.Subscribe(Sub{ID: "p", Mode: Pull})
	for i := 1; i <= 5; i++ {
		e.Dispatch(Message{Topic: path("a"), Payload: i})
	}
	first, err := e.Pull("p", 2)
	if err != nil || len(first) != 2 || first[0].Payload.(int) != 1 || first[1].Payload.(int) != 2 {
		t.Fatalf("pull 2: %v %v", first, err)
	}
	// Discard 3, take 5, keep 4.
	taken, err := e.PullEdit("p", func(ms []Message) []PullDecision {
		ds := make([]PullDecision, len(ms))
		for i, m := range ms {
			switch m.Payload.(int) {
			case 3:
				ds[i] = Discard
			case 5:
				ds[i] = Take
			}
		}
		return ds
	})
	if err != nil || len(taken) != 1 || taken[0].Payload.(int) != 5 {
		t.Fatalf("pull-edit: %v %v", taken, err)
	}
	if n := e.QueueLen("p"); n != 1 {
		t.Fatalf("queue len %d, want 1 (kept)", n)
	}
	rest, _ := e.Pull("p", 0)
	if len(rest) != 1 || rest[0].Payload.(int) != 4 {
		t.Fatalf("rest: %v", rest)
	}
	checkStats(t, e, Stats{Published: 5, Matched: 5, Delivered: 4, Dropped: 1})
}

func TestPullOverflowDropOldest(t *testing.T) {
	e := New(Config{})
	drops := 0
	e.Subscribe(Sub{ID: "p", Mode: Pull, QueueCap: 3, Overflow: DropOldest,
		OnDrop: func(n int) { drops += n }})
	for i := 1; i <= 5; i++ {
		e.Dispatch(Message{Payload: i})
	}
	got, _ := e.Pull("p", 0)
	if len(got) != 3 || got[0].Payload.(int) != 3 || got[2].Payload.(int) != 5 {
		t.Fatalf("survivors: %v", got)
	}
	if drops != 2 {
		t.Fatalf("OnDrop total %d, want 2", drops)
	}
	checkStats(t, e, Stats{Published: 5, Matched: 5, Delivered: 3, Dropped: 2})
}

func TestPullOnNonPullSubIsNoop(t *testing.T) {
	e := New(Config{})
	e.Subscribe(Sub{ID: "s", Mode: Sync, Deliver: func([]Message) error { return nil }})
	got, err := e.Pull("s", 0)
	if err != nil || got != nil {
		t.Fatalf("pull on sync sub: %v %v", got, err)
	}
}

func TestSyncBatchingAndFlush(t *testing.T) {
	e := New(Config{})
	var batches [][]int
	e.Subscribe(Sub{
		ID: "b", Mode: Sync, Batch: 3,
		Deliver: func(batch []Message) error {
			b := make([]int, len(batch))
			for i, m := range batch {
				b[i] = m.Payload.(int)
			}
			batches = append(batches, b)
			return nil
		},
	})
	for i := 1; i <= 7; i++ {
		e.Dispatch(Message{Payload: i})
	}
	if len(batches) != 2 || len(batches[0]) != 3 || len(batches[1]) != 3 {
		t.Fatalf("full batches: %v", batches)
	}
	e.FlushBatches()
	if len(batches) != 3 || len(batches[2]) != 1 || batches[2][0] != 7 {
		t.Fatalf("flush: %v", batches)
	}
	checkStats(t, e, Stats{Published: 7, Matched: 7, Delivered: 7})
}

func TestPauseSkipsWithoutBuffer(t *testing.T) {
	e := New(Config{})
	var n int
	e.Subscribe(Sub{ID: "s", Mode: Sync,
		Deliver: func([]Message) error { n++; return nil }})
	e.Pause("s")
	e.Dispatch(Message{Payload: 1})
	e.Dispatch(Message{Payload: 2})
	e.Resume("s")
	e.Dispatch(Message{Payload: 3})
	if n != 1 {
		t.Fatalf("delivered %d, want 1 (paused messages skipped, not buffered)", n)
	}
	// Skipped messages are not even matched.
	checkStats(t, e, Stats{Published: 3, Matched: 1, Delivered: 1})
}

func TestPauseBufferFlushesOnResume(t *testing.T) {
	e := New(Config{})
	var got []int
	drops := 0
	e.Subscribe(Sub{
		ID: "s", Mode: Sync, PauseBuffer: true, QueueCap: 2, Overflow: DropOldest,
		OnDrop:  func(n int) { drops += n },
		Deliver: func(batch []Message) error { got = append(got, batch[0].Payload.(int)); return nil },
	})
	e.Pause("s")
	for i := 1; i <= 3; i++ { // 1 evicted by 3
		e.Dispatch(Message{Payload: i})
	}
	if len(got) != 0 {
		t.Fatalf("delivered while paused: %v", got)
	}
	e.Resume("s")
	if len(got) != 2 || got[0] != 2 || got[1] != 3 {
		t.Fatalf("resume flush: %v", got)
	}
	if drops != 1 {
		t.Fatalf("drops=%d want 1", drops)
	}
	checkStats(t, e, Stats{Published: 3, Matched: 3, Delivered: 2, Dropped: 1})
}

func TestFailureEviction(t *testing.T) {
	e := New(Config{FailureLimit: 3})
	evicted := make(chan string, 1)
	e.Subscribe(Sub{
		ID: "bad", Mode: Sync,
		Deliver: func([]Message) error { return errors.New("down") },
		OnEvict: func(id string) { evicted <- id },
	})
	for i := 0; i < 3; i++ {
		e.Dispatch(Message{Payload: i})
	}
	select {
	case id := <-evicted:
		if id != "bad" {
			t.Fatalf("evicted %q", id)
		}
	default:
		t.Fatal("no eviction after limit failures")
	}
	if e.Count() != 0 {
		t.Fatalf("count=%d after eviction", e.Count())
	}
	// A successful delivery resets the streak.
	n := 0
	e.Subscribe(Sub{
		ID: "flaky", Mode: Sync, FailureLimit: 3,
		Deliver: func([]Message) error {
			n++
			if n%3 == 0 {
				return nil
			}
			return errors.New("down")
		},
	})
	for i := 0; i < 12; i++ {
		e.Dispatch(Message{Payload: i})
	}
	if e.Count() != 1 {
		t.Fatal("flaky subscriber with resets must survive")
	}
	s := e.Stats()
	if s.Matched != s.Delivered+s.Dropped+s.Failed {
		t.Fatalf("invariant broken: %+v", s)
	}
}

func TestDeadlineExpiry(t *testing.T) {
	now := time.Unix(1000, 0)
	e := New(Config{Clock: func() time.Time { return now }})
	var n int
	e.Subscribe(Sub{
		ID: "s", Mode: Sync, Deadline: now.Add(time.Minute),
		Deliver: func([]Message) error { n++; return nil },
	})
	e.Dispatch(Message{Payload: 1})
	now = now.Add(2 * time.Minute)
	e.Dispatch(Message{Payload: 2}) // lapsed: skipped pre-filter
	if n != 1 {
		t.Fatalf("delivered %d, want 1", n)
	}
	e.SetDeadline("s", now.Add(time.Hour)) // renewal
	e.Dispatch(Message{Payload: 3})
	if n != 2 {
		t.Fatalf("delivered %d after renew, want 2", n)
	}
	e.SetDeadline("s", time.Time{}) // clear: never expires
	now = now.Add(1000 * time.Hour)
	e.Dispatch(Message{Payload: 4})
	if n != 3 {
		t.Fatalf("delivered %d after clear, want 3", n)
	}
}

// TestCandidatesMatchBruteForce proves the topic index yields exactly the
// subscribers a brute-force scan of the index predicate would: exact
// subscribers for their topic only, prefix subscribers for the subtree,
// residual subscribers for everything — and, superset-safety, every
// subscriber whose full expression matches a topic is always a candidate.
func TestCandidatesMatchBruteForce(t *testing.T) {
	subs := []struct {
		id   string
		expr string
		dial string
	}{
		{"exact-a", "t:a", topics.DialectConcrete},
		{"exact-ab", "t:a/b", topics.DialectConcrete},
		{"exact-dot", "t:a/b/.", topics.DialectFull},
		{"prefix-a", "t:a//.", topics.DialectFull},
		{"prefix-ab", "t:a/b//.", topics.DialectFull},
		{"prefix-wild", "t:a/*", topics.DialectFull},
		{"residual-wild", "*", topics.DialectFull},
		{"residual-deep", "//b", topics.DialectFull},
		{"residual-all", "", ""}, // MatchAll, no expression
	}
	e := New(Config{Shards: 4})
	exprs := map[string]*topics.Expression{}
	for _, s := range subs {
		var sel Selector
		if s.expr != "" {
			ex := mustExpr(t, s.dial, s.expr)
			exprs[s.id] = ex
			sel = ForExpression(ex)
		}
		if err := e.Subscribe(Sub{ID: s.id, Selector: sel, Mode: Sync,
			Deliver: func([]Message) error { return nil }}); err != nil {
			t.Fatal(err)
		}
	}

	cases := []struct {
		topic topics.Path
		want  []string // expected candidate set, registration order
	}{
		// prefix-wild ("a/*") is indexed under prefix "a": the index may
		// over-approximate (its filter rejects topic "a" itself).
		{path("a"), []string{"exact-a", "prefix-a", "prefix-wild", "residual-wild", "residual-deep", "residual-all"}},
		{path("a", "b"), []string{"exact-ab", "exact-dot", "prefix-a", "prefix-ab", "prefix-wild", "residual-wild", "residual-deep", "residual-all"}},
		{path("a", "b", "c"), []string{"prefix-a", "prefix-ab", "prefix-wild", "residual-wild", "residual-deep", "residual-all"}},
		{path("a", "c"), []string{"prefix-a", "prefix-wild", "residual-wild", "residual-deep", "residual-all"}},
		{path("z"), []string{"residual-wild", "residual-deep", "residual-all"}},
		{topics.Path{Namespace: "urn:other", Segments: []string{"a"}}, []string{"residual-wild", "residual-deep", "residual-all"}},
		{topics.Path{}, []string{"residual-wild", "residual-deep", "residual-all"}}, // no topic: residual only
	}
	for _, tc := range cases {
		got := e.Candidates(tc.topic)
		if fmt.Sprint(got) != fmt.Sprint(tc.want) {
			t.Errorf("Candidates(%v) = %v, want %v", tc.topic, got, tc.want)
		}
		// Superset safety: every sub whose expression matches must be a
		// candidate.
		inSet := map[string]bool{}
		for _, id := range got {
			inSet[id] = true
		}
		for id, ex := range exprs {
			if !tc.topic.IsZero() && ex.Matches(tc.topic) && !inSet[id] {
				t.Errorf("index excluded %q although %q matches %v", id, ex.Raw(), tc.topic)
			}
		}
	}
}

func TestIndexPrefixClassification(t *testing.T) {
	cases := []struct {
		dial, expr string
		wantKey    string
		wantExact  bool
		wantOK     bool
	}{
		{topics.DialectConcrete, "t:a", "{" + testNS + "}a", true, true},
		{topics.DialectConcrete, "t:a/b", "{" + testNS + "}a/b", true, true},
		{topics.DialectFull, "t:a/b/.", "{" + testNS + "}a/b", true, true},
		{topics.DialectFull, "t:a//.", "{" + testNS + "}a", false, true},
		{topics.DialectFull, "t:a/*", "{" + testNS + "}a", false, true},
		{topics.DialectFull, "t:a//b", "{" + testNS + "}a", false, true},
		{topics.DialectFull, "*", "", false, false},
		{topics.DialectFull, "//b", "", false, false},
	}
	for _, tc := range cases {
		ex := mustExpr(t, tc.dial, tc.expr)
		p, exact, ok := ex.IndexPrefix()
		if ok != tc.wantOK {
			t.Errorf("%q: ok=%v want %v", tc.expr, ok, tc.wantOK)
			continue
		}
		if !ok {
			continue
		}
		if p.String() != tc.wantKey || exact != tc.wantExact {
			t.Errorf("%q: key=%q exact=%v, want key=%q exact=%v",
				tc.expr, p.String(), exact, tc.wantKey, tc.wantExact)
		}
	}
}

// TestConcurrentStress runs publishers against subscribe/unsubscribe
// churners that constantly mutate the topic index, under -race.
func TestConcurrentStress(t *testing.T) {
	e := New(Config{Shards: 8})
	defer e.Close()

	paths := []topics.Path{
		path("a"), path("a", "b"), path("a", "b", "c"), path("x"), path("x", "y"),
	}
	selectors := []Selector{
		MatchAll(),
		ExactTopic(path("a")),
		ExactTopic(path("a", "b")),
		TopicPrefix(path("a")),
		TopicPrefix(path("x")),
	}

	const (
		publishers = 4
		churners   = 4
		perPub     = 300
		perChurn   = 200
		stableSubs = 8
	)
	var received atomic.Uint64
	for i := 0; i < stableSubs; i++ {
		mode := Sync
		if i%2 == 0 {
			mode = Queued
		}
		if err := e.Subscribe(Sub{
			ID:       fmt.Sprintf("stable-%d", i),
			Selector: selectors[i%len(selectors)],
			Mode:     mode,
			Deliver:  func([]Message) error { received.Add(1); return nil },
		}); err != nil {
			t.Fatal(err)
		}
	}

	var wg sync.WaitGroup
	for p := 0; p < publishers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for i := 0; i < perPub; i++ {
				e.Dispatch(Message{Topic: paths[(p+i)%len(paths)], Payload: i})
			}
		}(p)
	}
	for c := 0; c < churners; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < perChurn; i++ {
				id := fmt.Sprintf("churn-%d-%d", c, i)
				mode := Mode(i % 3) // Sync, Queued, Pull
				sub := Sub{
					ID:       id,
					Selector: selectors[(c+i)%len(selectors)],
					Mode:     mode,
					QueueCap: 4,
					Overflow: Overflow(i % 2),
				}
				if mode != Pull {
					sub.Deliver = func([]Message) error { return nil }
				}
				if err := e.Subscribe(sub); err != nil {
					t.Error(err)
					return
				}
				switch i % 4 {
				case 0:
					e.Pause(id)
					e.Resume(id)
				case 1:
					e.SetDeadline(id, time.Now().Add(time.Hour))
				case 2:
					if mode == Pull {
						e.Pull(id, 2)
					}
				}
				e.Unsubscribe(id)
			}
		}(c)
	}
	wg.Wait()
	e.Quiesce()

	s := e.Stats()
	if s.Published != publishers*perPub {
		t.Fatalf("published=%d want %d", s.Published, publishers*perPub)
	}
	if s.Matched != s.Delivered+s.Dropped+s.Failed {
		t.Fatalf("invariant broken at quiescence: %+v", s)
	}
	if e.Count() != stableSubs {
		t.Fatalf("count=%d want %d", e.Count(), stableSubs)
	}
}

// TestQuiesceAccountsPausedQueued covers the trickiest wg-accounting
// path: messages buffered while a Queued subscriber is paused must not
// deadlock Quiesce, and must all be attempted after Resume.
func TestQuiesceAccountsPausedQueued(t *testing.T) {
	e := New(Config{})
	var n atomic.Uint64
	e.Subscribe(Sub{
		ID: "q", Mode: Queued, PauseBuffer: true,
		Deliver: func([]Message) error { n.Add(1); return nil },
	})
	e.Pause("q")
	for i := 0; i < 5; i++ {
		e.Dispatch(Message{Payload: i})
	}
	e.Quiesce() // paused messages are not in-flight: must return at once
	if n.Load() != 0 {
		t.Fatalf("delivered %d while paused", n.Load())
	}
	e.Resume("q")
	e.Quiesce()
	if n.Load() != 5 {
		t.Fatalf("delivered %d after resume, want 5", n.Load())
	}
	checkStats(t, e, Stats{Published: 5, Matched: 5, Delivered: 5})
}

// TestQueuedBatchPopsBacklog: a queued subscriber with Batch > 1 (and no
// breaker) receives its backlog as multi-message batches — the shape the
// per-destination writer coalesces into one envelope — while conservation
// holds at batch granularity.
func TestQueuedBatchPopsBacklog(t *testing.T) {
	e := New(Config{})
	block := make(chan struct{})
	started := make(chan struct{})
	var once sync.Once
	var mu sync.Mutex
	var sizes []int
	var total int
	e.Subscribe(Sub{
		ID:    "qb",
		Mode:  Queued,
		Batch: 4,
		Deliver: func(batch []Message) error {
			once.Do(func() { close(started) })
			<-block
			mu.Lock()
			sizes = append(sizes, len(batch))
			total += len(batch)
			mu.Unlock()
			return nil
		},
	})
	e.Dispatch(Message{Payload: 0})
	<-started // worker holds the first batch; backlog accumulates
	for i := 1; i <= 6; i++ {
		e.Dispatch(Message{Payload: i})
	}
	close(block)
	e.Quiesce()
	mu.Lock()
	defer mu.Unlock()
	if total != 7 {
		t.Fatalf("delivered %d messages, want 7 (sizes %v)", total, sizes)
	}
	maxBatch := 0
	for _, n := range sizes {
		if n > 4 {
			t.Fatalf("batch of %d exceeds Batch=4 (sizes %v)", n, sizes)
		}
		if n > maxBatch {
			maxBatch = n
		}
	}
	if maxBatch < 2 {
		t.Fatalf("backlog never delivered as a batch (sizes %v)", sizes)
	}
	checkStats(t, e, Stats{Published: 7, Matched: 7, Delivered: 7})
}

// TestWorkersBoundedAndDrainOnDemand: the worker pool is drain on demand —
// no worker before the first scheduled subscriber, never more than
// MaxWorkers however many subscribers are runnable, none once the run queue
// is empty — and the bound costs nothing in order or accounting: every
// subscriber gets its whole backlog, in order.
func TestWorkersBoundedAndDrainOnDemand(t *testing.T) {
	const subs, perSub, maxWorkers = 16, 5, 4
	e := New(Config{MaxWorkers: maxWorkers})
	defer e.Close()
	if got := e.WorkerCount(); got != 0 {
		t.Fatalf("WorkerCount = %d before any work, want 0", got)
	}
	entered := make(chan struct{}, subs*perSub)
	release := make(chan struct{})
	var mu sync.Mutex
	got := map[string][]int{}
	for i := 0; i < subs; i++ {
		id := fmt.Sprintf("s%d", i)
		e.Subscribe(Sub{
			ID:   id,
			Mode: Queued,
			Deliver: func(batch []Message) error {
				entered <- struct{}{}
				<-release
				mu.Lock()
				got[id] = append(got[id], batch[0].Payload.(int))
				mu.Unlock()
				return nil
			},
		})
	}
	for n := 0; n < perSub; n++ {
		e.Dispatch(Message{Payload: n})
		if w := e.WorkerCount(); w > maxWorkers {
			t.Fatalf("WorkerCount = %d after publish %d, want at most %d", w, n, maxWorkers)
		}
	}
	// Every worker is now parked inside a Deliver; the other twelve
	// subscribers wait on the run queue.
	for i := 0; i < maxWorkers; i++ {
		<-entered
	}
	if w := e.WorkerCount(); w != maxWorkers {
		t.Fatalf("WorkerCount = %d with %d runnable subscribers, want %d", w, subs, maxWorkers)
	}
	close(release)
	e.Quiesce()
	mu.Lock()
	for i := 0; i < subs; i++ {
		id := fmt.Sprintf("s%d", i)
		if fmt.Sprint(got[id]) != "[0 1 2 3 4]" {
			t.Errorf("%s got %v, want [0 1 2 3 4]", id, got[id])
		}
	}
	mu.Unlock()
	checkStats(t, e, Stats{Published: perSub, Matched: subs * perSub, Delivered: subs * perSub})
	// Quiesce returns when the last delivery was attempted; its worker then
	// finds the run queue empty and exits.
	for deadline := time.Now().Add(5 * time.Second); e.WorkerCount() != 0; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("WorkerCount = %d on an idle engine, want 0", e.WorkerCount())
		}
	}
}
