package main

import "testing"

// oracleCase is two subscribers and one publisher's five publishes:
// subscriber 0 wants every publish, subscriber 1 the even ones.
func oracleCase() (*matcher, [][]receipt) {
	m := &matcher{
		subs:      []subscriber{{kind: kindWSN, mult: 1}, {kind: kindMQTT, mult: 1, qos: 1}},
		published: []int{5},
		refused:   [][]bool{make([]bool, 5)},
		wants:     func(s, p int, k uint32) bool { return s == 0 || k%2 == 0 },
	}
	bySub := [][]receipt{
		{{seq: 0}, {seq: 1}, {seq: 2}, {seq: 3}, {seq: 4}},
		{{seq: 0, sub: 1}, {seq: 2, sub: 1}, {seq: 4, sub: 1}},
	}
	return m, bySub
}

func TestMatcherAcceptsTheExactSet(t *testing.T) {
	m, bySub := oracleCase()
	v, arrived := m.check(bySub)
	if v.failures() != 0 || v.expected != 8 || v.got != 8 {
		t.Fatalf("clean run judged %+v", v)
	}
	for k, want := range []uint16{2, 1, 2, 1, 2} {
		if arrived[0][k] != want {
			t.Errorf("publish %d counted %d receipts, want %d", k, arrived[0][k], want)
		}
	}
}

func TestMatcherFlagsViolations(t *testing.T) {
	for _, c := range []struct {
		name   string
		mutate func(m *matcher, bySub [][]receipt) [][]receipt
		check  func(v verdict) bool
	}{
		{"dropped", func(_ *matcher, r [][]receipt) [][]receipt {
			r[0] = append(r[0][:2:2], r[0][3:]...) // subscriber 0 never sees publish 2
			return r
		}, func(v verdict) bool { return v.missing == 1 && v.got == 7 && v.failures() == 1 }},
		{"duplicated", func(_ *matcher, r [][]receipt) [][]receipt {
			r[0] = append(r[0], receipt{seq: 4})
			return r
		}, func(v verdict) bool { return v.duplicated == 1 && v.got == 8 && v.failures() == 1 }},
		{"reordered", func(_ *matcher, r [][]receipt) [][]receipt {
			r[0][1], r[0][2] = r[0][2], r[0][1] // 0,2,1,3,4
			return r
		}, func(v verdict) bool { return v.reordered == 1 && v.missing == 0 && v.failures() == 1 }},
		{"not subscribed", func(_ *matcher, r [][]receipt) [][]receipt {
			r[1] = append(r[1], receipt{seq: 3, sub: 1}) // subscriber 1 takes even publishes only
			return r
		}, func(v verdict) bool { return v.unexpected == 1 && v.failures() == 1 }},
		{"never published", func(_ *matcher, r [][]receipt) [][]receipt {
			r[0] = append(r[0], receipt{seq: 99}, receipt{seq: 1, pub: 3})
			return r
		}, func(v verdict) bool { return v.unexpected == 2 && v.failures() == 2 }},
		{"wrong dialect", func(_ *matcher, r [][]receipt) [][]receipt {
			r[0][0].flags |= flagBadType
			return r
		}, func(v verdict) bool { return v.badType == 1 && v.got == 8 && v.failures() == 1 }},
		{"qos 1 redelivery with DUP is within the promise", func(_ *matcher, r [][]receipt) [][]receipt {
			r[1] = append(r[1], receipt{seq: 4, sub: 1, flags: flagDup})
			return r
		}, func(v verdict) bool { return v.allowedDups == 1 && v.failures() == 0 }},
		{"qos 1 redelivery without DUP is not", func(_ *matcher, r [][]receipt) [][]receipt {
			r[1] = append(r[1], receipt{seq: 4, sub: 1})
			return r
		}, func(v verdict) bool { return v.duplicated == 1 && v.failures() == 1 }},
		{"DUP does not excuse a subscriber without the QoS 1 promise", func(_ *matcher, r [][]receipt) [][]receipt {
			r[0] = append(r[0], receipt{seq: 4, flags: flagDup})
			return r
		}, func(v verdict) bool { return v.duplicated == 1 }},
		{"delivery of a refused publish", func(m *matcher, r [][]receipt) [][]receipt {
			m.refused[0][1] = true // nothing is expected for it, yet subscriber 0 got it
			return r
		}, func(v verdict) bool { return v.unexpected == 1 && v.expected == 7 && v.missing == 0 }},
	} {
		m, bySub := oracleCase()
		if v, _ := m.check(c.mutate(m, bySub)); !c.check(v) {
			t.Errorf("%s: judged %+v", c.name, v)
		}
	}
}

// An MQTT session holding two overlapping filters per topic is one
// subscriber owed two copies of each publish; order is promised per
// subscription, so copies of different topics may interleave freely while
// a copy overtaken inside its own stream is a reordering.
func TestMatcherMultiplicityAndStreams(t *testing.T) {
	topicOf := func(k uint32) int { return int(k % 2) }
	m := &matcher{
		subs:      []subscriber{{kind: kindMQTT, mult: 2}},
		published: []int{4},
		refused:   [][]bool{make([]bool, 4)},
		wants:     func(int, int, uint32) bool { return true },
		streams:   2,
		stream:    func(_, _ int, k uint32) int { return topicOf(k) },
	}
	// Topic 1's copies (publishes 1, 3) arrive ahead of topic 0's: fine.
	ok := []receipt{{seq: 1}, {seq: 1}, {seq: 3}, {seq: 0}, {seq: 0}, {seq: 3}, {seq: 2}, {seq: 2}}
	if v, _ := m.check([][]receipt{ok}); v.failures() != 0 || v.got != 8 || v.expected != 8 {
		t.Errorf("interleaved streams judged %+v", v)
	}
	// Both copies of publish 2 ahead of both copies of publish 0, same topic.
	bad := []receipt{{seq: 2}, {seq: 2}, {seq: 0}, {seq: 0}, {seq: 1}, {seq: 1}, {seq: 3}, {seq: 3}}
	if v, _ := m.check([][]receipt{bad}); v.reordered != 2 {
		t.Errorf("overtaken copies judged %+v, want 2 reordered", v)
	}
	// A third copy is one too many.
	if v, _ := m.check([][]receipt{append(ok, receipt{seq: 2})}); v.duplicated != 1 {
		t.Errorf("third copy judged %+v, want 1 duplicated", v)
	}
}
