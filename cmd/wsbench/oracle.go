package main

// verdict is what the receipt matcher found, as counts; every non-zero
// field except expected, got and allowedDups is a failure.
type verdict struct {
	expected    int // receipts the subscriptions and publishes call for
	got         int // receipts that were called for and arrived (duplicates excluded)
	missing     int // called for, never arrived
	duplicated  int // arrived more often than the subscriber's multiplicity, without the QoS 1 DUP excuse
	reordered   int // arrived after a later publish of the same publisher at the same subscriber
	unexpected  int // arrived at a subscriber that should not have got it, or names no known publish
	badType     int // arrived in a content type other than the subscriber's dialect
	allowedDups int // QoS 1 redeliveries carrying DUP — permitted by the promise, counted for the record
}

func (v verdict) failures() int {
	return v.missing + v.duplicated + v.reordered + v.unexpected + v.badType
}

// matcher checks the receipts of a run against what had to arrive:
// exactly the expected (publish, subscriber) set with each subscriber's
// multiplicity, per-publisher order at every subscriber, and the
// subscriber's content type.
type matcher struct {
	subs []subscriber
	// published[p] is how many publishes publisher p made; refused[p][k]
	// marks those the broker did not acknowledge, for which nothing is
	// expected.
	published []int
	refused   [][]bool
	// wants reports whether subscriber s must receive publish (p, k).
	wants func(s int, p int, k uint32) bool
	// stream names the subscription, among the streams that make up
	// subscriber s, that carries publish (p, k): order is promised inside
	// a subscription, and an MQTT session (one subscriber here) holds one
	// pair of subscriptions per topic. Nil means one stream.
	stream  func(s int, p int, k uint32) int
	streams int
}

// check consumes receipts grouped per subscriber in arrival order and
// returns the verdict plus, per publish, how many of its expected
// receipts arrived.
func (m *matcher) check(bySub [][]receipt) (verdict, [][]uint16) {
	var v verdict
	arrived := make([][]uint16, len(m.published))
	for p, n := range m.published {
		arrived[p] = make([]uint16, n)
	}
	seen := make([][]uint8, len(m.published))
	for s, sub := range m.subs {
		for p, n := range m.published {
			if seen[p] == nil {
				seen[p] = make([]uint8, n)
			} else {
				clear(seen[p])
			}
		}
		// A subscriber of multiplicity n is n ordered streams merged on
		// one socket (an MQTT session's overlapping filters), so order is
		// judged per copy: the c-th arrival of a publish must not come
		// after the c-th arrival of a later one.
		streams := 1
		if m.stream != nil {
			streams = m.streams
		}
		last := make([][]int64, len(m.published))
		for p := range last {
			last[p] = make([]int64, streams*sub.mult)
			for c := range last[p] {
				last[p][c] = -1
			}
		}
		var recs []receipt
		if s < len(bySub) {
			recs = bySub[s]
		}
		for _, r := range recs {
			p := int(r.pub)
			if p >= len(m.published) || int(r.seq) >= m.published[p] || m.refused[p][r.seq] || !m.wants(s, p, r.seq) {
				v.unexpected++
				continue
			}
			if r.flags&flagBadType != 0 {
				v.badType++
			}
			if int(seen[p][r.seq]) >= sub.mult {
				if sub.qos == 1 && r.flags&flagDup != 0 {
					v.allowedDups++
				} else {
					v.duplicated++
				}
				continue
			}
			copyN := int(seen[p][r.seq])
			if m.stream != nil {
				copyN += m.stream(s, p, r.seq) * sub.mult
			}
			seen[p][r.seq]++
			arrived[p][r.seq]++
			v.got++
			if int64(r.seq) < last[p][copyN] {
				v.reordered++
			} else {
				last[p][copyN] = int64(r.seq)
			}
		}
		for p, n := range m.published {
			for k := 0; k < n; k++ {
				if m.refused[p][k] || !m.wants(s, p, uint32(k)) {
					continue
				}
				v.expected += sub.mult
				v.missing += sub.mult - int(seen[p][k])
			}
		}
	}
	return v, arrived
}
