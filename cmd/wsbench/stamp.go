package main

import "bytes"

// Every published message carries a fixed-width stamp in its payload:
//
//	wsb:P:KKKKKKKK:DDDDDDDDDDDDDDD;
//
// P is the publisher (connection) number, K that publisher's sequence
// number and D the instant the publish was due, in nanoseconds since the
// bench epoch. The alphabet survives every rendering the broker applies
// (XML text, JSON strings, MQTT payload bytes) unescaped, so a consumer
// finds it with one byte search and needs no state shared with the
// publishers to match a receipt or to time it.
const (
	stampPrefix = "wsb:"
	stampLen    = len(stampPrefix) + 1 + 1 + 8 + 1 + 15 + 1
	// stampBlank is what templates carry where putStamp writes.
	stampBlank = "wsb:0:00000000:000000000000000;"
)

var stampPrefixBytes = []byte(stampPrefix)

// putStamp overwrites dst[:stampLen] with the stamp for (pub, seq, due).
func putStamp(dst []byte, pub int, seq uint32, due int64) {
	copy(dst, stampPrefix)
	dst[4] = byte('0' + pub%10)
	dst[5] = ':'
	putDigits(dst[6:14], uint64(seq))
	dst[14] = ':'
	if due < 0 {
		due = 0
	}
	putDigits(dst[15:30], uint64(due))
	dst[30] = ';'
}

func putDigits(dst []byte, v uint64) {
	for i := len(dst) - 1; i >= 0; i-- {
		dst[i] = byte('0' + v%10)
		v /= 10
	}
}

// stamp is a parsed stamp.
type stamp struct {
	pub int
	seq uint32
	due int64
}

// nextStamp finds the first well-formed stamp in b at or after from and
// returns it with the offset just past it; ok is false when none remains.
func nextStamp(b []byte, from int) (s stamp, end int, ok bool) {
	for from < len(b) {
		i := bytes.Index(b[from:], stampPrefixBytes)
		if i < 0 {
			return stamp{}, len(b), false
		}
		at := from + i
		if s, ok := parseStamp(b[at:]); ok {
			return s, at + stampLen, true
		}
		from = at + len(stampPrefix)
	}
	return stamp{}, len(b), false
}

func parseStamp(b []byte) (stamp, bool) {
	if len(b) < stampLen || b[5] != ':' || b[14] != ':' || b[30] != ';' || b[4] < '0' || b[4] > '9' {
		return stamp{}, false
	}
	seq, ok1 := digits(b[6:14])
	due, ok2 := digits(b[15:30])
	if !ok1 || !ok2 {
		return stamp{}, false
	}
	return stamp{pub: int(b[4] - '0'), seq: uint32(seq), due: int64(due)}, true
}

func digits(b []byte) (uint64, bool) {
	var v uint64
	for _, c := range b {
		if c < '0' || c > '9' {
			return 0, false
		}
		v = v*10 + uint64(c-'0')
	}
	return v, true
}
