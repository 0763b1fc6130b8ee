package main

import (
	"strings"
	"testing"
)

func TestStampRoundTrip(t *testing.T) {
	buf := []byte("<p>" + stampBlank + "</p>")
	putStamp(buf[3:], 1, 12345678, 987654321012345)
	if got := string(buf); got != "<p>wsb:1:12345678:987654321012345;</p>" {
		t.Fatalf("stamped %q", got)
	}
	s, end, ok := nextStamp(buf, 0)
	if !ok || s != (stamp{pub: 1, seq: 12345678, due: 987654321012345}) || end != 3+stampLen {
		t.Errorf("parsed %+v end %d ok %v", s, end, ok)
	}
	if _, _, ok := nextStamp(buf, end); ok {
		t.Error("found a second stamp")
	}
	if len(stampBlank) != stampLen {
		t.Errorf("blank stamp is %d bytes, stampLen %d", len(stampBlank), stampLen)
	}
}

// A coalesced envelope carries several stamps, and text that merely starts
// like one must be skipped, not end the scan.
func TestNextStampWalksACoalescedBody(t *testing.T) {
	body := []byte("wsb:oops <a>wsb:0:00000007:000000000000100;</a> wsb:1:0000000x:000000000000000; <b>wsb:1:00000009:000000000000200;</b>")
	var seqs []uint32
	for pos := 0; ; {
		s, end, ok := nextStamp(body, pos)
		if !ok {
			break
		}
		seqs = append(seqs, s.seq)
		pos = end
	}
	if len(seqs) != 2 || seqs[0] != 7 || seqs[1] != 9 {
		t.Errorf("found stamps %v, want [7 9]", seqs)
	}
}

func TestNewFormWantsExactlyOneBlank(t *testing.T) {
	if f, err := newForm([]byte("ab"+stampBlank+"cd"), "text/xml"); err != nil || f.off != 2 {
		t.Errorf("one blank: off %d err %v", f.off, err)
	}
	for _, body := range []string{"none", stampBlank + stampBlank} {
		if _, err := newForm([]byte(body), ""); err == nil {
			t.Errorf("newForm(%q) accepted", body)
		}
	}
}

func TestParseMetrics(t *testing.T) {
	m, err := parseMetrics(strings.NewReader(`# HELP wsm_matched_total x
# TYPE wsm_matched_total counter
wsm_matched_total{component="broker"} 42
wsm_stage_seconds_sum{component="broker",stage="dispatch"} 0.5
wsm_stage_seconds_count{component="broker",stage="dispatch"} 1e+03
garbage line
`))
	if err != nil {
		t.Fatal(err)
	}
	if m.get("wsm_matched_total") != 42 || m.get("wsm_stage_seconds_count", `stage="dispatch"`) != 1000 || m.get("wsm_absent_total") != 0 {
		t.Errorf("parsed %v", m)
	}
}

func TestTailBufferKeepsTheLastLines(t *testing.T) {
	tb := &tailBuffer{keep: 2}
	for _, chunk := range []string{"one\ntw", "o\nthree\nfo", "ur"} {
		_, _ = tb.Write([]byte(chunk))
	}
	if got := tb.String(); got != "two\nthree\nfour" {
		t.Errorf("kept %q", got)
	}
}
