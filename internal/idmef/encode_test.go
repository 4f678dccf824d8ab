package idmef

import (
	"bytes"
	"encoding/xml"
	"fmt"
	"testing"
	"time"
)

// marshalXML is the reflective oracle appendAlert must match byte for
// byte: the encoding/xml form Marshal used before the hand-written
// encoder.
func marshalXML(a Alert) ([]byte, error) {
	out, err := xml.MarshalIndent(Message{Version: IDMEFVersion, Alert: a}, "", "  ")
	if err != nil {
		return nil, fmt.Errorf("idmef: marshal alert %s: %w", a.MessageID, err)
	}
	return append([]byte(xml.Header), out...), nil
}

// checkMatchesXML fails unless Marshal and appendAlert (onto a non-empty
// prefix) agree with the oracle on both bytes and error.
func checkMatchesXML(t *testing.T, a Alert) {
	t.Helper()
	want, werr := marshalXML(a)
	got, gerr := Marshal(a)
	if fmt.Sprint(gerr) != fmt.Sprint(werr) {
		t.Fatalf("error mismatch:\n got %v\nwant %v", gerr, werr)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("bytes mismatch:\n got %q\nwant %q", got, want)
	}
	prefix := []byte("prefix")
	app, _ := appendAlert(prefix, a)
	if !bytes.Equal(app, append(prefix, want...)) {
		t.Fatalf("appendAlert onto a prefix = %q", app)
	}
}

func TestMarshalMatchesXML(t *testing.T) {
	base := sampleAlert("alert-1")
	cases := map[string]func(*Alert){
		"sample":           func(*Alert) {},
		"zero time":        func(a *Alert) { a.CreateTime = time.Time{} },
		"markup":           func(a *Alert) { a.MessageID = `<a href="x">&'y'</a>` },
		"control chars":    func(a *Alert) { a.Classification.Text = "a\tb\nc\rd\x00e\x1ff\x7f" },
		"invalid utf-8":    func(a *Alert) { a.Source.Address = "\xff\xfe\xc3(\xed\xa0\x80" },
		"non-chars":        func(a *Alert) { a.Target.Address = "�￾￿\U0010FFFFé世" },
		"empty strings":    func(a *Alert) { *a = Alert{CreateTime: a.CreateTime} },
		"negative ints":    func(a *Alert) { a.Assessment.PeerAS, a.Assessment.Distance = -1<<63, -7 },
		"max port":         func(a *Alert) { a.Source.Port, a.Target.Port = 65535, 0 },
		"odd stage":        func(a *Alert) { a.Assessment.Stage = "x<y>&z" },
		"non-UTC zone":     func(a *Alert) { a.CreateTime = a.CreateTime.In(time.FixedZone("X", -(9*3600 + 30*60))) },
		"zone seconds":     func(a *Alert) { a.CreateTime = a.CreateTime.In(time.FixedZone("S", 3600+17)) },
		"nanoseconds":      func(a *Alert) { a.CreateTime = a.CreateTime.Add(123450 * time.Nanosecond) },
		"year 10000":       func(a *Alert) { a.CreateTime = time.Date(10000, 1, 1, 0, 0, 0, 0, time.UTC) },
		"negative year":    func(a *Alert) { a.CreateTime = time.Date(-1, 1, 1, 0, 0, 0, 0, time.UTC) },
		"zone hour 24":     func(a *Alert) { a.CreateTime = a.CreateTime.In(time.FixedZone("Z", 24*3600)) },
		"named XMLName":    func(a *Alert) { a.XMLName = xml.Name{Space: "ns", Local: "Other"} },
		"unicode ID":       func(a *Alert) { a.MessageID = "alerte-été-\U0001F600" },
		"surrogate escape": func(a *Alert) { a.MessageID = string([]byte{0xed, 0xbf, 0xbf}) },
	}
	for name, mutate := range cases {
		t.Run(name, func(t *testing.T) {
			a := base
			mutate(&a)
			checkMatchesXML(t, a)
		})
	}
}

// FuzzMarshalMatchesXML holds the hand-written encoder to encoding/xml
// over arbitrary field values: invalid UTF-8, control characters, any
// zone offset and any instant, including years outside [0,9999].
func FuzzMarshalMatchesXML(f *testing.F) {
	f.Add("alert-1", "spoofed-traffic/nns-search", "70.1.2.3", "192.0.2.9", "nns-search",
		uint16(4444), uint16(80), 3, 321, int64(1112351400), int64(0), 0)
	f.Add("a<&\"'>", "\t\n\r\x00", "\xff\xfe", "￾", "", uint16(0), uint16(65535),
		-1, -1<<62, int64(-62135596801), int64(999999999), -3600)
	f.Add("", "", "", "", "x", uint16(1), uint16(2), 0, 0, int64(253402300800), int64(1), 86399)
	f.Fuzz(func(t *testing.T, id, class, src, dst, stage string, sport, dport uint16,
		peer, dist int, sec, nsec int64, zone int) {
		loc := time.UTC
		if zone != 0 {
			loc = time.FixedZone("F", zone)
		}
		checkMatchesXML(t, Alert{
			MessageID:      id,
			CreateTime:     time.Unix(sec, nsec).In(loc),
			Classification: Class{Text: class},
			Source:         Node{Address: src, Port: sport},
			Target:         Node{Address: dst, Port: dport},
			Assessment:     Assess{Stage: Stage(stage), PeerAS: peer, Distance: dist},
		})
	})
}

// BenchmarkMarshal compares the encoder with the encoding/xml oracle it
// replaced, per alert.
func BenchmarkMarshal(b *testing.B) {
	a := sampleAlert("alert-000123")
	b.Run("append", func(b *testing.B) {
		b.ReportAllocs()
		buf := make([]byte, 0, alertSizeHint)
		for i := 0; i < b.N; i++ {
			buf, _ = appendAlert(buf[:0], a)
		}
	})
	b.Run("xml-oracle", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			_, _ = marshalXML(a)
		}
	})
}
