package main

import (
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sync/atomic"
	"testing"
	"time"

	"infilter/internal/flow"
	"infilter/internal/idmef"
	"infilter/internal/netaddr"
	"infilter/internal/netflow"
	"infilter/internal/testutil"
)

// testRec6 is testRec for an IPv6 source, with a v6 destination so the
// record exercises the 16-byte template end to end.
func testRec6(src string, packets, bytes uint32, proto uint8, dstPort uint16) flow.Record {
	boot := time.Date(2005, 4, 1, 0, 0, 0, 0, time.UTC)
	return flow.Record{
		Key: flow.Key{
			Src:   netaddr.MustParseAddr(src),
			Dst:   netaddr.MustParseAddr("2001:db8::1"),
			Proto: proto, DstPort: dstPort,
		},
		Packets: packets, Bytes: bytes,
		Start: boot.Add(time.Second), End: boot.Add(2 * time.Second),
	}
}

// TestDualStackIPFIXIngestEndToEnd is the acceptance test for the
// address-family-generic core: one IPFIX stream carrying interleaved
// v4 and v6 records — per family: Match sources (in the port's EIA
// set), WrongPeer sources (in another peer's set) and Unknown sources
// (in no set) — is replayed over real UDP through collector → decode →
// pipeline. Every non-Match record must alert regardless of family,
// and the /metrics scrape must expose the verdict and ingest counters
// split by the family label with exactly the per-family totals.
func TestDualStackIPFIXIngestEndToEnd(t *testing.T) {
	var alerts atomic.Int64
	consumer := idmef.NewConsumer(func(idmef.Alert) { alerts.Add(1) })
	alertPort, err := consumer.Listen(0)
	if err != nil {
		t.Fatal(err)
	}
	defer consumer.Close()

	// Peer 1 owns the port; peer 2 exists only to produce WrongPeer.
	eiaPath := filepath.Join(t.TempDir(), "eia.txt")
	eiaBody := "1 61.0.0.0/11\n" +
		"1 2001:db8:1000::/48\n" +
		"2 70.0.0.0/11\n" +
		"2 2001:db8:2000::/48\n"
	if err := os.WriteFile(eiaPath, []byte(eiaBody), 0o644); err != nil {
		t.Fatal(err)
	}
	args := []string{
		"-ports", "0", "-mode", "BI",
		"-alert", fmt.Sprintf("127.0.0.1:%d", alertPort),
		"-admin-addr", "127.0.0.1:0",
		"-eia-file", eiaPath,
		"-stats", "1h", "-workers", "2", "-queue-depth", "64",
	}

	const legal, wrong, unknown = 10, 5, 10
	const perFamily = legal + wrong + unknown
	const total = 2 * perFamily
	const wantAlerts = int64(2 * (wrong + unknown))

	// Interleave the families record by record — the worst case for the
	// exporter's per-family template segmentation and for the decoder.
	var v4, v6 []flow.Record
	for j := 0; j < legal; j++ {
		v4 = append(v4, testRec(fmt.Sprintf("61.0.7.%d", j+1), 9, 4040, flow.ProtoTCP, 80))
		v6 = append(v6, testRec6(fmt.Sprintf("2001:db8:1000::%d", j+1), 9, 4040, flow.ProtoTCP, 80))
	}
	for j := 0; j < wrong; j++ {
		v4 = append(v4, testRec(fmt.Sprintf("70.0.0.%d", j+1), 2, 200, flow.ProtoTCP, 443))
		v6 = append(v6, testRec6(fmt.Sprintf("2001:db8:2000::%d", j+1), 2, 200, flow.ProtoTCP, 443))
	}
	for j := 0; j < unknown; j++ {
		v4 = append(v4, testRec(fmt.Sprintf("99.0.0.%d", j+1), 1, 404, flow.ProtoUDP, 1434))
		v6 = append(v6, testRec6(fmt.Sprintf("2001:db8:bad::%d", j+1), 1, 404, flow.ProtoUDP, 1434))
	}
	var mixed []flow.Record
	for i := range v4 {
		mixed = append(mixed, v4[i], v6[i])
	}

	testutil.ExpectNoGoroutineGrowth(t, func() {
		tr := &http.Transport{}
		defer tr.CloseIdleConnections()

		ports, admin, cancel, done := startDaemonAdmin(t, args)
		base := "http://" + admin

		// Template state is keyed by exporter address: the whole stream
		// (templates + data) must leave one socket.
		enc := netflow.NewIPFIXEncoder(7)
		now := time.Date(2005, 4, 1, 0, 1, 0, 0, time.UTC)
		conn, err := net.Dial("udp", fmt.Sprintf("127.0.0.1:%d", ports[0]))
		if err != nil {
			t.Fatal(err)
		}
		for _, wd := range enc.Encode(mixed, now) {
			if _, err := conn.Write(wd.Raw); err != nil {
				t.Fatal(err)
			}
		}
		conn.Close()

		deadline := time.Now().Add(10 * time.Second)
		for alerts.Load() < wantAlerts {
			if time.Now().After(deadline) {
				t.Fatalf("got %d alerts, want %d", alerts.Load(), wantAlerts)
			}
			time.Sleep(2 * time.Millisecond)
		}
		// The Match records race the alert wait, and the sender counts an
		// alert only after the write that delivered it returns. Poll until
		// the pipeline has consumed every record and the sent counter has
		// settled.
		var m map[string]float64
		for {
			m = scrapeAdmin(t, tr, base+"/metrics")
			if sumMetric(m, "infilter_pipeline_flows_total") >= float64(total) &&
				sumMetric(m, "infilter_alerts_sent_total") == float64(wantAlerts) {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("pipeline analyzed %v flows (want %d), sent %v alerts (want %d)",
					sumMetric(m, "infilter_pipeline_flows_total"), total,
					sumMetric(m, "infilter_alerts_sent_total"), wantAlerts)
			}
			time.Sleep(2 * time.Millisecond)
		}

		checks := []struct {
			series string
			want   float64
		}{
			{`infilter_collector_records_total{family="4"}`, perFamily},
			{`infilter_collector_records_total{family="6"}`, perFamily},
			{`infilter_eia_hits_total{family="4"}`, legal},
			{`infilter_eia_hits_total{family="6"}`, legal},
			{`infilter_eia_misses_total{family="4"}`, wrong + unknown},
			{`infilter_eia_misses_total{family="6"}`, wrong + unknown},
		}
		for _, c := range checks {
			got, ok := m[c.series]
			if !ok {
				t.Errorf("series %s missing from scrape", c.series)
				continue
			}
			if got != c.want {
				t.Errorf("%s = %v, want %v", c.series, got, c.want)
			}
		}
		if got := sumMetric(m, "infilter_alerts_sent_total"); got != float64(wantAlerts) {
			t.Errorf("infilter_alerts_sent_total = %v, want %d", got, wantAlerts)
		}
		if got := sumMetric(m, `infilter_netflow_datagrams_total{version="10"}`); got == 0 {
			t.Error("no IPFIX datagrams counted")
		}

		tr.CloseIdleConnections()
		stopDaemon(t, cancel, done)
	})
}
