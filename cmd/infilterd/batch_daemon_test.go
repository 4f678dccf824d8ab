package main

import (
	"context"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"sync/atomic"
	"testing"
	"time"

	"infilter/internal/flow"
	"infilter/internal/idmef"
	"infilter/internal/netaddr"
	"infilter/internal/testutil"
)

// startDaemonAdmin is startDaemon plus the admin address.
func startDaemonAdmin(t *testing.T, args []string) (ports []int, admin string, cancel context.CancelFunc, done chan error) {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	type readyInfo struct {
		ports []int
		admin string
	}
	ready := make(chan readyInfo, 1)
	done = make(chan error, 1)
	go func() {
		done <- runWith(ctx, args, func(p []int, a string) { ready <- readyInfo{ports: p, admin: a} })
	}()
	select {
	case info := <-ready:
		return info.ports, info.admin, cancel, done
	case err := <-done:
		cancel()
		t.Fatalf("run exited before ready: %v", err)
	case <-time.After(30 * time.Second):
		cancel()
		t.Fatal("daemon never became ready")
	}
	return nil, "", nil, nil
}

// TestBatchedShutdownDrainsPartialBatch is the SIGTERM-mid-batch drain
// test: with a batch size far above the traffic and a batch-timeout that
// never fires during the test, the decoded records sit in a reader's
// partially filled batch when shutdown starts. The drain must deliver
// that partial batch through the pipeline — every spoofed record still
// produces its alert before run returns.
func TestBatchedShutdownDrainsPartialBatch(t *testing.T) {
	var alerts atomic.Int64
	consumer := idmef.NewConsumer(func(idmef.Alert) { alerts.Add(1) })
	alertPort, err := consumer.Listen(0)
	if err != nil {
		t.Fatal(err)
	}
	defer consumer.Close()

	eiaPath := filepath.Join(t.TempDir(), "eia.txt")
	if err := os.WriteFile(eiaPath, []byte("1 61.0.0.0/11\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	args := []string{
		"-ports", "0", "-mode", "BI",
		"-alert", fmt.Sprintf("127.0.0.1:%d", alertPort),
		"-admin-addr", "127.0.0.1:0",
		"-eia-file", eiaPath,
		"-batch-size", "4096", "-batch-timeout", "30m",
		"-stats", "1h", "-queue-depth", "64",
	}

	const perDatagram = 10
	const total = int64(2 * perDatagram)

	testutil.ExpectNoGoroutineGrowth(t, func() {
		tr := &http.Transport{}
		defer tr.CloseIdleConnections()
		ports, admin, cancel, done := startDaemonAdmin(t, args)
		defer cancel()
		base := "http://" + admin

		for i := 0; i < 2; i++ {
			var recs []flow.Record
			for j := 0; j < perDatagram; j++ {
				recs = append(recs, testRec(fmt.Sprintf("99.0.%d.%d", i, j+1), 1, 404, flow.ProtoUDP, 1434))
			}
			sendRaw(t, ports[0], v5Raw(t, recs))
		}

		// Wait until the reader has decoded everything; nothing may have
		// reached the pipeline yet (the batch is far from full and the
		// timeout is half an hour away).
		deadline := time.Now().Add(10 * time.Second)
		var m map[string]float64
		for {
			m = scrapeAdmin(t, tr, base+"/metrics")
			if sumMetric(m, "infilter_collector_records_total") >= float64(total) {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("decoded %v records, want %d",
					sumMetric(m, "infilter_collector_records_total"), total)
			}
			time.Sleep(2 * time.Millisecond)
		}
		if got := sumMetric(m, "infilter_ingest_batch_records_count"); got != 0 {
			t.Errorf("batches delivered before shutdown = %v, want 0 (batch should still be filling)", got)
		}
		if got := alerts.Load(); got != 0 {
			t.Errorf("alerts before shutdown = %d, want 0", got)
		}

		tr.CloseIdleConnections()
		cancel()
		select {
		case err := <-done:
			if err != nil {
				t.Fatalf("run returned %v after cancel", err)
			}
		case <-time.After(10 * time.Second):
			t.Fatal("run did not return after cancel")
		}
		// The drain delivered the partial batch and the sender flushed
		// before run returned; the TCP consumer may lag a beat.
		deadline = time.Now().Add(10 * time.Second)
		for alerts.Load() < total {
			if time.Now().After(deadline) {
				t.Fatalf("drain produced %d alerts, want %d (partial batch dropped on shutdown)",
					alerts.Load(), total)
			}
			time.Sleep(2 * time.Millisecond)
		}
	})
}

// TestAdminMetricsBatchedIngest scrapes the infilter_ingest_* families
// of the batched path: batch-size histogram, flush-reason counters and
// the records/sec gauge, against exactly known traffic. With batch-size
// 8, every 10-record datagram overfills one batch, so batches delivered
// and flush{reason=full} both equal the datagram count.
func TestAdminMetricsBatchedIngest(t *testing.T) {
	var alerts atomic.Int64
	consumer := idmef.NewConsumer(func(idmef.Alert) { alerts.Add(1) })
	alertPort, err := consumer.Listen(0)
	if err != nil {
		t.Fatal(err)
	}
	defer consumer.Close()

	eiaPath := filepath.Join(t.TempDir(), "eia.txt")
	if err := os.WriteFile(eiaPath, []byte("1 61.0.0.0/11\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	args := []string{
		"-ports", "0", "-mode", "BI",
		"-alert", fmt.Sprintf("127.0.0.1:%d", alertPort),
		"-admin-addr", "127.0.0.1:0",
		"-eia-file", eiaPath,
		"-readers", "2", "-batch-size", "8", "-batch-timeout", "5ms",
		"-stats", "1h", "-queue-depth", "64",
	}

	const datagrams, perDatagram = 3, 10
	const total = int64(datagrams * perDatagram)

	testutil.ExpectNoGoroutineGrowth(t, func() {
		tr := &http.Transport{}
		defer tr.CloseIdleConnections()
		ports, admin, cancel, done := startDaemonAdmin(t, args)
		defer cancel()
		base := "http://" + admin

		for i := 0; i < datagrams; i++ {
			var recs []flow.Record
			for j := 0; j < perDatagram; j++ {
				recs = append(recs, testRec(fmt.Sprintf("99.0.%d.%d", i, j+1), 1, 404, flow.ProtoUDP, 1434))
			}
			sendRaw(t, ports[0], v5Raw(t, recs))
		}
		deadline := time.Now().Add(10 * time.Second)
		for alerts.Load() < total {
			if time.Now().After(deadline) {
				t.Fatalf("got %d alerts, want %d", alerts.Load(), total)
			}
			time.Sleep(2 * time.Millisecond)
		}

		m := scrapeAdmin(t, tr, base+"/metrics")
		checks := []struct {
			name string
			want float64
		}{
			{"infilter_collector_records_total", float64(total)},
			{"infilter_pipeline_flows_total", float64(total)},
			{"infilter_ingest_batch_records_count", datagrams},
			{"infilter_ingest_batch_records_sum", float64(total)},
			{`infilter_ingest_batch_flushes_total{reason="full"}`, datagrams},
			{`infilter_ingest_batch_flushes_total{reason="timeout"}`, 0},
			{"infilter_eia_misses_total", float64(total)},
		}
		for _, c := range checks {
			if got := sumMetric(m, c.name); got != c.want {
				t.Errorf("%s = %v, want %v", c.name, got, c.want)
			}
		}
		if _, ok := m["infilter_ingest_records_per_second"]; !ok {
			t.Error("missing infilter_ingest_records_per_second gauge")
		}

		tr.CloseIdleConnections()
		cancel()
		select {
		case err := <-done:
			if err != nil {
				t.Fatalf("run returned %v after cancel", err)
			}
		case <-time.After(10 * time.Second):
			t.Fatal("run did not return after cancel")
		}
	})
}

// verdictTraceDatagrams is the number of datagrams replayVerdictTraffic
// sends: four rounds of one legal and one attack datagram per peer.
const verdictTraceDatagrams = 4 * 4

// replayVerdictTraffic starts an EI daemon with the given extra flags,
// replays one fixed two-peer trace — legal flows, a spoofed Slammer-style
// sweep (NNS, then scan trips) and wrong-ingress flows from peer 1's
// block arriving at peer 2 — and returns the daemon's verdict counters
// once every flow is analyzed, plus the alerts the consumer received.
func replayVerdictTraffic(t *testing.T, extra ...string) (map[string]float64, int64) {
	t.Helper()
	var alerts atomic.Int64
	consumer := idmef.NewConsumer(func(idmef.Alert) { alerts.Add(1) })
	alertPort, err := consumer.Listen(0)
	if err != nil {
		t.Fatal(err)
	}
	defer consumer.Close()
	eiaPath := filepath.Join(t.TempDir(), "eia.txt")
	if err := os.WriteFile(eiaPath, []byte("1 61.0.0.0/11\n2 70.0.0.0/11\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	args := append([]string{
		"-ports", "0,0", "-mode", "EI",
		"-train-flows", "400", "-train-seed", "3",
		"-alert", fmt.Sprintf("127.0.0.1:%d", alertPort),
		"-admin-addr", "127.0.0.1:0",
		"-eia-file", eiaPath,
		"-stats", "1h", "-workers", "2", "-queue-depth", "64",
	}, extra...)

	const perDatagram = 10
	type datagram struct {
		port int
		recs []flow.Record
	}
	var trace []datagram
	for i := 0; i < verdictTraceDatagrams/4; i++ {
		var legal1, legal2, sweep, wrong []flow.Record
		for j := 0; j < perDatagram; j++ {
			legal1 = append(legal1, testRec(fmt.Sprintf("61.0.7.%d", 10*i+j+1), 9, 4040, flow.ProtoTCP, 80))
			legal2 = append(legal2, testRec(fmt.Sprintf("70.0.7.%d", 10*i+j+1), 9, 4040, flow.ProtoTCP, 80))
			probe := testRec(fmt.Sprintf("99.0.%d.%d", i, j+1), 1, 404, flow.ProtoUDP, 1434)
			probe.Key.Dst = netaddr.MustParseAddr(fmt.Sprintf("192.0.2.%d", 10*i+j+1))
			sweep = append(sweep, probe)
			wrong = append(wrong, testRec(fmt.Sprintf("61.0.9.%d", 10*i+j+1), 9, 4040, flow.ProtoTCP, 80))
		}
		trace = append(trace,
			datagram{0, legal1}, datagram{0, sweep},
			datagram{1, legal2}, datagram{1, wrong})
	}
	total := float64(len(trace) * perDatagram)

	var m map[string]float64
	testutil.ExpectNoGoroutineGrowth(t, func() {
		tr := &http.Transport{}
		defer tr.CloseIdleConnections()
		ports, admin, cancel, done := startDaemonAdmin(t, args)
		defer cancel()
		for _, dg := range trace {
			sendRaw(t, ports[dg.port], v5Raw(t, dg.recs))
		}
		deadline := time.Now().Add(10 * time.Second)
		for {
			m = scrapeAdmin(t, tr, "http://"+admin+"/metrics")
			if sumMetric(m, "infilter_pipeline_flows_total") >= total &&
				sumMetric(m, "infilter_alerts_sent_total") == float64(alerts.Load()) {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("pipeline analyzed %v flows (want %v), sent %v alerts (consumer got %d)",
					sumMetric(m, "infilter_pipeline_flows_total"), total,
					sumMetric(m, "infilter_alerts_sent_total"), alerts.Load())
			}
			time.Sleep(2 * time.Millisecond)
		}
		tr.CloseIdleConnections()
		stopDaemon(t, cancel, done)
	})
	return m, alerts.Load()
}

// TestPerDatagramIngestMatchesBatched replays the same trace at
// -batch-size 0 (every datagram handed over as its own batch) and at the
// default batch size: both go through the one SubmitBatch handler, and
// every verdict counter and the alert count must agree.
func TestPerDatagramIngestMatchesBatched(t *testing.T) {
	perDgram, perDgramAlerts := replayVerdictTraffic(t, "-batch-size", "0")
	batched, batchedAlerts := replayVerdictTraffic(t)
	if perDgramAlerts != batchedAlerts {
		t.Errorf("alerts: -batch-size 0 = %d, batched = %d", perDgramAlerts, batchedAlerts)
	}
	for _, name := range []string{
		"infilter_pipeline_flows_total",
		"infilter_eia_hits_total",
		"infilter_eia_misses_total",
		"infilter_eia_promotions_total",
		"infilter_scan_network_trips_total",
		"infilter_scan_host_trips_total",
		"infilter_nns_queries_total",
		"infilter_nns_anomalies_total",
		"infilter_alerts_sent_total",
	} {
		if got, want := sumMetric(perDgram, name), sumMetric(batched, name); got != want {
			t.Errorf("%s: -batch-size 0 = %v, batched = %v", name, got, want)
		}
	}
	// -batch-size 0 must really have delivered one batch per datagram.
	if got := sumMetric(perDgram, "infilter_ingest_batch_records_count"); got != verdictTraceDatagrams {
		t.Errorf("-batch-size 0 delivered %v batches, want one per datagram (%d)", got, verdictTraceDatagrams)
	}
	// The trace must reach every verdict path it is meant to compare.
	for _, name := range []string{
		"infilter_eia_hits_total",
		"infilter_eia_misses_total",
		"infilter_eia_promotions_total",
		"infilter_scan_network_trips_total",
		"infilter_nns_queries_total",
		"infilter_nns_anomalies_total",
	} {
		if sumMetric(batched, name) == 0 {
			t.Errorf("degenerate trace: %s = 0", name)
		}
	}
	if batchedAlerts == 0 {
		t.Error("degenerate trace: no alerts")
	}
}
