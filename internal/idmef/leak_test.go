package idmef

import (
	"fmt"
	"net"
	"testing"
	"time"

	"infilter/internal/flow"
	"infilter/internal/netaddr"
	"infilter/internal/telemetry"
	"infilter/internal/testutil"
)

// TestConsumerGoroutineLeak cycles the consumer's accept/read loops with a
// live sender and fails if Close leaves any goroutine behind.
func TestConsumerGoroutineLeak(t *testing.T) {
	key := flow.Key{
		Src: netaddr.MustParseAddr("70.1.1.1"), Dst: netaddr.MustParseAddr("192.0.2.1"),
		Proto: flow.ProtoUDP, DstPort: 1434,
	}
	alert := NewAlert("leak-1", time.Date(2005, 4, 1, 0, 0, 0, 0, time.UTC),
		StageNNS, 1, "spoofed-traffic/nns", key, 42)
	testutil.ExpectNoGoroutineGrowth(t, func() {
		for i := 0; i < 3; i++ {
			got := make(chan Alert, 8)
			c := NewConsumer(func(a Alert) { got <- a })
			port, err := c.Listen(0)
			if err != nil {
				t.Fatal(err)
			}
			s, err := Dial(addr(port))
			if err != nil {
				t.Fatal(err)
			}
			if err := s.Send(alert); err != nil {
				t.Fatal(err)
			}
			select {
			case a := <-got:
				if a.MessageID != "leak-1" {
					t.Errorf("got alert %q", a.MessageID)
				}
			case <-time.After(5 * time.Second):
				t.Fatal("alert never delivered")
			}
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}
			if err := c.Close(); err != nil {
				t.Fatal(err)
			}
			if _, err := c.Listen(0); err != ErrConsumerClosed {
				t.Errorf("Listen after Close = %v, want ErrConsumerClosed", err)
			}
		}
	})
}

// TestConsumerCloseWithLiveSender closes the consumer while a sender's
// connection is still open: the read loops must exit without waiting for
// the peer.
func TestConsumerCloseWithLiveSender(t *testing.T) {
	testutil.ExpectNoGoroutineGrowth(t, func() {
		c := NewConsumer(func(Alert) {})
		port, err := c.Listen(0)
		if err != nil {
			t.Fatal(err)
		}
		s, err := Dial(addr(port))
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		// Give the accept loop a moment to register the connection so
		// Close exercises the live-conn teardown path.
		time.Sleep(20 * time.Millisecond)
		if err := c.Close(); err != nil {
			t.Fatal(err)
		}
	})
}

func addr(port int) string {
	return fmt.Sprintf("127.0.0.1:%d", port)
}

// TestSenderWriterExitsOnClose shows the sender's writer goroutine is
// gone when Close returns, both with a live consumer and after the
// consumer vanished (failed write, failed redial, alerts counted as
// dropped).
func TestSenderWriterExitsOnClose(t *testing.T) {
	for _, consumerGone := range []bool{false, true} {
		t.Run(fmt.Sprintf("consumerGone=%v", consumerGone), func(t *testing.T) {
			testutil.ExpectNoGoroutineGrowth(t, func() {
				ln, err := net.Listen("tcp", "127.0.0.1:0")
				if err != nil {
					t.Fatal(err)
				}
				accepted := make(chan net.Conn, 1)
				go func() {
					if conn, err := ln.Accept(); err == nil {
						accepted <- conn
					}
				}()
				s, err := Dial(ln.Addr().String())
				if err != nil {
					t.Fatal(err)
				}
				m := NewSenderMetrics(telemetry.NewRegistry())
				s.SetMetrics(m)
				srv := <-accepted
				go discard(srv)
				if consumerGone {
					ln.Close()
					srv.Close()
				}
				// A write into a just-reset connection can still succeed;
				// keep sending until the failure is seen.
				deadline := time.Now().Add(5 * time.Second)
				for i := 0; i < 3 || consumerGone && m.Dropped.Value() == 0; i++ {
					if time.Now().After(deadline) {
						t.Fatal("no dropped alert after the consumer went away")
					}
					if err := s.Send(sampleAlert(fmt.Sprintf("w%d", i))); err != nil {
						t.Fatal(err)
					}
					time.Sleep(time.Millisecond)
				}
				if err := s.Close(); err != nil && !consumerGone {
					t.Fatal(err)
				}
				select {
				case <-s.done:
				default:
					t.Error("writer goroutine still running after Close")
				}
				if !consumerGone {
					if got := m.Sent.Value(); got != 3 {
						t.Errorf("sent = %d, want 3", got)
					}
					ln.Close()
				}
			})
		})
	}
}
