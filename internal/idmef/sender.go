package idmef

import (
	"errors"
	"fmt"
	"net"
	"sync"

	"infilter/internal/telemetry"
)

// maxPending bounds the encoded alerts a Sender holds for its writer.
// Send blocks while this much is pending, so a stalled consumer
// back-pressures the alert emitters instead of growing memory.
const maxPending = 256 << 10

// ErrSenderClosed is returned by Send after Close.
var ErrSenderClosed = errors.New("idmef: sender closed")

// SenderMetrics are the alert-sink runtime counters: alerts delivered,
// the connection writes that carried them, write failures, reconnects
// performed while recovering from one, and alerts lost when the retry
// failed too.
type SenderMetrics struct {
	Sent       *telemetry.Counter
	Writes     *telemetry.Counter
	SendErrors *telemetry.Counter
	Reconnects *telemetry.Counter
	Dropped    *telemetry.Counter
}

// NewSenderMetrics registers the alert-sink counters on r.
func NewSenderMetrics(r *telemetry.Registry) *SenderMetrics {
	return &SenderMetrics{
		Sent:       r.Counter("infilter_alerts_sent_total", "IDMEF alerts delivered to the consumer."),
		Writes:     r.Counter("infilter_alert_writes_total", "Consumer-connection writes that delivered alerts (sent / writes = alerts coalesced per write)."),
		SendErrors: r.Counter("infilter_alert_send_errors_total", "Alert writes that failed on the consumer connection."),
		Reconnects: r.Counter("infilter_alert_reconnects_total", "Consumer connections re-established after a failed write."),
		Dropped:    r.Counter("infilter_alerts_dropped_total", "Alerts lost because a write and its retry on a fresh connection both failed."),
	}
}

// Sender delivers alerts to an IDMEF consumer over TCP with group
// commit. Send encodes the alert into a pending buffer and returns; one
// writer goroutine hands everything pending to the connection in a
// single write, so alerts raised while a write is in flight share the
// next one. A failed write redials the consumer once and retries the
// whole chunk; if that fails too, the chunk's alerts are counted as
// dropped. A retried chunk may repeat alerts the consumer already got
// before the connection broke.
type Sender struct {
	addr string

	mu      sync.Mutex
	ready   sync.Cond // pending became non-empty, or closed
	space   sync.Cond // pending was taken by the writer, or closed
	pending []byte    // encoded, framed alerts awaiting the writer
	queued  int64     // alerts in pending
	closed  bool
	metrics SenderMetrics // nil counters discard

	conn net.Conn      // owned by the writer goroutine until done closes
	done chan struct{} // closed when the writer goroutine exits
}

// Dial connects to a consumer at addr and starts the sender's writer.
func Dial(addr string) (*Sender, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("idmef: dial %s: %w", addr, err)
	}
	s := &Sender{addr: addr, conn: conn, done: make(chan struct{})}
	s.ready.L = &s.mu
	s.space.L = &s.mu
	go s.writeLoop()
	return s, nil
}

// SetMetrics installs runtime counters (nil disables). It must be called
// before the sender is shared with concurrent alert emitters.
func (s *Sender) SetMetrics(m *SenderMetrics) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.metrics = SenderMetrics{}
	if m != nil {
		s.metrics = *m
	}
}

// Send queues one alert for delivery. Safe for concurrent use. It blocks
// while the pending buffer is full. It fails only when the alert cannot
// be encoded or the sender is closed (ErrSenderClosed); delivery
// failures show in the SenderMetrics counters.
func (s *Sender) Send(a Alert) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	for len(s.pending) >= maxPending && !s.closed {
		s.space.Wait()
	}
	if s.closed {
		return ErrSenderClosed
	}
	buf, err := appendAlert(s.pending, a)
	if err != nil {
		return err
	}
	s.pending = append(buf, frameSep...)
	s.queued++
	s.ready.Signal()
	return nil
}

// writeLoop takes the pending alerts in one swap per write until Close,
// then drains what is left and exits.
func (s *Sender) writeLoop() {
	defer close(s.done)
	var chunk []byte
	for {
		s.mu.Lock()
		for len(s.pending) == 0 && !s.closed {
			s.ready.Wait()
		}
		if len(s.pending) == 0 {
			s.mu.Unlock()
			return
		}
		chunk, s.pending = s.pending, chunk[:0]
		alerts := s.queued
		s.queued = 0
		m := s.metrics
		s.space.Broadcast()
		s.mu.Unlock()
		s.write(chunk, alerts, m)
	}
}

// write delivers one chunk, redialing once after a failed write.
func (s *Sender) write(chunk []byte, alerts int64, m SenderMetrics) {
	_, err := s.conn.Write(chunk)
	if err != nil {
		m.SendErrors.Inc()
		var conn net.Conn
		if conn, err = net.Dial("tcp", s.addr); err == nil {
			s.conn.Close()
			s.conn = conn
			m.Reconnects.Inc()
			if _, err = s.conn.Write(chunk); err != nil {
				m.SendErrors.Inc()
			}
		}
	}
	if err != nil {
		m.Dropped.Add(alerts)
		return
	}
	m.Writes.Inc()
	m.Sent.Add(alerts)
}

// Close delivers every alert already accepted by Send, stops the writer
// and closes the connection. Send after Close returns ErrSenderClosed.
// Safe to call multiple times.
func (s *Sender) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	s.ready.Signal()
	s.space.Broadcast()
	s.mu.Unlock()
	<-s.done
	return s.conn.Close()
}
