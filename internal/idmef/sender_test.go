package idmef

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"infilter/internal/telemetry"
)

// countingListener accepts connections on a loopback port and reports
// how many it has accepted; each accepted connection is handed to serve.
func countingListener(t *testing.T, serve func(net.Conn)) (string, *atomic.Int64) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	var accepted atomic.Int64
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			accepted.Add(1)
			go serve(conn)
		}
	}()
	return ln.Addr().String(), &accepted
}

// discard reads conn to EOF without allocating.
func discard(conn net.Conn) {
	defer conn.Close()
	buf := make([]byte, 64<<10)
	for {
		if _, err := conn.Read(buf); err != nil {
			return
		}
	}
}

func TestSendAfterCloseReturnsErrSenderClosed(t *testing.T) {
	addr, accepted := countingListener(t, discard)
	s, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	m := NewSenderMetrics(telemetry.NewRegistry())
	s.SetMetrics(m)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := s.Send(sampleAlert("late")); !errors.Is(err, ErrSenderClosed) {
		t.Fatalf("Send after Close = %v, want ErrSenderClosed", err)
	}
	if err := s.Close(); err != nil {
		t.Errorf("second Close = %v", err)
	}
	time.Sleep(20 * time.Millisecond)
	if n := accepted.Load(); n != 1 {
		t.Errorf("consumer accepted %d connections, want 1 (Send after Close must not redial)", n)
	}
	if m.Reconnects.Value() != 0 || m.SendErrors.Value() != 0 || m.Sent.Value() != 0 {
		t.Errorf("metrics after Send on a closed sender: sent=%d errors=%d reconnects=%d",
			m.Sent.Value(), m.SendErrors.Value(), m.Reconnects.Value())
	}
}

// TestSenderDeliversEveryAcceptedAlert closes the sender the moment its
// concurrent emitters finish: every alert Send accepted must still reach
// the consumer, once, and the counters must account for all of them.
func TestSenderDeliversEveryAcceptedAlert(t *testing.T) {
	const emitters, each = 4, 500
	var (
		mu   sync.Mutex
		seen = map[string]int{}
	)
	c := NewConsumer(func(a Alert) {
		mu.Lock()
		seen[a.MessageID]++
		mu.Unlock()
	})
	port, err := c.Listen(0)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	s, err := Dial(addr(port))
	if err != nil {
		t.Fatal(err)
	}
	m := NewSenderMetrics(telemetry.NewRegistry())
	s.SetMetrics(m)
	var wg sync.WaitGroup
	for e := 0; e < emitters; e++ {
		wg.Add(1)
		go func(e int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				if err := s.Send(sampleAlert(fmt.Sprintf("e%d-%d", e, i))); err != nil {
					t.Error(err)
					return
				}
			}
		}(e)
	}
	wg.Wait()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	const total = emitters * each
	if got := m.Sent.Value(); got != total {
		t.Errorf("sent = %d after Close, want %d", got, total)
	}
	if w := m.Writes.Value(); w < 1 || w > total {
		t.Errorf("writes = %d, want 1..%d", w, total)
	}
	if d := m.Dropped.Value(); d != 0 {
		t.Errorf("dropped = %d", d)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		mu.Lock()
		n := len(seen)
		mu.Unlock()
		if n == total {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("consumer saw %d distinct alerts, want %d", n, total)
		}
		time.Sleep(5 * time.Millisecond)
	}
	mu.Lock()
	defer mu.Unlock()
	for id, n := range seen {
		if n != 1 {
			t.Errorf("alert %s delivered %d times", id, n)
		}
	}
}

// TestSenderStalledConsumerBlocksSend stops reading on the consumer side:
// once the socket buffers are full, Send must block with the pending
// buffer at its bound rather than grow it, and every alert it accepted
// must arrive once the consumer resumes.
func TestSenderStalledConsumerBlocksSend(t *testing.T) {
	conns := make(chan net.Conn, 1)
	addr, _ := countingListener(t, func(c net.Conn) { conns <- c })
	s, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	srv := <-conns
	defer srv.Close()

	alert := sampleAlert("stalled")
	raw, err := Marshal(alert)
	if err != nil {
		t.Fatal(err)
	}
	frame := len(raw) + len(frameSep)
	var (
		accepted atomic.Int64
		stop     atomic.Bool
		stopped  = make(chan struct{})
	)
	go func() {
		defer close(stopped)
		for !stop.Load() {
			if err := s.Send(alert); err != nil {
				t.Error(err)
				return
			}
			accepted.Add(1)
		}
	}()

	// Wait for Send to stop making progress.
	deadline := time.Now().Add(10 * time.Second)
	last := int64(-1)
	for n := accepted.Load(); n != last; n = accepted.Load() {
		if time.Now().After(deadline) {
			t.Fatalf("Send never blocked: %d alerts accepted", n)
		}
		last = n
		time.Sleep(100 * time.Millisecond)
	}
	select {
	case <-stopped:
		t.Fatal("emitter exited instead of blocking")
	default:
	}
	s.mu.Lock()
	pending := len(s.pending)
	s.mu.Unlock()
	if pending < maxPending || pending > maxPending+frame {
		t.Errorf("pending = %d bytes, bound %d", pending, maxPending+frame)
	}

	// Resume the consumer: the blocked Send completes, the emitter stops,
	// and Close delivers everything accepted.
	stop.Store(true)
	read := make(chan []byte)
	go func() {
		data, _ := io.ReadAll(srv)
		read <- data
	}()
	<-stopped
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	data := <-read
	if got, want := bytes.Count(data, frameSep), int(accepted.Load()); got != want {
		t.Errorf("consumer received %d frames, sender accepted %d", got, want)
	}
}

// TestSenderSendZeroAllocs pins the steady-state Send path: encoding into
// the pending buffer and handing it to the writer allocate nothing.
func TestSenderSendZeroAllocs(t *testing.T) {
	addr, _ := countingListener(t, discard)
	s, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	s.SetMetrics(NewSenderMetrics(telemetry.NewRegistry()))
	alert := sampleAlert("steady-state")
	send := func() {
		if err := s.Send(alert); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 2000; i++ { // grow both buffers to their working size
		send()
	}
	if n := testing.AllocsPerRun(1000, send); n != 0 {
		t.Errorf("Send allocates %.2f times per alert, want 0", n)
	}
}
