package main

// The alert consumer. The daemon's idmef.Sender frames each IDMEF
// document with a blank line; idmef.Consumer decodes every frame with
// encoding/xml, which on attack-ipfix costs the benchmark process about
// as much CPU as the daemon spends producing the alerts — on a 2-CPU box
// that contention, not the daemon, would set capacity_rps. This consumer
// reads the same frames and pulls out only the fields the checks use
// (source, target, stage, peer), by tag, in a few hundred nanoseconds.
// TestParseFrameMatchesIDMEF pins it to idmef.Marshal's output.

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"net"
	"strconv"
	"sync"

	"infilter/internal/netaddr"
)

// frameSep ends every alert document on the wire.
var frameSep = []byte("\n\n")

// consumer accepts the daemon's alert connection and hands every
// alert's key to handle.
type consumer struct {
	ln     net.Listener
	handle func(alertKey)
	bad    func()

	mu    sync.Mutex
	conns map[net.Conn]struct{}
	wg    sync.WaitGroup
}

func listenConsumer(handle func(alertKey), bad func()) (*consumer, int, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, 0, err
	}
	c := &consumer{ln: ln, handle: handle, bad: bad, conns: make(map[net.Conn]struct{})}
	c.wg.Add(1)
	go c.accept()
	return c, ln.Addr().(*net.TCPAddr).Port, nil
}

func (c *consumer) accept() {
	defer c.wg.Done()
	for {
		conn, err := c.ln.Accept()
		if err != nil {
			return // listener closed
		}
		c.mu.Lock()
		c.conns[conn] = struct{}{}
		c.mu.Unlock()
		c.wg.Add(1)
		go c.read(conn)
	}
}

func (c *consumer) read(conn net.Conn) {
	defer c.wg.Done()
	defer func() {
		conn.Close()
		c.mu.Lock()
		delete(c.conns, conn)
		c.mu.Unlock()
	}()
	sc := bufio.NewScanner(conn)
	sc.Buffer(make([]byte, 256<<10), 1<<20)
	sc.Split(splitFrames)
	for sc.Scan() {
		frame := sc.Bytes()
		if len(bytes.TrimSpace(frame)) == 0 {
			continue
		}
		k, err := parseFrame(frame)
		if err != nil {
			c.bad()
			continue
		}
		c.handle(k)
	}
}

// close stops accepting, closes the connections and waits for the
// readers to finish.
func (c *consumer) close() {
	c.ln.Close()
	c.mu.Lock()
	for conn := range c.conns {
		conn.Close()
	}
	c.mu.Unlock()
	c.wg.Wait()
}

func splitFrames(data []byte, atEOF bool) (advance int, token []byte, err error) {
	if i := bytes.Index(data, frameSep); i >= 0 {
		return i + len(frameSep), data[:i], nil
	}
	if atEOF {
		if len(data) == 0 {
			return 0, nil, io.EOF
		}
		return len(data), data, nil
	}
	return 0, nil, nil
}

// element returns the text of the first <tag>…</tag> in doc at or after
// from, and the offset just past it.
func element(doc []byte, tag string, from int) ([]byte, int, error) {
	open, closing := "<"+tag+">", "</"+tag+">"
	i := bytes.Index(doc[from:], []byte(open))
	if i < 0 {
		return nil, 0, fmt.Errorf("no <%s>", tag)
	}
	start := from + i + len(open)
	j := bytes.Index(doc[start:], []byte(closing))
	if j < 0 {
		return nil, 0, fmt.Errorf("unterminated <%s>", tag)
	}
	return doc[start : start+j], start + j + len(closing), nil
}

// parseFrame extracts an alert's key from one IDMEF document.
func parseFrame(doc []byte) (alertKey, error) {
	var k alertKey
	at := bytes.Index(doc, []byte("<Source>"))
	if at < 0 || !bytes.Contains(doc[:at], []byte(`<IDMEF-Message version="1.0">`)) {
		return k, fmt.Errorf("not an IDMEF 1.0 alert")
	}
	node := func(from int) (netaddr.Addr, uint16, int, error) {
		addr, next, err := element(doc, "Address", from)
		if err != nil {
			return netaddr.Addr{}, 0, 0, err
		}
		port, next, err := element(doc, "Port", next)
		if err != nil {
			return netaddr.Addr{}, 0, 0, err
		}
		a, err := netaddr.ParseAddr(string(addr))
		if err != nil {
			return netaddr.Addr{}, 0, 0, err
		}
		p, err := strconv.ParseUint(string(port), 10, 16)
		return a, uint16(p), next, err
	}
	src, sport, next, err := node(at)
	if err != nil {
		return k, err
	}
	dst, dport, next, err := node(next)
	if err != nil {
		return k, err
	}
	stage, next, err := element(doc, "Stage", next)
	if err != nil {
		return k, err
	}
	peer, _, err := element(doc, "PeerAS", next)
	if err != nil {
		return k, err
	}
	k.peer, err = strconv.Atoi(string(peer))
	k.id = flowID{src: src, dst: dst, sport: sport, dport: dport}
	k.stage = string(stage)
	return k, err
}
