package main

// Driving the real infilterd binary: exec with the benchmark's one
// deployment config, port discovery from its log, /metrics scraping and
// /proc accounting.

import (
	"bufio"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// daemon is one running infilterd process.
type daemon struct {
	cmd     *exec.Cmd
	started time.Time
	ports   [numPeers]int
	admin   string
	exited  chan error
	logTail *tailBuffer
}

var (
	rePeer  = regexp.MustCompile(`peer AS (\d+) on udp/(\d+)`)
	reAdmin = regexp.MustCompile(`admin endpoint on http://(\S+) `)
)

// startDaemon execs infilterd and waits until every peer port is bound
// and the admin endpoint is up. model must not exist yet: the daemon
// trains the NNS detector and saves it there.
func startDaemon(bin, dir, model string, alertPort int) (*daemon, error) {
	eiaPath := filepath.Join(dir, "eia.txt")
	if _, err := os.Stat(eiaPath); err != nil {
		f, err := os.Create(eiaPath)
		if err != nil {
			return nil, err
		}
		werr := writeEIA(f)
		if err := f.Close(); werr == nil {
			werr = err
		}
		if werr != nil {
			return nil, fmt.Errorf("write EIA file: %w", werr)
		}
	}
	ports := strings.TrimSuffix(strings.Repeat("0,", numPeers), ",")
	cmd := exec.Command(bin,
		"-mode", "EI",
		"-ttl-tolerance", "2",
		"-ports", ports,
		"-eia-file", eiaPath,
		"-model", model,
		"-alert", fmt.Sprintf("127.0.0.1:%d", alertPort),
		"-admin-addr", "127.0.0.1:0",
	)
	stderr, err := cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	d := &daemon{cmd: cmd, exited: make(chan error, 1), logTail: &tailBuffer{}}
	d.started = time.Now()
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start %s: %w", bin, err)
	}
	ready := make(chan struct{})
	go d.readLog(stderr, ready)
	go func() { d.exited <- cmd.Wait() }()
	select {
	case <-ready:
		return d, nil
	case err := <-d.exited:
		return nil, fmt.Errorf("infilterd exited during start-up: %v\n%s", err, d.logTail)
	case <-time.After(60 * time.Second):
		d.kill()
		return nil, fmt.Errorf("infilterd not ready after 60s\n%s", d.logTail)
	}
}

// readLog scans the daemon's log for the bound ports and admin address,
// closing ready once all are known, and keeps a tail for diagnostics.
func (d *daemon) readLog(r io.Reader, ready chan struct{}) {
	sc := bufio.NewScanner(r)
	seen := 0
	for sc.Scan() {
		line := sc.Text()
		d.logTail.add(line)
		if seen > numPeers {
			continue
		}
		if m := rePeer.FindStringSubmatch(line); m != nil {
			p, _ := strconv.Atoi(m[1])
			port, _ := strconv.Atoi(m[2])
			if p >= 1 && p <= numPeers {
				d.ports[p-1] = port
				seen++
			}
		} else if m := reAdmin.FindStringSubmatch(line); m != nil {
			d.admin = m[1]
			seen++
		}
		if seen == numPeers+1 {
			seen++
			close(ready)
		}
	}
}

// stop sends SIGTERM, waits for the drain and the exit.
func (d *daemon) stop() error {
	_ = d.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case err := <-d.exited:
		return err
	case <-time.After(60 * time.Second):
		d.kill()
		return fmt.Errorf("infilterd did not exit after SIGTERM")
	}
}

func (d *daemon) kill() {
	_ = d.cmd.Process.Kill()
	<-d.exited
}

// cpuTicks returns the daemon's utime+stime in clock ticks.
func (d *daemon) cpuTicks() (int64, error) { return procTicks(d.cmd.Process.Pid) }

// procTicks returns a process's utime+stime in clock ticks.
func procTicks(pid int) (int64, error) {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesized command name; utime and stime are
	// fields 14 and 15 of the whole line.
	s := string(raw)
	i := strings.LastIndexByte(s, ')')
	f := strings.Fields(s[i+1:])
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc stat line")
	}
	ut, err1 := strconv.ParseInt(f[11], 10, 64)
	st, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("parse /proc stat: %q", s)
	}
	return ut + st, nil
}

// stealTicks returns the host's cumulative steal time in clock ticks
// (0 when /proc/stat does not report it): CPU time the hypervisor gave
// to other guests, a measure of the box's outside noise.
func stealTicks() int64 {
	raw, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	line, _, _ := strings.Cut(string(raw), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0
	}
	v, _ := strconv.ParseInt(f[8], 10, 64)
	return v
}

// clockTick is USER_HZ, the unit of /proc/<pid>/stat times on Linux.
const clockTick = 10 * time.Millisecond

// peakRSSMiB reads VmHWM from /proc/<pid>/status.
func (d *daemon) peakRSSMiB() (float64, error) {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", d.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if strings.HasPrefix(line, "VmHWM:") {
			f := strings.Fields(line)
			kb, err := strconv.ParseFloat(f[1], 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc status")
}

// settledMetrics scrapes /metrics until the last batch's accounting has
// landed: a shard folds its verdict counts in after the batch's alerts
// are out, so the last canary's alert can arrive before them. Settled
// means every ingested record has a verdict counted and every alert the
// consumer received is counted as sent.
func (d *daemon) settledMetrics(alerts int) (map[string]float64, error) {
	deadline := time.Now().Add(5 * time.Second)
	for {
		m, err := d.metrics()
		if err != nil {
			return nil, err
		}
		verdicts := m["infilter_eia_hits_total"] + m["infilter_eia_misses_total"]
		if (verdicts == m["infilter_collector_records_total"] && m["infilter_alerts_sent_total"] >= float64(alerts)) ||
			time.Now().After(deadline) {
			return m, nil
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// metrics scrapes /metrics and sums every series per family name.
func (d *daemon) metrics() (map[string]float64, error) {
	resp, err := http.Get("http://" + d.admin + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("/metrics: %s", resp.Status)
	}
	return parseMetrics(resp.Body)
}

// parseMetrics sums Prometheus text samples by metric name, labels
// dropped (so family-split counters read as their total).
func parseMetrics(r io.Reader) (map[string]float64, error) {
	out := make(map[string]float64)
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			continue
		}
		name := line[:sp]
		if i := strings.IndexByte(name, '{'); i >= 0 {
			name = name[:i]
		}
		v, err := strconv.ParseFloat(line[sp+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("metrics line %q: %w", line, err)
		}
		out[name] += v
	}
	return out, sc.Err()
}

// tailBuffer keeps the last lines of the daemon's log.
type tailBuffer struct {
	mu    sync.Mutex
	lines []string
}

func (t *tailBuffer) add(s string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.lines) >= 40 {
		t.lines = t.lines[1:]
	}
	t.lines = append(t.lines, s)
}

func (t *tailBuffer) String() string {
	t.mu.Lock()
	defer t.mu.Unlock()
	return strings.Join(t.lines, "\n")
}
