//go:build !(linux && amd64)

package main

import (
	"net"
	"net/netip"
)

// batchWriter falls back to one write per datagram where sendmmsg is
// not wired up.
type batchWriter struct{ conn *net.UDPConn }

func newBatchWriter(conn *net.UDPConn) (*batchWriter, error) { return &batchWriter{conn: conn}, nil }

func (w *batchWriter) write(raws [][]byte, dsts []netip.AddrPort) (int, error) {
	n := min(len(raws), maxBatch)
	for i := 0; i < n; i++ {
		if _, err := w.conn.WriteToUDPAddrPort(raws[i], dsts[i]); err != nil {
			return i, err
		}
	}
	return n, nil
}
