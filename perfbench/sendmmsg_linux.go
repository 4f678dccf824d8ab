//go:build linux && amd64

package main

import (
	"net"
	"net/netip"
	"syscall"
	"unsafe"
)

// mmsgHdr matches struct mmsghdr on linux/amd64.
type mmsgHdr struct {
	hdr syscall.Msghdr
	len uint32
	_   [4]byte
}

// sysSendmmsg is SYS_SENDMMSG on linux/amd64 (the syscall package does
// not export it).
const sysSendmmsg = 307

// batchWriter sends many datagrams, each to its own destination, per
// sendmmsg call on an unconnected socket.
type batchWriter struct {
	rc    syscall.RawConn
	iovs  []syscall.Iovec
	names []syscall.RawSockaddrInet4
	hdrs  []mmsgHdr
}

func newBatchWriter(conn *net.UDPConn) (*batchWriter, error) {
	rc, err := conn.SyscallConn()
	if err != nil {
		return nil, err
	}
	return &batchWriter{
		rc:    rc,
		iovs:  make([]syscall.Iovec, maxBatch),
		names: make([]syscall.RawSockaddrInet4, maxBatch),
		hdrs:  make([]mmsgHdr, maxBatch),
	}, nil
}

// write sends raws[i] to dsts[i] (at most maxBatch of them) and returns
// how many the kernel took.
func (w *batchWriter) write(raws [][]byte, dsts []netip.AddrPort) (int, error) {
	n := min(len(raws), maxBatch)
	for i := 0; i < n; i++ {
		raw, dst := raws[i], dsts[i]
		port := dst.Port()
		w.names[i] = syscall.RawSockaddrInet4{
			Family: syscall.AF_INET,
			Port:   port<<8 | port>>8, // network byte order
			Addr:   dst.Addr().As4(),
		}
		w.iovs[i] = syscall.Iovec{Base: &raw[0], Len: uint64(len(raw))}
		w.hdrs[i] = mmsgHdr{hdr: syscall.Msghdr{
			Name:    (*byte)(unsafe.Pointer(&w.names[i])),
			Namelen: syscall.SizeofSockaddrInet4,
			Iov:     &w.iovs[i],
			Iovlen:  1,
		}}
	}
	var (
		sent  int
		errno syscall.Errno
	)
	err := w.rc.Write(func(fd uintptr) bool {
		r, _, e := syscall.Syscall6(sysSendmmsg, fd, uintptr(unsafe.Pointer(&w.hdrs[0])), uintptr(n), 0, 0, 0)
		if e == syscall.EAGAIN {
			return false // wait until writable, then retry
		}
		sent, errno = int(r), e
		return true
	})
	if err != nil {
		return 0, err
	}
	if errno != 0 {
		return 0, errno
	}
	return sent, nil
}
