//go:build unix

package service

import (
	"errors"
	"net"
	"syscall"
)

// connAlive reports whether a parked connection may carry another
// request: one non-blocking read on the raw socket must find nothing to
// read. EAGAIN means the peer is still there and silent; EOF means it
// closed the connection while it was parked, and stray bytes mean the
// stream is out of step. Either way the connection is not reused.
func connAlive(conn net.Conn) bool {
	sc, ok := conn.(syscall.Conn)
	if !ok {
		return false
	}
	rc, err := sc.SyscallConn()
	if err != nil {
		return false
	}
	var rerr error
	var b [1]byte
	err = rc.Read(func(fd uintptr) bool {
		_, rerr = syscall.Read(int(fd), b[:])
		return true // one attempt; never wait for readability
	})
	return err == nil && (errors.Is(rerr, syscall.EAGAIN) || errors.Is(rerr, syscall.EWOULDBLOCK))
}
