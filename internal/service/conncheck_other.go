//go:build !unix

package service

import "net"

// connAlive has no portable non-blocking probe here, so a parked
// connection is never reused: every request dials.
func connAlive(net.Conn) bool { return false }
