package cluster

import "net"

// SetTestDial installs dial in place of net.Dial for every transport dial
// until the returned restore runs.
func SetTestDial(dial func(network, addr string) (net.Conn, error)) (restore func()) {
	testDial = dial
	return func() { testDial = nil }
}
