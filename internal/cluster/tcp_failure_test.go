package cluster

import (
	"encoding/binary"
	"net"
	"testing"
	"time"
)

// Failure injection for the TCP transport: malformed handshakes and
// protocol violations must produce errors, not hangs or crashes.

func TestTCPRootRejectsBadMagic(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	done := make(chan error, 1)
	go func() {
		_, err := NewTCPRoot(ln, 2)
		done <- err
	}()
	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	var hello [8]byte
	binary.LittleEndian.PutUint32(hello[:4], 0xDEAD)
	binary.LittleEndian.PutUint32(hello[4:], 1)
	if _, err := conn.Write(hello[:]); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-done:
		if err == nil {
			t.Error("bad magic accepted")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("root hung on bad magic")
	}
}

func TestTCPRootRejectsDuplicateRank(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	done := make(chan error, 1)
	go func() {
		_, err := NewTCPRoot(ln, 3)
		done <- err
	}()
	dial := func(rank uint32) net.Conn {
		conn, err := net.Dial("tcp", ln.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		var hello [8]byte
		binary.LittleEndian.PutUint32(hello[:4], tcpMagic)
		binary.LittleEndian.PutUint32(hello[4:], rank)
		if _, err := conn.Write(hello[:]); err != nil {
			t.Fatal(err)
		}
		return conn
	}
	c1 := dial(1)
	defer c1.Close()
	c2 := dial(1) // duplicate
	defer c2.Close()
	select {
	case err := <-done:
		if err == nil {
			t.Error("duplicate rank accepted")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("root hung on duplicate rank")
	}
}

func TestTCPRootRejectsOutOfRangeRank(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	done := make(chan error, 1)
	go func() {
		_, err := NewTCPRoot(ln, 2)
		done <- err
	}()
	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	var hello [8]byte
	binary.LittleEndian.PutUint32(hello[:4], tcpMagic)
	binary.LittleEndian.PutUint32(hello[4:], 9) // size is 2: invalid
	if _, err := conn.Write(hello[:]); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-done:
		if err == nil {
			t.Error("out-of-range rank accepted")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("root hung")
	}
}

func TestTCPWorkerErrorOnClosedRoot(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	accepted := make(chan net.Conn, 1)
	go func() {
		c, err := ln.Accept()
		if err == nil {
			accepted <- c
		}
	}()
	w, err := DialTCP(addr, 1, 2)
	if err != nil {
		t.Fatal(err)
	}
	// Kill the root side mid-protocol: the worker's next collective must
	// fail rather than hang.
	conn := <-accepted
	conn.Close()
	ln.Close()
	errCh := make(chan error, 1)
	go func() { errCh <- w.AllreduceSum([]float64{1}) }()
	select {
	case err := <-errCh:
		if err == nil {
			t.Error("collective succeeded against a dead root")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("worker hung against a dead root")
	}
}

func TestTCPSizeOne(t *testing.T) {
	// A 1-rank "cluster": the root needs no workers; collectives are
	// identities.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	c, err := NewTCPRoot(ln, 1)
	if err != nil {
		t.Fatal(err)
	}
	buf := []float64{3, 4}
	if err := c.AllreduceSum(buf); err != nil {
		t.Fatal(err)
	}
	if buf[0] != 3 || buf[1] != 4 {
		t.Errorf("1-rank allreduce changed data: %v", buf)
	}
}
