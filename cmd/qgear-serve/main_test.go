package main

import (
	"errors"
	"net"
	"net/http"
	"os"
	"testing"
	"time"
)

// TestEdgeTimeouts: the edge server sets every timeout, leaves a legal
// long poll room to answer, and closes a connection whose request line
// never completes.
func TestEdgeTimeouts(t *testing.T) {
	const maxWaitMs = 30000
	srv := newHTTPServer("127.0.0.1:0", http.NotFoundHandler(), maxWaitMs)
	if srv.ReadHeaderTimeout <= 0 || srv.ReadTimeout <= 0 || srv.IdleTimeout <= 0 {
		t.Fatalf("unset read/idle timeouts: header %v, read %v, idle %v",
			srv.ReadHeaderTimeout, srv.ReadTimeout, srv.IdleTimeout)
	}
	if srv.WriteTimeout <= maxWaitMs*time.Millisecond {
		t.Fatalf("write timeout %v would cut a %d ms long poll", srv.WriteTimeout, maxWaitMs)
	}

	// The stalled-client check runs over a real socket; only the header
	// budget is shortened so the test does not sit out the production
	// value.
	srv.ReadHeaderTimeout = 100 * time.Millisecond
	l, err := net.Listen("tcp", srv.Addr)
	if err != nil {
		t.Fatal(err)
	}
	served := make(chan error, 1)
	go func() { served <- srv.Serve(l) }()
	defer func() {
		srv.Close()
		<-served
	}()

	conn, err := net.Dial("tcp", l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Write([]byte("GET /v1/hea")); err != nil {
		t.Fatal(err)
	}
	if err := conn.SetReadDeadline(time.Now().Add(10 * time.Second)); err != nil {
		t.Fatal(err)
	}
	// The server either closes silently or answers the torn request
	// with an error status and closes; read to the end of the stream.
	buf := make([]byte, 512)
	for {
		_, err = conn.Read(buf)
		if err != nil {
			break
		}
	}
	if errors.Is(err, os.ErrDeadlineExceeded) {
		t.Fatal("server kept a connection with half a request line open")
	}
}
