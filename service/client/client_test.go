package client

import (
	"bufio"
	"context"
	"io"
	"net"
	"net/http"
	"testing"
)

// TestDecompressForgedContentLength: a response claiming a terabyte body
// but delivering two bytes must come back as an error. readBody sizes its
// buffer from Content-Length, so trusting the header unclamped would end
// the process in an out-of-memory fatal error instead.
func TestDecompressForgedContentLength(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	defer ln.Close()
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		req, err := http.ReadRequest(bufio.NewReader(conn))
		if err != nil {
			return
		}
		_, _ = io.Copy(io.Discard, req.Body)
		_, _ = io.WriteString(conn, "HTTP/1.1 200 OK\r\nContent-Length: 1099511627776\r\n\r\nab")
	}()

	c := New("http://" + ln.Addr().String())
	if vals, err := c.Decompress(context.Background(), []byte("stream")); err == nil {
		t.Fatalf("forged Content-Length decoded to %d values, want an error", len(vals))
	}
}
