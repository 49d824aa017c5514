package main

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"net"
	"net/http"
	"time"
)

// client is one load-generator connection to tempod: a minimal
// synchronous HTTP/1.1 client over a single kept-alive TCP connection, so
// a generator with nproc clients holds at most nproc connections for the
// whole run. Unlike net/http's client, a request runs on the calling
// goroutine alone, with no per-connection reader and writer goroutines to
// hand off to, so the generator's own CPU and scheduling delays stay small
// next to tempod's.
type client struct {
	addr string // host:port
	conn net.Conn
	br   *bufio.Reader
	req  bytes.Buffer
}

func newClient(base string) *client {
	return &client{addr: base[len("http://"):]}
}

// do sends one request and returns the status and the whole body. The
// body slice is the caller's to keep. A request that fails is never
// retried: it may have reached tempod, and a tick must not run twice.
func (c *client) do(method, path string, body []byte) (int, []byte, error) {
	if c.conn == nil {
		conn, err := net.DialTimeout("tcp", c.addr, 10*time.Second)
		if err != nil {
			return 0, nil, err
		}
		c.conn, c.br = conn, bufio.NewReaderSize(conn, 16<<10)
	}
	c.req.Reset()
	fmt.Fprintf(&c.req, "%s %s HTTP/1.1\r\nHost: %s\r\n", method, path, c.addr)
	if body != nil {
		fmt.Fprintf(&c.req, "Content-Type: application/json\r\nContent-Length: %d\r\n", len(body))
	}
	c.req.WriteString("\r\n")
	c.req.Write(body)
	status, raw, err := c.roundTrip()
	if err != nil {
		c.close()
	}
	return status, raw, err
}

// roundTrip writes the buffered request and reads one response.
func (c *client) roundTrip() (int, []byte, error) {
	c.conn.SetDeadline(time.Now().Add(60 * time.Second)) //nolint:errcheck // a failed deadline surfaces as the I/O error below
	if _, err := c.conn.Write(c.req.Bytes()); err != nil {
		return 0, nil, err
	}
	resp, err := http.ReadResponse(c.br, nil)
	if err != nil {
		return 0, nil, err
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return resp.StatusCode, nil, err
	}
	if resp.Close {
		c.close()
	}
	return resp.StatusCode, raw, nil
}

// ok sends one request and fails unless the response is 2xx.
func (c *client) ok(method, path string, body []byte) ([]byte, error) {
	status, raw, err := c.do(method, path, body)
	if err != nil {
		return nil, err
	}
	if status/100 != 2 {
		return nil, fmt.Errorf("%s %s: status %d: %s", method, path, status, bytes.TrimSpace(raw))
	}
	return raw, nil
}

func (c *client) close() {
	if c.conn != nil {
		c.conn.Close()
		c.conn, c.br = nil, nil
	}
}
