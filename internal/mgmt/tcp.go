package mgmt

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"time"
)

// The out-of-band transport frames protocol messages over a TCP stream
// with a 4-byte big-endian length prefix.

const maxFrame = MaxBody + 64

func writeFrame(w io.Writer, msg []byte) error {
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], uint32(len(msg)))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	_, err := w.Write(msg)
	return err
}

func readFrame(r io.Reader) ([]byte, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, err
	}
	n := binary.BigEndian.Uint32(hdr[:])
	if n > maxFrame {
		return nil, fmt.Errorf("mgmt: frame of %d bytes exceeds limit", n)
	}
	buf := make([]byte, n)
	if _, err := io.ReadFull(r, buf); err != nil {
		return nil, err
	}
	return buf, nil
}

// Server serves an agent's Handle function over TCP (the out-of-band
// management port of §4.1).
type Server struct {
	handler func([]byte) []byte

	// ReadTimeout bounds how long a connection may sit idle or trickle
	// bytes mid-frame before the serving goroutine gives up and closes
	// it; 0 means no deadline. Set before Listen.
	ReadTimeout time.Duration
	// WriteTimeout bounds each response write; a peer that stops
	// draining its socket cannot wedge the goroutine. 0 = no deadline.
	WriteTimeout time.Duration

	mu    sync.Mutex
	ln    net.Listener
	conns map[net.Conn]struct{}
	done  chan struct{}
}

// NewServer wraps a message handler (normally Agent.Handle).
func NewServer(handler func([]byte) []byte) *Server {
	return &Server{
		handler: handler,
		conns:   make(map[net.Conn]struct{}),
		done:    make(chan struct{}),
	}
}

// Listen starts accepting on addr ("127.0.0.1:0" for an ephemeral port)
// and returns the bound address. Serving happens on background
// goroutines until Close.
func (s *Server) Listen(addr string) (string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", err
	}
	s.mu.Lock()
	s.ln = ln
	s.mu.Unlock()
	go s.acceptLoop(ln)
	return ln.Addr().String(), nil
}

func (s *Server) acceptLoop(ln net.Listener) {
	for {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		s.mu.Lock()
		if s.ln != ln {
			// Accepted just before Close (or a later Listen) replaced ln:
			// Close has already swept the connections, so this one must
			// not be served.
			s.mu.Unlock()
			conn.Close()
			return
		}
		s.conns[conn] = struct{}{}
		s.mu.Unlock()
		go s.serveConn(conn)
	}
}

func (s *Server) serveConn(conn net.Conn) {
	defer func() {
		conn.Close()
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
	}()
	for {
		if s.ReadTimeout > 0 {
			conn.SetReadDeadline(time.Now().Add(s.ReadTimeout))
		}
		req, err := readFrame(conn)
		if err != nil {
			return
		}
		resp := s.handler(req)
		if s.WriteTimeout > 0 {
			conn.SetWriteDeadline(time.Now().Add(s.WriteTimeout))
		}
		if err := writeFrame(conn, resp); err != nil {
			return
		}
	}
}

// Close stops the listener and all connections.
func (s *Server) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	var err error
	if s.ln != nil {
		err = s.ln.Close()
		s.ln = nil
	}
	for c := range s.conns {
		c.Close()
	}
	s.conns = map[net.Conn]struct{}{}
	return err
}

// TCPTransport is a client-side Transport over one TCP connection.
// Requests are serialized: one in flight at a time. Any I/O error closes
// the connection (a half-finished exchange would desynchronize framing);
// the next Do redials transparently, so a retrying Client recovers from
// drops without help.
type TCPTransport struct {
	mu      sync.Mutex
	conn    net.Conn
	addr    string
	timeout time.Duration
	closed  bool
}

// Dial connects to a module's management address.
func Dial(addr string) (*TCPTransport, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	return &TCPTransport{conn: conn, addr: addr}, nil
}

// SetTimeout installs a per-request deadline covering the write and the
// response read; 0 disables it.
func (t *TCPTransport) SetTimeout(d time.Duration) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.timeout = d
}

// Do implements Transport.
func (t *TCPTransport) Do(req []byte) ([]byte, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.conn == nil {
		if t.closed || t.addr == "" {
			return nil, errors.New("mgmt: transport closed")
		}
		conn, err := net.Dial("tcp", t.addr)
		if err != nil {
			return nil, err
		}
		t.conn = conn
	}
	if t.timeout > 0 {
		t.conn.SetDeadline(time.Now().Add(t.timeout))
	}
	if err := writeFrame(t.conn, req); err != nil {
		t.dropConnLocked()
		return nil, err
	}
	resp, err := readFrame(t.conn)
	if err != nil {
		t.dropConnLocked()
		return nil, err
	}
	return resp, nil
}

func (t *TCPTransport) dropConnLocked() {
	if t.conn != nil {
		t.conn.Close()
		t.conn = nil
	}
}

// Close closes the connection and disables redialing.
func (t *TCPTransport) Close() error {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.closed = true
	if t.conn == nil {
		return nil
	}
	err := t.conn.Close()
	t.conn = nil
	return err
}
