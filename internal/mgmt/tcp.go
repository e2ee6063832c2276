package mgmt

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"slices"
	"sync"
	"time"
)

// The out-of-band transport frames protocol messages over a TCP stream
// with a 4-byte big-endian length prefix. Each end reads and writes a
// connection through one bufio.Reader and one bufio.Writer, so a frame
// costs one write each way (header and message flushed together) while
// the bytes on the wire are the same as two separate writes.

const maxFrame = MaxBody + 64

// frameStep bounds how far readFrame allocates ahead of the body bytes
// that have arrived: a header alone pins at most frameStep, and the body
// buffer at most doubles as the rest comes in.
const frameStep = 64 << 10

// writeFrame puts the length prefix and msg into w and flushes them as
// one write when both fit in w's buffer; a larger msg goes straight
// through after the first buffer-full, a second write. The prefix is
// appended in w's own buffer, so framing allocates nothing; a failed
// Write stays in w for Flush to return.
func writeFrame(w *bufio.Writer, msg []byte) error {
	w.Write(binary.BigEndian.AppendUint32(w.AvailableBuffer(), uint32(len(msg))))
	w.Write(msg)
	return w.Flush()
}

// readFrame returns the next frame's message. The prefix is peeked in
// r's buffer, so only the message is allocated.
func readFrame(r *bufio.Reader) ([]byte, error) {
	hdr, err := r.Peek(4)
	if err != nil {
		return nil, err
	}
	n := binary.BigEndian.Uint32(hdr)
	r.Discard(4) // cannot fail: the 4 bytes are buffered
	if n > maxFrame {
		return nil, fmt.Errorf("mgmt: frame of %d bytes exceeds limit", n)
	}
	size := int(n)
	buf := make([]byte, min(size, frameStep))
	for off := 0; ; {
		if _, err := io.ReadFull(r, buf[off:]); err != nil {
			return nil, err
		}
		if len(buf) == size {
			return buf, nil
		}
		off = len(buf)
		next := min(size, 2*off)
		buf = slices.Grow(buf, next-off)[:next]
	}
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
	r, w := bufio.NewReader(conn), bufio.NewWriter(conn)
	for {
		if s.ReadTimeout > 0 {
			conn.SetReadDeadline(time.Now().Add(s.ReadTimeout))
		}
		req, err := readFrame(r)
		if err != nil {
			return
		}
		resp := s.handler(req)
		if s.WriteTimeout > 0 {
			conn.SetWriteDeadline(time.Now().Add(s.WriteTimeout))
		}
		if err := writeFrame(w, resp); err != nil {
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
	r       *bufio.Reader // conn's reader and writer, fresh per dial
	w       *bufio.Writer
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
	t := &TCPTransport{addr: addr}
	t.attachLocked(conn)
	return t, nil
}

// clientWriteSize sizes a TCPTransport's write buffer to hold a whole
// XferChunk frame, so an OTA chunk leaves in one write like every smaller
// request (bufio flushes a buffered prefix separately from a body too
// large to join it).
const clientWriteSize = 4 + headerSize + xferChunkBody

// attachLocked makes conn the transport's connection, with a new reader
// and writer: nothing buffered for an earlier connection can leak into
// its frames.
func (t *TCPTransport) attachLocked(conn net.Conn) {
	t.conn, t.r, t.w = conn, bufio.NewReader(conn), bufio.NewWriterSize(conn, clientWriteSize)
}

// SetTimeout installs a per-request deadline covering the write and the
// response read; 0 disables it.
func (t *TCPTransport) SetTimeout(d time.Duration) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.timeout = d
	if d <= 0 && t.conn != nil {
		// Do sets no deadline without a timeout, so clear the last one.
		t.conn.SetDeadline(time.Time{})
	}
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
		t.attachLocked(conn)
	}
	if t.timeout > 0 {
		t.conn.SetDeadline(time.Now().Add(t.timeout))
	}
	if err := writeFrame(t.w, req); err != nil {
		t.dropConnLocked()
		return nil, err
	}
	resp, err := readFrame(t.r)
	if err != nil {
		t.dropConnLocked()
		return nil, err
	}
	return resp, nil
}

func (t *TCPTransport) dropConnLocked() {
	if t.conn != nil {
		t.conn.Close()
		t.conn, t.r, t.w = nil, nil, nil
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
	t.conn, t.r, t.w = nil, nil, nil
	return err
}
