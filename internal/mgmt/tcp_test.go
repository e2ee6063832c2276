package mgmt

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// lateListener hands out its one connection only once Close has been
// called: the connection Accept returned just before the server closed.
type lateListener struct {
	closed chan struct{}
	once   sync.Once
	conn   net.Conn
}

func (l *lateListener) Accept() (net.Conn, error) {
	<-l.closed
	if c := l.conn; c != nil {
		l.conn = nil
		return c, nil
	}
	return nil, net.ErrClosed
}

func (l *lateListener) Close() error {
	l.once.Do(func() { close(l.closed) })
	return nil
}

func (l *lateListener) Addr() net.Addr { return &net.TCPAddr{} }

// TestServerDropsConnAcceptedDuringClose: a connection that Accept
// returns while Close runs is closed, not registered and served after
// Close has swept the connection set.
func TestServerDropsConnAcceptedDuringClose(t *testing.T) {
	srvEnd, cliEnd := net.Pipe()
	defer cliEnd.Close()
	ln := &lateListener{closed: make(chan struct{}), conn: srvEnd}
	srv := NewServer(func(req []byte) []byte { return req })
	srv.mu.Lock()
	srv.ln = ln // what Listen does with a real listener
	srv.mu.Unlock()
	go srv.acceptLoop(ln)
	srv.Close()
	cliEnd.SetReadDeadline(time.Now().Add(2 * time.Second))
	var b [1]byte
	if _, err := cliEnd.Read(b[:]); err != io.EOF {
		t.Fatalf("read from a connection accepted during Close = %v, want EOF", err)
	}
}

// TestServerTimesOutHungClient covers the slow-loris case: a client that
// opens a connection and trickles (or stops sending) a frame must not pin
// its serving goroutine forever — the read deadline closes it, and other
// clients keep getting served.
func TestServerTimesOutHungClient(t *testing.T) {
	_, a, _ := newAgentModule(t)
	srv := NewServer(a.Handle)
	srv.ReadTimeout = 100 * time.Millisecond
	srv.WriteTimeout = time.Second
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	raw, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer raw.Close()
	// Half a length prefix, then silence.
	if _, err := raw.Write([]byte{0, 0}); err != nil {
		t.Fatal(err)
	}
	raw.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := raw.Read(make([]byte, 1)); err == nil {
		t.Fatal("server kept the hung connection open")
	} else if ne, ok := err.(net.Error); ok && ne.Timeout() {
		t.Fatal("server never closed the hung connection")
	}

	// The server is still healthy for well-behaved clients.
	tr, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	if _, err := NewClient(tr).Ping(); err != nil {
		t.Fatalf("ping after hung client: %v", err)
	}
}

// TestTransportTimeoutDropsConnAndRedials covers the client side: a stalled
// request hits the per-request deadline, the connection is closed (framing
// would be desynchronized), and the next request transparently redials.
func TestTransportTimeoutDropsConnAndRedials(t *testing.T) {
	_, a, _ := newAgentModule(t)
	var first atomic.Bool
	first.Store(true)
	srv := NewServer(func(req []byte) []byte {
		if first.Swap(false) {
			time.Sleep(400 * time.Millisecond) // wedged agent, first request only
		}
		return a.Handle(req)
	})
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	tr, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	c := NewClient(tr)
	// RequestTimeout reaches the transport through SetRetryPolicy.
	c.SetRetryPolicy(RetryPolicy{MaxAttempts: 1, RequestTimeout: 80 * time.Millisecond})

	if _, err := c.Ping(); err == nil {
		t.Fatal("stalled request did not time out")
	}
	// Next request succeeds over a fresh connection.
	info, err := c.Ping()
	if err != nil {
		t.Fatalf("redial after timeout: %v", err)
	}
	if info.Name != "sfp-7" {
		t.Errorf("info = %+v", info)
	}
}

func TestTransportClosedDoesNotRedial(t *testing.T) {
	_, a, _ := newAgentModule(t)
	srv := NewServer(a.Handle)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	tr, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewClient(tr).Ping(); err != nil {
		t.Fatal(err)
	}
	tr.Close()
	if _, err := tr.Do([]byte{1}); err == nil {
		t.Error("Do succeeded on a closed transport")
	}
}

// countingConn records every Write on a connection and the bytes it
// carried.
type countingConn struct {
	net.Conn
	mu     sync.Mutex
	writes int
	sent   []byte
}

func (c *countingConn) Write(p []byte) (int, error) {
	c.mu.Lock()
	c.writes++
	c.sent = append(c.sent, p...)
	c.mu.Unlock()
	return c.Conn.Write(p)
}

func (c *countingConn) counts() (int, []byte) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.writes, append([]byte(nil), c.sent...)
}

// countWrites serves an agent over one end of a pipe, runs call with a
// client on the other, and returns how many Writes each end made and the
// bytes the client sent.
func countWrites(t *testing.T, call func(*Client)) (cliWrites, srvWrites int, sent []byte) {
	t.Helper()
	_, a, _ := newAgentModule(t)
	srvEnd, cliEnd := net.Pipe()
	srvConn := &countingConn{Conn: srvEnd}
	cliConn := &countingConn{Conn: cliEnd}
	srv := NewServer(a.Handle)
	srv.conns[srvConn] = struct{}{}
	done := make(chan struct{})
	go func() {
		srv.serveConn(srvConn)
		close(done)
	}()
	tr := &TCPTransport{}
	tr.attachLocked(cliConn)
	call(NewClient(tr))
	tr.Close()
	<-done
	cliWrites, sent = cliConn.counts()
	srvWrites, _ = srvConn.counts()
	return cliWrites, srvWrites, sent
}

// framed is msg as it goes on the wire: its big-endian length, then msg.
func framed(msg []byte) []byte {
	return append(binary.BigEndian.AppendUint32(nil, uint32(len(msg))), msg...)
}

// TestPingIsOneWriteEachWay pins the framing cost: a Ping is exactly one
// Write from the client and one from the server, and the client's bytes
// are the big-endian length followed by the encoded message.
func TestPingIsOneWriteEachWay(t *testing.T) {
	cliWrites, srvWrites, sent := countWrites(t, func(c *Client) {
		if _, err := c.Ping(); err != nil {
			t.Fatal(err)
		}
	})
	if cliWrites != 1 || srvWrites != 1 {
		t.Errorf("writes per Ping: client %d, server %d; want 1 and 1", cliWrites, srvWrites)
	}
	if want := framed(Message{Type: MsgPing, ReqID: 1}.Encode()); !bytes.Equal(sent, want) {
		t.Errorf("client bytes = %x, want %x", sent, want)
	}
}

// TestXferChunkIsOneWrite: a full-size OTA chunk leaves the client in
// one Write too, with the same bytes as any other frame.
func TestXferChunkIsOneWrite(t *testing.T) {
	var body bodyWriter
	body.u32(0)
	body.bytes(bytes.Repeat([]byte{0xa5}, XferChunkSize))
	cliWrites, _, sent := countWrites(t, func(c *Client) {
		// No transfer was begun, so the agent refuses the chunk.
		var re *RemoteError
		if _, err := c.do(MsgXferChunk, body.b); !errors.As(err, &re) || re.Code != CodeBadState {
			t.Errorf("chunk without begin: %v", err)
		}
	})
	if cliWrites != 1 {
		t.Errorf("writes per XferChunk: client %d, want 1", cliWrites)
	}
	if want := framed(Message{Type: MsgXferChunk, ReqID: 1, Body: body.b}.Encode()); !bytes.Equal(sent, want) {
		t.Errorf("client sent %d B, want the %d B frame", len(sent), len(want))
	}
}

// TestReadFrameHeaderOnlyAllocatesLittle: a header claiming the largest
// frame, with no body behind it, must not make readFrame allocate the
// claimed size up front.
func TestReadFrameHeaderOnlyAllocatesLittle(t *testing.T) {
	hdr := binary.BigEndian.AppendUint32(nil, maxFrame)
	least := ^uint64(0)
	for range 5 { // the smallest reading screens out other goroutines
		r := bufio.NewReader(bytes.NewReader(hdr))
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := readFrame(r)
		runtime.ReadMemStats(&after)
		if err == nil {
			t.Fatal("header-only frame read without error")
		}
		least = min(least, after.TotalAlloc-before.TotalAlloc)
	}
	if least >= 128<<10 {
		t.Errorf("header-only frame allocated %d B, want < 128 KiB", least)
	}
}

// TestReadFrameGrowsAcrossSteps: bodies around and past frameStep come
// back intact however the stream is split into reads.
func TestReadFrameGrowsAcrossSteps(t *testing.T) {
	for _, size := range []int{0, 1, frameStep - 1, frameStep, frameStep + 1, 3*frameStep + 7, maxFrame} {
		msg := make([]byte, size)
		for i := range msg {
			msg[i] = byte(i * 7)
		}
		var stream bytes.Buffer
		w := bufio.NewWriter(&stream)
		if err := writeFrame(w, msg); err != nil {
			t.Fatal(err)
		}
		for name, split := range frameSplits {
			got, err := readFrame(bufio.NewReader(split(bytes.NewReader(stream.Bytes()))))
			if err != nil || !bytes.Equal(got, msg) {
				t.Errorf("%s, %d B: got %d B, err %v", name, size, len(got), err)
			}
		}
	}
}

// TestTransportSetTimeoutZeroClearsDeadline: SetTimeout(0) takes the
// deadline an earlier timeout left on the connection off it.
func TestTransportSetTimeoutZeroClearsDeadline(t *testing.T) {
	_, a, _ := newAgentModule(t)
	srv := NewServer(a.Handle)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	tr, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	c := NewClient(tr)
	tr.SetTimeout(50 * time.Millisecond)
	if _, err := c.Ping(); err != nil {
		t.Fatal(err)
	}
	tr.SetTimeout(0)
	time.Sleep(100 * time.Millisecond)
	if _, err := c.Ping(); err != nil {
		t.Fatalf("ping after SetTimeout(0): %v", err)
	}
}

// TestTransportRedialDropsStaleBytes: a server that sends half a
// response and stalls makes the request time out; the redialed
// connection's reply is read from a clean reader, not spliced onto the
// old connection's leftover bytes.
func TestTransportRedialDropsStaleBytes(t *testing.T) {
	_, a, _ := newAgentModule(t)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	stall := make(chan struct{})
	defer close(stall)
	srv := NewServer(a.Handle)
	defer srv.Close()
	go func() {
		// First connection: read the request, answer with the length
		// and half the body of a frame, then go silent.
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		req, err := readFrame(bufio.NewReader(conn))
		if err != nil {
			return
		}
		resp := a.Handle(req)
		half := binary.BigEndian.AppendUint32(nil, uint32(len(resp)))
		conn.Write(append(half, resp[:len(resp)/2]...))

		// Second connection: served normally.
		next, err := ln.Accept()
		if err != nil {
			return
		}
		srv.mu.Lock()
		srv.conns[next] = struct{}{}
		srv.mu.Unlock()
		go srv.serveConn(next)
		<-stall
	}()

	tr, err := Dial(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	c := NewClient(tr)
	tr.SetTimeout(100 * time.Millisecond)
	if _, err := c.Ping(); err == nil {
		t.Fatal("half a response did not time out")
	}
	tr.SetTimeout(5 * time.Second)
	info, err := c.Ping()
	if err != nil {
		t.Fatalf("ping after redial: %v", err)
	}
	if info.Name != "sfp-7" {
		t.Errorf("info = %+v", info)
	}
}
