package mgmt

import (
	"io"
	"net"
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
