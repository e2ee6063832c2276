package mgmt

// Native fuzz harnesses for the protocol surface: the frame decoder must
// never panic on hostile bytes and must round-trip what it accepts, the
// TCP framing must survive any split of any stream, and the agent must
// answer any byte string with a well-formed response.

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"io"
	"sync"
	"testing"
	"testing/iotest"

	"flexsfp/internal/core"
	"flexsfp/internal/hls"
	"flexsfp/internal/netsim"
	"flexsfp/internal/telemetry"
)

// newFuzzAgentModule mirrors newAgentModule without *testing.T: fuzz
// setup runs outside any test context, so errors panic instead.
func newFuzzAgentModule() (*core.Module, *Agent, *netsim.Simulator) {
	sim := netsim.New(1)
	reg := core.NewRegistry()
	reg.Register("stateful", newStatefulApp)
	m := core.NewModule(core.Config{
		Sim: sim, Name: "fuzz-7", DeviceID: 7,
		Shell: hls.TwoWayCore, Registry: reg, AuthKey: fleetKey,
	})
	app := newStatefulApp()
	d, err := hls.Compile(app.Program(), hls.Options{ClockHz: 156_250_000, DatapathBits: 64})
	if err != nil {
		panic(err)
	}
	enc, _ := d.Bitstream.Encode()
	if _, err := m.Install(1, enc); err != nil {
		panic(err)
	}
	if err := m.BootSync(1); err != nil {
		panic(err)
	}
	return m, NewAgent(m), sim
}

// seedMessages covers every request shape the client can emit, so the
// corpus starts on the interesting paths instead of random headers.
func seedMessages() [][]byte {
	var tableBody bodyWriter
	tableBody.str("nat")
	tableBody.bytes([]byte{10, 0, 0, 1})
	tableBody.bytes([]byte{192, 0, 2, 1})
	var traceBody bodyWriter
	traceBody.u32(16)
	seeds := [][]byte{
		Message{Type: MsgPing, ReqID: 1}.Encode(),
		Message{Type: MsgStats, ReqID: 2}.Encode(),
		Message{Type: MsgTableAdd, ReqID: 3, Body: tableBody.b}.Encode(),
		Message{Type: MsgTelemetry, ReqID: 4}.Encode(),
		Message{Type: MsgTraceDump, ReqID: 5, Body: traceBody.b}.Encode(),
		Message{Type: MsgError, ReqID: 6, Body: errorBody(CodeBadBody, "x")}.Encode(),
		Message{Type: MsgEEPROM, ReqID: 7}.Encode(),
		Message{Type: MsgOverlayRegister, ReqID: 8, Body: EncodeOverlayRegister(OverlayEndpoint{
			Name: "cable-0", IP: [4]byte{10, 254, 0, 1}, MAC: [6]byte{2, 0xcc, 0, 0, 0, 1},
			Mode: 2, VNI: 4001, GREKey: 701,
			Prefixes: []OverlayPrefix{{IP: [4]byte{10, 200, 1, 0}, Len: 24}},
		})}.Encode(),
		Message{Type: MsgOverlayWithdraw, ReqID: 9, Body: EncodeOverlayWithdraw("cable-0")}.Encode(),
		Message{Type: MsgOverlayPeers, ReqID: 10}.Encode(),
		Message{Type: MsgOK, ReqID: 11, Body: EncodeOverlayTable(OverlayTable{
			Generation: 3,
			Peers: []OverlayEndpoint{{Name: "cable-1", IP: [4]byte{10, 254, 0, 2},
				MAC: [6]byte{2, 0xcc, 0, 0, 0, 2}, Mode: 1, GREKey: 702,
				Prefixes: []OverlayPrefix{{IP: [4]byte{10, 200, 2, 0}, Len: 24, Priority: 1}}}},
			Routes: []OverlayRoute{{Prefix: OverlayPrefix{IP: [4]byte{10, 200, 2, 0}, Len: 24}, Peer: 0}},
		})}.Encode(),
	}
	// A few corrupted variants: truncated, bad magic, huge length.
	seeds = append(seeds, seeds[0][:5])
	bad := append([]byte(nil), seeds[1]...)
	bad[0] = 'X'
	seeds = append(seeds, bad)
	huge := append([]byte(nil), seeds[0]...)
	huge[8], huge[9], huge[10], huge[11] = 0xff, 0xff, 0xff, 0xff
	seeds = append(seeds, huge)
	return seeds
}

func FuzzDecodeMessage(f *testing.F) {
	for _, s := range seedMessages() {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		msg, err := DecodeMessage(data)
		if err != nil {
			return
		}
		// Anything the decoder accepts must survive an encode/decode
		// round trip unchanged.
		re, err := DecodeMessage(msg.Encode())
		if err != nil {
			t.Fatalf("re-decode failed: %v", err)
		}
		if re.Type != msg.Type || re.ReqID != msg.ReqID || !bytes.Equal(re.Body, msg.Body) {
			t.Fatalf("round trip changed message: %+v -> %+v", msg, re)
		}
	})
}

// fuzzAgent builds one shared module+agent for the whole fuzz process;
// per-exec module construction would dominate the run.
var fuzzAgent = sync.OnceValue(func() *Agent {
	_, a, _ := newFuzzAgentModule()
	reg := telemetry.New()
	reg.SetTracer(telemetry.NewTracer(1, 64))
	a.SetTelemetry(reg)
	return a
})

func FuzzAgentHandle(f *testing.F) {
	for _, s := range seedMessages() {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		a := fuzzAgent()
		resp := a.Handle(data)
		// Whatever comes in, the response must be a decodable protocol
		// message of type OK or Error.
		msg, err := DecodeMessage(resp)
		if err != nil {
			t.Fatalf("agent produced undecodable response: %v", err)
		}
		if msg.Type != MsgOK && msg.Type != MsgError {
			t.Fatalf("agent response type = %d", msg.Type)
		}
		if msg.Type == MsgError {
			if _, _, err := ParseError(msg.Body); err != nil {
				t.Fatalf("agent produced malformed error body: %v", err)
			}
		}
	})
}

// frameSplits hand a stream to readFrame in differently cut reads.
var frameSplits = map[string]func(io.Reader) io.Reader{
	"whole": func(r io.Reader) io.Reader { return r },
	"half":  iotest.HalfReader,
	"byte":  iotest.OneByteReader,
}

// cutReader returns at most cuts[i]+1 bytes from its i-th Read, cycling
// through cuts: reads split at fuzzer-chosen points.
type cutReader struct {
	r    io.Reader
	cuts []byte
	i    int
}

func (c *cutReader) Read(p []byte) (int, error) {
	if len(c.cuts) > 0 {
		p = p[:min(len(p), int(c.cuts[c.i%len(c.cuts)])+1)]
		c.i++
	}
	return c.r.Read(p)
}

// FuzzReadFrame: readFrame, fed any byte stream cut into reads at any
// points, never panics and never returns a frame over maxFrame; and a
// stream of frames written by writeFrame reads back frame for frame.
func FuzzReadFrame(f *testing.F) {
	f.Add([]byte{0, 0, 0, 3, 'a', 'b', 'c'}, []byte{1, 0, 5})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0}, []byte{})
	f.Add(binary.BigEndian.AppendUint32(nil, maxFrame), []byte{2})
	f.Add([]byte{0, 0, 0, 0, 0, 0}, []byte{0, 0})
	for _, m := range seedMessages() {
		f.Add(m, []byte{byte(len(m) / 2), 3})
	}
	f.Fuzz(func(t *testing.T, stream, cuts []byte) {
		splits := map[string]func(io.Reader) io.Reader{
			"cut": func(r io.Reader) io.Reader { return &cutReader{r: r, cuts: cuts} },
		}
		for name, split := range frameSplits {
			splits[name] = split
		}
		for name, split := range splits {
			r := bufio.NewReader(split(bytes.NewReader(stream)))
			for {
				fr, err := readFrame(r)
				if err != nil {
					break
				}
				if len(fr) > maxFrame {
					t.Fatalf("%s: frame of %d bytes over the limit", name, len(fr))
				}
			}
		}

		// The stream cut into messages at the lengths in cuts, framed
		// back to back, must read back in order and then hit EOF.
		var msgs [][]byte
		rest := stream
		for _, c := range cuts {
			k := min(int(c), len(rest))
			msgs, rest = append(msgs, rest[:k]), rest[k:]
		}
		msgs = append(msgs, rest)
		var wire bytes.Buffer
		w := bufio.NewWriter(&wire)
		for _, m := range msgs {
			if err := writeFrame(w, m); err != nil {
				t.Fatal(err)
			}
		}
		for name, split := range splits {
			r := bufio.NewReader(split(bytes.NewReader(wire.Bytes())))
			for i, m := range msgs {
				got, err := readFrame(r)
				if err != nil || !bytes.Equal(got, m) {
					t.Fatalf("%s: frame %d = %x, %v; want %x", name, i, got, err, m)
				}
			}
			if _, err := readFrame(r); err != io.EOF {
				t.Fatalf("%s: after the last frame: %v, want EOF", name, err)
			}
		}
	})
}
