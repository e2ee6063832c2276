package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"time"

	"flexsfp/internal/bitstream"
	"flexsfp/internal/build"
	"flexsfp/internal/hls"
	"flexsfp/internal/mgmt"
	"flexsfp/internal/netsim"
)

const (
	otaPayloadBytes = 2 << 20
	otaAppName      = "bench-ota"
	ctlPushEvery    = 2000 // small RPCs between two pushes
	ctlKinds        = 5    // TableAdd, TableGet, ReadStats, CounterRead, TableDel
	// ctlSlice is how many small RPCs one per-op sample averages. A single
	// round trip is bimodal (whether the server goroutine wakes on the
	// client's CPU or the other one), and the mix shifts from run to run;
	// a slice of 100 carries both modes, as a 1-sim-ms slice of frames does.
	ctlSlice = 100
)

// otaImage builds the signed 2 MiB image the control workload pushes. Its
// payload is seeded noise: the agent only stores it (no reboot), so it
// need not be a bootable design, but it must verify, decode and show up
// in the slot list under its own name.
func otaImage(seed int64) ([]byte, error) {
	payload := make([]byte, otaPayloadBytes)
	rand.New(rand.NewSource(seed)).Read(payload)
	enc, err := (&bitstream.Bitstream{
		AppName: otaAppName, AppVersion: 1, Device: "MPF200T",
		ClockKHz: build.BaseClockHz / 1000, DatapathBits: build.BaseDatapathBits,
		Payload: payload,
	}).Encode()
	if err != nil {
		return nil, err
	}
	return bitstream.Sign(enc, build.DefaultAuthKey), nil
}

// ctlWorkload is the closed-loop control plane over loopback TCP: one
// client, one connection, one server goroutine.
type ctlWorkload struct {
	sz     sizing
	warm   int // warm-up RPCs
	rpcs   int // small RPCs per repeat
	pushes int
}

func newCtlWorkload(sz sizing) *ctlWorkload {
	w := &ctlWorkload{sz: sz, warm: sz.pick(2000, 50), rpcs: sz.pick(30_000, 500)}
	w.pushes = max(1, w.rpcs/ctlPushEvery)
	return w
}

func (w *ctlWorkload) work() map[string]float64 {
	return map[string]float64{"warm_rpcs": float64(w.warm), "small_rpcs": float64(w.rpcs),
		"pushes": float64(w.pushes), "push_bytes": otaPayloadBytes}
}

// countingTransport counts round trips (a push is many) and, in a traced
// repeat, records a span around the sampled ones.
type countingTransport struct {
	inner mgmt.Transport
	tr    *tracer
	n     uint64
	name  uint16 // span name for the current call
}

func (t *countingTransport) Do(req []byte) ([]byte, error) {
	id := t.n
	t.n++
	if t.tr.sampled(id) {
		h := t.tr.begin(t.name, id, 0)
		resp, err := t.inner.Do(req)
		t.tr.end(h)
		return resp, err
	}
	return t.inner.Do(req)
}

// ctlWorld is one server + client pair on an idle NAT module.
type ctlWorld struct {
	srv    *mgmt.Server
	tcp    *mgmt.TCPTransport
	ct     *countingTransport
	client *mgmt.Client
	image  []byte
	rng    *rand.Rand
	slot   int
}

func newCtlWorld(seed int64, tr *tracer) (*ctlWorld, error) {
	mod, _, err := build.Module(netsim.New(seed), build.ModuleSpec{
		Name: "ctl-dut", DeviceID: 1, Shell: hls.TwoWayCore, App: "nat",
	})
	if err != nil {
		return nil, err
	}
	agent := mgmt.NewAgent(mod)
	handler := agent.Handle
	if tr != nil {
		var served uint64
		handler = func(req []byte) []byte {
			id := served
			served++
			if tr.sampled(id) {
				h := tr.begin(spAgentHandle, id, 0)
				resp := agent.Handle(req)
				tr.end(h)
				return resp
			}
			return agent.Handle(req)
		}
	}
	w := &ctlWorld{srv: mgmt.NewServer(handler), rng: rand.New(rand.NewSource(seed)), slot: 2}
	addr, err := w.srv.Listen("127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	if w.tcp, err = mgmt.Dial(addr); err != nil {
		w.srv.Close()
		return nil, err
	}
	w.ct = &countingTransport{inner: w.tcp, tr: tr, name: spTCPRPC}
	w.client = mgmt.NewClient(w.ct)
	if w.image, err = otaImage(seed); err != nil {
		w.close()
		return nil, err
	}
	return w, nil
}

func (w *ctlWorld) close() {
	w.tcp.Close()
	w.srv.Close()
}

// small issues the i-th small RPC of the cycle on a seeded key and
// reports whether it did what it should.
func (w *ctlWorld) small(i int, key, val *[4]byte) bool {
	switch i % ctlKinds {
	case 0:
		w.rng.Read(key[:])
		w.rng.Read(val[:])
		return w.client.TableAdd("nat", key[:], val[:]) == nil
	case 1:
		got, err := w.client.TableGet("nat", key[:])
		return err == nil && bytes.Equal(got, val[:])
	case 2:
		st, err := w.client.ReadStats()
		return err == nil && st.Running && st.AppName == "nat"
	case 3:
		_, _, err := w.client.CounterRead("stats", 0)
		return err == nil
	default:
		return w.client.TableDel("nat", key[:]) == nil
	}
}

func (w *ctlWorld) push() error {
	w.ct.name = spXferRPC
	err := w.client.PushBitstream(w.image, w.slot, false)
	w.ct.name = spTCPRPC
	w.slot ^= 1 // alternate slots 2 and 3
	return err
}

func (w *ctlWorkload) run(tr *tracer) repeat {
	r := repeat{exact: map[string]float64{}, samples: map[string][]float64{}}
	r.perOpNs = make([]float64, 0, w.rpcs/ctlSlice)
	pushMs := make([]float64, 0, w.pushes)

	t0 := time.Now()
	cw, err := newCtlWorld(w.sz.seed, tr)
	if err != nil {
		r.check(false, "setup: %v", err)
		return r
	}
	defer cw.close()
	var key, val [4]byte
	for i := 0; i < w.warm/ctlKinds*ctlKinds; i++ {
		if !cw.small(i, &key, &val) {
			r.check(false, "warm-up RPC %d failed", i)
			return r
		}
	}
	r.setupS = time.Since(t0).Seconds()

	var bad, rpcErrs uint64
	n0 := cw.ct.n
	h0 := sampleHost()
	s0 := time.Now()
	for i := 0; i < w.rpcs; i++ {
		if !cw.small(i, &key, &val) {
			bad++
		}
		if (i+1)%ctlSlice == 0 {
			r.perOpNs = append(r.perOpNs, float64(time.Since(s0).Nanoseconds())/ctlSlice)
			s0 = time.Now()
		}
		if (i+1)%ctlPushEvery == 0 || (i+1 == w.rpcs && len(pushMs) == 0) {
			s0 = time.Now()
			if err := cw.push(); err != nil {
				rpcErrs++
				if len(r.failures) < 8 {
					r.failures = append(r.failures, fmt.Sprintf("push: %v", err))
				}
			}
			pushMs = append(pushMs, float64(time.Since(s0).Nanoseconds())/1e6)
			s0 = time.Now()
		}
	}
	h1 := sampleHost()
	ops := cw.ct.n - n0
	r.win = h0.until(h1, ops)

	r.count(uint64(w.rpcs), bad, "%d small RPCs failed or returned a wrong value", bad)
	r.count(uint64(len(pushMs)), rpcErrs, "%d pushes failed", rpcErrs)
	// TableGet returns what TableAdd wrote and fails after TableDel; the
	// pushed image is listed in both slots it alternated between.
	cw.rng.Read(key[:])
	cw.rng.Read(val[:])
	addErr := cw.client.TableAdd("nat", key[:], val[:])
	got, getErr := cw.client.TableGet("nat", key[:])
	r.check(addErr == nil && getErr == nil && bytes.Equal(got, val[:]), "TableGet after TableAdd: %x, %v", got, getErr)
	delErr := cw.client.TableDel("nat", key[:])
	_, getErr = cw.client.TableGet("nat", key[:])
	r.check(delErr == nil && getErr != nil, "TableGet after TableDel: del %v, get %v", delErr, getErr)
	slots, err := cw.client.Slots()
	want := 3 // the last push went to slot 2 or 3; both hold the image after two pushes
	if len(pushMs) < 2 {
		want = 2
	}
	r.check(err == nil && len(slots) > want && slots[want] == otaAppName && slots[2] == otaAppName,
		"pushed image missing from Slots(): %v, %v", slots, err)

	r.samples["ota_push_ms_p50"] = pushMs
	r.exact["mgmt.client.retries"] = float64(cw.client.Retries())
	r.exact["mgmt.rpc_errors"] = float64(bad + rpcErrs)
	var d digester
	d.add("rpcs", ops)
	d.add("bad", bad+rpcErrs)
	d.add("slots", fmt.Sprint(slots))
	r.digest = d.sum()
	return r
}

func (w *ctlWorkload) isolate(out *layerOut) {
	isoMgmtDirect(out, w.sz)
	isoTable(out, 32, w.sz)
	delete(out.values, "ppe.table.lookup_ns") // the control plane reads with Peek, not Lookup
	image, err := otaImage(w.sz.seed)
	if err != nil {
		panic(err)
	}
	isoVerify(out, image, w.sz)
	isoFlash(out, image, w.sz)
	isoBuildModule(out, build.ModuleSpec{Name: "iso", DeviceID: 1, Shell: hls.TwoWayCore, App: "nat"}, w.sz)
}
