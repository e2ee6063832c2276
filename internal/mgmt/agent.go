package mgmt

import (
	"fmt"
	"sync"

	"flexsfp/internal/bitstream"
	"flexsfp/internal/core"
	"flexsfp/internal/flash"
	"flexsfp/internal/ppe"
	"flexsfp/internal/telemetry"
)

// Agent is the management core's message processor, bound to one module.
// It is transport-agnostic: the module's in-band control path and the TCP
// listener both feed Handle. Table/counter operations are safe from any
// goroutine (the PPE objects are internally synchronized); flash and
// reboot operations must be serialized with simulator execution, which
// the daemon does with its run lock.
type Agent struct {
	mod *core.Module

	// tel, when set (SetTelemetry), serves the read-side observability
	// ops: metric snapshots and packet-trace dumps.
	tel *telemetry.Registry

	mu   sync.Mutex
	xfer *transfer
	// spare is the buffer of the last committed transfer, handed to the
	// next xfer-begin that fits in it: a re-push of a same-size image
	// then allocates nothing. Commit returns it only after the module is
	// done with the image.
	spare []byte
}

// maxTransfer is the largest push that can ever commit: a full slot plus
// the HMAC tag the module strips before storing.
const maxTransfer = flash.SlotSize + bitstream.MACSize

type transfer struct {
	slot        int
	rebootAfter bool
	buf         []byte
	// acked is the contiguous high-water mark of received bytes. Re-sent
	// chunks (a client retrying after a lost response) are idempotent:
	// they re-copy the same bytes and leave acked unchanged.
	acked int
}

// NewAgent builds an agent and installs it as the module's in-band
// control handler.
func NewAgent(m *core.Module) *Agent {
	a := &Agent{mod: m}
	m.SetControlHandler(func(payload []byte, from core.PortID) [][]byte {
		return [][]byte{a.Handle(payload)}
	})
	return a
}

// Handle processes one encoded request and returns the encoded response.
func (a *Agent) Handle(req []byte) []byte {
	msg, err := DecodeMessage(req)
	if err != nil {
		return Message{Type: MsgError, Body: errorBody(CodeBadBody, err.Error())}.Encode()
	}
	resp := a.dispatch(msg)
	resp.ReqID = msg.ReqID
	return resp.Encode()
}

func (a *Agent) dispatch(msg Message) Message {
	switch msg.Type {
	case MsgPing:
		return a.ping()
	case MsgTableAdd:
		return a.tableAdd(msg.Body)
	case MsgTableDel:
		return a.tableDel(msg.Body)
	case MsgTableGet:
		return a.tableGet(msg.Body)
	case MsgTableDump:
		return a.tableDump(msg.Body)
	case MsgTernaryAdd:
		return a.ternaryAdd(msg.Body)
	case MsgTernaryClear:
		return a.ternaryClear(msg.Body)
	case MsgCounterRead:
		return a.counterRead(msg.Body)
	case MsgMeterSet:
		return a.meterSet(msg.Body)
	case MsgRegRead:
		return a.regRead(msg.Body)
	case MsgRegWrite:
		return a.regWrite(msg.Body)
	case MsgStats:
		return a.statsMsg()
	case MsgDDM:
		return a.ddm()
	case MsgSlotList:
		return a.slotList()
	case MsgXferBegin:
		return a.xferBegin(msg.Body)
	case MsgXferChunk:
		return a.xferChunk(msg.Body)
	case MsgXferCommit:
		return a.xferCommit()
	case MsgXferStatus:
		return a.xferStatus()
	case MsgReboot:
		return a.reboot(msg.Body)
	case MsgEEPROM:
		return ok(a.mod.EEPROM())
	case MsgTelemetry:
		return a.telemetrySnap()
	case MsgTraceDump:
		return a.traceDump(msg.Body)
	default:
		return errMsg(CodeUnknownType, fmt.Sprintf("type %d", msg.Type))
	}
}

func errMsg(code uint16, text string) Message {
	return Message{Type: MsgError, Body: errorBody(code, text)}
}

func ok(body []byte) Message { return Message{Type: MsgOK, Body: body} }

func (a *Agent) state() (*ppe.State, Message) {
	app := a.mod.App()
	if app == nil {
		return nil, errMsg(CodeBadState, "no application loaded")
	}
	return app.State(), Message{}
}

func (a *Agent) ping() Message {
	var w bodyWriter
	w.str(a.mod.Name())
	w.u32(a.mod.DeviceID())
	appName := ""
	if app := a.mod.App(); app != nil {
		appName = app.Program().Name
	}
	w.str(appName)
	if a.mod.Running() {
		w.u8(1)
	} else {
		w.u8(0)
	}
	return ok(w.b)
}

func (a *Agent) tableAdd(body []byte) Message {
	r := bodyReader{b: body}
	name := r.str()
	key := append([]byte(nil), r.bytes()...)
	value := append([]byte(nil), r.bytes()...)
	if r.err != nil {
		return errMsg(CodeBadBody, "table-add")
	}
	st, em := a.state()
	if st == nil {
		return em
	}
	t, okT := st.Table(name)
	if !okT {
		return errMsg(CodeNoSuchObject, name)
	}
	if err := t.Add(key, value); err != nil {
		return errMsg(CodeOpFailed, err.Error())
	}
	return ok(nil)
}

func (a *Agent) tableDel(body []byte) Message {
	r := bodyReader{b: body}
	name := r.str()
	key := r.bytes()
	if r.err != nil {
		return errMsg(CodeBadBody, "table-del")
	}
	st, em := a.state()
	if st == nil {
		return em
	}
	t, okT := st.Table(name)
	if !okT {
		return errMsg(CodeNoSuchObject, name)
	}
	if err := t.Delete(key); err != nil {
		return errMsg(CodeOpFailed, err.Error())
	}
	return ok(nil)
}

func (a *Agent) tableGet(body []byte) Message {
	r := bodyReader{b: body}
	name := r.str()
	key := r.bytes()
	if r.err != nil {
		return errMsg(CodeBadBody, "table-get")
	}
	st, em := a.state()
	if st == nil {
		return em
	}
	t, okT := st.Table(name)
	if !okT {
		return errMsg(CodeNoSuchObject, name)
	}
	v, found := t.Peek(key)
	if !found {
		return errMsg(CodeNoSuchObject, "entry")
	}
	var w bodyWriter
	w.bytes(v)
	return ok(w.b)
}

func (a *Agent) tableDump(body []byte) Message {
	r := bodyReader{b: body}
	name := r.str()
	if r.err != nil {
		return errMsg(CodeBadBody, "table-dump")
	}
	st, em := a.state()
	if st == nil {
		return em
	}
	t, okT := st.Table(name)
	if !okT {
		return errMsg(CodeNoSuchObject, name)
	}
	snap := t.Snapshot()
	var w bodyWriter
	w.u32(uint32(len(snap)))
	for _, e := range snap {
		w.bytes(e.Key)
		w.bytes(e.Value)
		w.u64(e.Hits)
	}
	return ok(w.b)
}

func (a *Agent) ternaryAdd(body []byte) Message {
	r := bodyReader{b: body}
	name := r.str()
	value := append([]byte(nil), r.bytes()...)
	mask := append([]byte(nil), r.bytes()...)
	prio := int(int32(r.u32()))
	data := append([]byte(nil), r.bytes()...)
	if r.err != nil {
		return errMsg(CodeBadBody, "ternary-add")
	}
	st, em := a.state()
	if st == nil {
		return em
	}
	t, okT := st.Ternary(name)
	if !okT {
		return errMsg(CodeNoSuchObject, name)
	}
	err := t.Add(ppe.TernaryEntry{Value: value, Mask: mask, Priority: prio, Data: data})
	if err != nil {
		return errMsg(CodeOpFailed, err.Error())
	}
	return ok(nil)
}

func (a *Agent) ternaryClear(body []byte) Message {
	r := bodyReader{b: body}
	name := r.str()
	if r.err != nil {
		return errMsg(CodeBadBody, "ternary-clear")
	}
	st, em := a.state()
	if st == nil {
		return em
	}
	t, okT := st.Ternary(name)
	if !okT {
		return errMsg(CodeNoSuchObject, name)
	}
	t.Clear()
	return ok(nil)
}

func (a *Agent) counterRead(body []byte) Message {
	r := bodyReader{b: body}
	name := r.str()
	idx := int(r.u32())
	if r.err != nil {
		return errMsg(CodeBadBody, "counter-read")
	}
	st, em := a.state()
	if st == nil {
		return em
	}
	c, okC := st.Counters(name)
	if !okC {
		return errMsg(CodeNoSuchObject, name)
	}
	pkts, bytes := c.Read(idx)
	var w bodyWriter
	w.u64(pkts)
	w.u64(bytes)
	return ok(w.b)
}

func (a *Agent) meterSet(body []byte) Message {
	r := bodyReader{b: body}
	name := r.str()
	idx := int(r.u32())
	rate := r.f64()
	burst := r.f64()
	if r.err != nil {
		return errMsg(CodeBadBody, "meter-set")
	}
	st, em := a.state()
	if st == nil {
		return em
	}
	mb, okM := st.Meters(name)
	if !okM {
		return errMsg(CodeNoSuchObject, name)
	}
	if err := mb.Configure(idx, rate, burst); err != nil {
		return errMsg(CodeOpFailed, err.Error())
	}
	return ok(nil)
}

func (a *Agent) regRead(body []byte) Message {
	r := bodyReader{b: body}
	name := r.str()
	if r.err != nil {
		return errMsg(CodeBadBody, "reg-read")
	}
	st, em := a.state()
	if st == nil {
		return em
	}
	reg, okR := st.Register(name)
	if !okR {
		return errMsg(CodeNoSuchObject, name)
	}
	var w bodyWriter
	w.u64(reg.Load())
	return ok(w.b)
}

func (a *Agent) regWrite(body []byte) Message {
	r := bodyReader{b: body}
	name := r.str()
	v := r.u64()
	if r.err != nil {
		return errMsg(CodeBadBody, "reg-write")
	}
	st, em := a.state()
	if st == nil {
		return em
	}
	reg, okR := st.Register(name)
	if !okR {
		return errMsg(CodeNoSuchObject, name)
	}
	reg.Store(v)
	return ok(nil)
}

func (a *Agent) statsMsg() Message {
	st := a.mod.Stats()
	var w bodyWriter
	for i := 0; i < 3; i++ {
		w.u64(st.Rx[i])
	}
	for i := 0; i < 3; i++ {
		w.u64(st.Tx[i])
	}
	w.u64(st.ControlFrames)
	w.u64(st.RebootDrops)
	w.u64(st.PuntToCPU)
	w.u64(st.Boots)
	w.u64(st.AuthFailures)
	w.u64(st.BootFailures)
	w.u64(st.GoldenFallbacks)
	w.u64(st.WatchdogTrips)
	var es ppe.EngineStats
	if e := a.mod.Engine(); e != nil {
		es = e.Stats()
	}
	w.u64(es.In)
	w.u64(es.InBytes)
	w.u64(es.QueueDrop)
	w.u64(es.Pass)
	w.u64(es.Drop)
	w.u64(es.Tx)
	w.u64(es.Redirect)
	w.u64(es.ToCPU)
	if a.mod.Running() {
		w.u8(1)
	} else {
		w.u8(0)
	}
	appName := ""
	if app := a.mod.App(); app != nil {
		appName = app.Program().Name
	}
	w.str(appName)
	w.u32(uint32(a.mod.ActiveSlot()))
	return ok(w.b)
}

func (a *Agent) ddm() Message {
	d := a.mod.DDM()
	var w bodyWriter
	w.f64(d.TemperatureC)
	w.f64(d.VccVolts)
	w.f64(d.TxBiasMA)
	w.f64(d.TxPowerDBm)
	w.f64(d.RxPowerDBm)
	return ok(w.b)
}

func (a *Agent) slotList() Message {
	slots := a.mod.Flash.ListSlots()
	var w bodyWriter
	w.u32(uint32(len(slots)))
	for _, s := range slots {
		w.str(s)
	}
	return ok(w.b)
}

func (a *Agent) xferBegin(body []byte) Message {
	r := bodyReader{b: body}
	slot := int(r.u8())
	reboot := r.u8() == 1
	total := int(r.u32())
	if r.err != nil || total <= 0 || total > maxTransfer || slot >= flash.NumSlots {
		return errMsg(CodeBadBody, "xfer-begin")
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	// A reused buffer still holds the old image, which is harmless:
	// commit needs acked == total, and acked only advances over bytes a
	// chunk of this transfer wrote.
	buf := a.spare
	a.spare = nil
	if cap(buf) < total {
		buf = make([]byte, total)
	}
	a.xfer = &transfer{slot: slot, rebootAfter: reboot, buf: buf[:total]}
	return ok(nil)
}

func (a *Agent) xferChunk(body []byte) Message {
	r := bodyReader{b: body}
	off := int(r.u32())
	data := r.bytes()
	if r.err != nil {
		return errMsg(CodeBadBody, "xfer-chunk")
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.xfer == nil {
		return errMsg(CodeBadState, "no transfer in progress")
	}
	if off < 0 || off+len(data) > len(a.xfer.buf) {
		return errMsg(CodeBadBody, "chunk out of range")
	}
	copy(a.xfer.buf[off:], data)
	if off <= a.xfer.acked && off+len(data) > a.xfer.acked {
		a.xfer.acked = off + len(data)
	}
	return ok(nil)
}

// xferStatus reports the transfer FSM state so a client can resume a push
// from the last acknowledged byte after losing responses.
func (a *Agent) xferStatus() Message {
	a.mu.Lock()
	defer a.mu.Unlock()
	var w bodyWriter
	if a.xfer == nil {
		w.u8(0)
		w.u8(0)
		w.u32(0)
		w.u32(0)
	} else {
		w.u8(1)
		w.u8(uint8(a.xfer.slot))
		w.u32(uint32(len(a.xfer.buf)))
		w.u32(uint32(a.xfer.acked))
	}
	return ok(w.b)
}

func (a *Agent) xferCommit() Message {
	a.mu.Lock()
	x := a.xfer
	a.xfer = nil
	a.mu.Unlock()
	if x == nil {
		return errMsg(CodeBadState, "no transfer in progress")
	}
	defer a.keepSpare(x.buf)
	if x.acked < len(x.buf) {
		return errMsg(CodeBadState,
			fmt.Sprintf("transfer incomplete: %d of %d bytes", x.acked, len(x.buf)))
	}
	// The module authenticates the image (HMAC) and checks the target
	// device before the FSM writes flash (§4.2).
	if _, err := a.mod.InstallSigned(x.slot, x.buf); err != nil {
		return errMsg(CodeOpFailed, err.Error())
	}
	if x.rebootAfter {
		a.mod.Reboot(x.slot)
	}
	var w bodyWriter
	w.u8(uint8(x.slot))
	return ok(w.b)
}

// keepSpare makes buf, a transfer buffer nothing references any more, the
// one the next xfer-begin reuses.
func (a *Agent) keepSpare(buf []byte) {
	a.mu.Lock()
	a.spare = buf
	a.mu.Unlock()
}

func (a *Agent) reboot(body []byte) Message {
	r := bodyReader{b: body}
	slot := int(r.u8())
	if r.err != nil {
		return errMsg(CodeBadBody, "reboot")
	}
	a.mod.Reboot(slot)
	return ok(nil)
}
