package mgmt

import (
	"errors"
	"fmt"
	"sync/atomic"
	"time"

	"flexsfp/internal/bitstream"
	"flexsfp/internal/phy"
	"flexsfp/internal/ppe"
)

// Transport carries one encoded request to an agent and returns the
// encoded response. Implementations: TCPTransport (out-of-band), the
// in-band Ethernet path, or a direct in-process hop for tests.
type Transport interface {
	Do(req []byte) ([]byte, error)
}

// TransportFunc adapts a function to Transport.
type TransportFunc func(req []byte) ([]byte, error)

// Do implements Transport.
func (f TransportFunc) Do(req []byte) ([]byte, error) { return f(req) }

// RemoteError is a MsgError response surfaced by the client.
type RemoteError struct {
	Code uint16
	Text string
}

func (e *RemoteError) Error() string {
	return fmt.Sprintf("mgmt: remote error %d: %s", e.Code, e.Text)
}

// PushError wraps a failure during the chunked OTA push with the stage it
// happened in. The agent-side FSM guarantees the previously active slot
// keeps running: nothing is installed or rebooted before a complete,
// authenticated commit.
type PushError struct {
	Slot   int
	Stage  string // "begin", "chunk", or "commit"
	Offset int    // byte offset of the failed chunk (Stage == "chunk")
	Err    error
}

func (e *PushError) Error() string {
	if e.Stage == "chunk" {
		return fmt.Sprintf("mgmt: push to slot %d failed at %s offset %d: %v",
			e.Slot, e.Stage, e.Offset, e.Err)
	}
	return fmt.Sprintf("mgmt: push to slot %d failed at %s: %v", e.Slot, e.Stage, e.Err)
}

func (e *PushError) Unwrap() error { return e.Err }

// RetryPolicy bounds per-request retries with exponential backoff and
// deterministic jitter. The zero value disables retrying.
type RetryPolicy struct {
	// MaxAttempts is the total number of tries per request; values <= 1
	// mean a single attempt.
	MaxAttempts int
	// BaseBackoff is the delay before the first retry; each further
	// retry doubles it, capped at MaxBackoff (when > 0).
	BaseBackoff time.Duration
	MaxBackoff  time.Duration
	// Sleep, when non-nil, is called with each computed backoff. Leave
	// nil in simulated environments: retries then happen back-to-back
	// but still consume deterministic jitter draws.
	Sleep func(time.Duration)
	// RequestTimeout is applied per attempt to deadline-capable
	// transports (see TCPTransport.SetTimeout) by SetRetryPolicy.
	RequestTimeout time.Duration
}

// Backoff returns the pre-retry delay for the given request and attempt
// (0-based). Jitter is derived from (id, attempt) — deterministic for a
// given request sequence, decorrelated across requests. Exported so the
// fleet controller's re-push path can schedule retries on the exact
// same deterministic curve the client uses.
func (p RetryPolicy) Backoff(id uint32, attempt int) time.Duration {
	if p.BaseBackoff <= 0 {
		return 0
	}
	d := p.BaseBackoff << uint(attempt)
	if p.MaxBackoff > 0 && d > p.MaxBackoff {
		d = p.MaxBackoff
	}
	// SplitMix64-style mix; jitter multiplies the delay into [0.5, 1.0).
	h := uint64(id)<<32 | uint64(uint32(attempt))
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	frac := float64(h&0xffff) / 0x10000
	return time.Duration(float64(d) * (0.5 + frac/2))
}

// Client is the typed management client used by orchestration tooling.
type Client struct {
	t       Transport
	reqID   atomic.Uint32
	retry   RetryPolicy
	retries atomic.Uint64
}

// NewClient wraps a transport.
func NewClient(t Transport) *Client { return &Client{t: t} }

// SetRetryPolicy installs the per-request retry/deadline policy. When the
// transport supports per-request deadlines, RequestTimeout is applied.
func (c *Client) SetRetryPolicy(p RetryPolicy) {
	c.retry = p
	if p.RequestTimeout > 0 {
		if dt, ok := c.t.(interface{ SetTimeout(time.Duration) }); ok {
			dt.SetTimeout(p.RequestTimeout)
		}
	}
}

// Retries returns the number of request retries performed so far.
func (c *Client) Retries() uint64 { return c.retries.Load() }

func (c *Client) do(typ MsgType, body []byte) ([]byte, error) {
	id := c.reqID.Add(1)
	req := Message{Type: typ, ReqID: id, Body: body}.Encode()
	attempts := c.retry.MaxAttempts
	if attempts < 1 {
		attempts = 1
	}
	var lastErr error
	for attempt := 0; ; attempt++ {
		resp, err := c.t.Do(req)
		if err == nil {
			out, perr := parseResponse(id, resp)
			var re *RemoteError
			if perr == nil || errors.As(perr, &re) {
				// A decoded reply — success or a remote rejection —
				// means the request executed; never retry it.
				return out, perr
			}
			err = perr // corrupted or mismatched response: retryable
		}
		lastErr = err
		if attempt+1 >= attempts {
			break
		}
		c.retries.Add(1)
		if d := c.retry.Backoff(id, attempt); d > 0 && c.retry.Sleep != nil {
			c.retry.Sleep(d)
		}
	}
	return nil, lastErr
}

func parseResponse(id uint32, resp []byte) ([]byte, error) {
	msg, err := DecodeMessage(resp)
	if err != nil {
		return nil, err
	}
	if msg.ReqID != id {
		return nil, fmt.Errorf("mgmt: response ID %d for request %d", msg.ReqID, id)
	}
	switch msg.Type {
	case MsgOK:
		return msg.Body, nil
	case MsgError:
		code, text, perr := ParseError(msg.Body)
		if perr != nil {
			return nil, perr
		}
		return nil, &RemoteError{Code: code, Text: text}
	default:
		return nil, fmt.Errorf("mgmt: unexpected response type %d", msg.Type)
	}
}

// Info is the MsgPing response.
type Info struct {
	Name     string
	DeviceID uint32
	AppName  string
	Running  bool
}

// Ping returns module identity and state.
func (c *Client) Ping() (Info, error) {
	body, err := c.do(MsgPing, nil)
	if err != nil {
		return Info{}, err
	}
	r := bodyReader{b: body}
	info := Info{Name: r.str(), DeviceID: r.u32(), AppName: r.str(), Running: r.u8() == 1}
	return info, r.err
}

// TableAdd inserts an exact-match entry.
func (c *Client) TableAdd(table string, key, value []byte) error {
	var w bodyWriter
	w.str(table)
	w.bytes(key)
	w.bytes(value)
	_, err := c.do(MsgTableAdd, w.b)
	return err
}

// TableDel removes an exact-match entry.
func (c *Client) TableDel(table string, key []byte) error {
	var w bodyWriter
	w.str(table)
	w.bytes(key)
	_, err := c.do(MsgTableDel, w.b)
	return err
}

// TableGet reads one entry's value.
func (c *Client) TableGet(table string, key []byte) ([]byte, error) {
	var w bodyWriter
	w.str(table)
	w.bytes(key)
	body, err := c.do(MsgTableGet, w.b)
	if err != nil {
		return nil, err
	}
	r := bodyReader{b: body}
	v := append([]byte(nil), r.bytes()...)
	return v, r.err
}

// TableDump returns all entries of a table.
func (c *Client) TableDump(table string) ([]ppe.TableEntry, error) {
	var w bodyWriter
	w.str(table)
	body, err := c.do(MsgTableDump, w.b)
	if err != nil {
		return nil, err
	}
	r := bodyReader{b: body}
	n := int(r.u32())
	out := make([]ppe.TableEntry, 0, n)
	for i := 0; i < n; i++ {
		e := ppe.TableEntry{
			Key:   append([]byte(nil), r.bytes()...),
			Value: append([]byte(nil), r.bytes()...),
			Hits:  r.u64(),
		}
		out = append(out, e)
	}
	return out, r.err
}

// TernaryAdd inserts a masked entry.
func (c *Client) TernaryAdd(table string, value, mask []byte, priority int, data []byte) error {
	var w bodyWriter
	w.str(table)
	w.bytes(value)
	w.bytes(mask)
	w.u32(uint32(int32(priority)))
	w.bytes(data)
	_, err := c.do(MsgTernaryAdd, w.b)
	return err
}

// TernaryClear empties a masked table.
func (c *Client) TernaryClear(table string) error {
	var w bodyWriter
	w.str(table)
	_, err := c.do(MsgTernaryClear, w.b)
	return err
}

// CounterRead returns (packets, bytes) of one counter.
func (c *Client) CounterRead(bank string, index int) (uint64, uint64, error) {
	var w bodyWriter
	w.str(bank)
	w.u32(uint32(index))
	body, err := c.do(MsgCounterRead, w.b)
	if err != nil {
		return 0, 0, err
	}
	r := bodyReader{b: body}
	pkts, bytes := r.u64(), r.u64()
	return pkts, bytes, r.err
}

// MeterSet configures a token-bucket meter.
func (c *Client) MeterSet(bank string, index int, rateBps, burstBits float64) error {
	var w bodyWriter
	w.str(bank)
	w.u32(uint32(index))
	w.f64(rateBps)
	w.f64(burstBits)
	_, err := c.do(MsgMeterSet, w.b)
	return err
}

// RegRead reads a register.
func (c *Client) RegRead(name string) (uint64, error) {
	var w bodyWriter
	w.str(name)
	body, err := c.do(MsgRegRead, w.b)
	if err != nil {
		return 0, err
	}
	r := bodyReader{b: body}
	v := r.u64()
	return v, r.err
}

// RegWrite writes a register.
func (c *Client) RegWrite(name string, v uint64) error {
	var w bodyWriter
	w.str(name)
	w.u64(v)
	_, err := c.do(MsgRegWrite, w.b)
	return err
}

// Stats is the MsgStats response.
type Stats struct {
	Rx, Tx        [3]uint64
	ControlFrames uint64
	RebootDrops   uint64
	PuntToCPU     uint64
	Boots         uint64
	AuthFailures  uint64

	BootFailures    uint64
	GoldenFallbacks uint64
	WatchdogTrips   uint64

	Engine     ppe.EngineStats
	Running    bool
	AppName    string
	ActiveSlot int
}

// ReadStats fetches module and engine counters.
func (c *Client) ReadStats() (Stats, error) {
	body, err := c.do(MsgStats, nil)
	if err != nil {
		return Stats{}, err
	}
	r := bodyReader{b: body}
	var s Stats
	for i := 0; i < 3; i++ {
		s.Rx[i] = r.u64()
	}
	for i := 0; i < 3; i++ {
		s.Tx[i] = r.u64()
	}
	s.ControlFrames = r.u64()
	s.RebootDrops = r.u64()
	s.PuntToCPU = r.u64()
	s.Boots = r.u64()
	s.AuthFailures = r.u64()
	s.BootFailures = r.u64()
	s.GoldenFallbacks = r.u64()
	s.WatchdogTrips = r.u64()
	s.Engine = ppe.EngineStats{
		In: r.u64(), InBytes: r.u64(), QueueDrop: r.u64(),
		Pass: r.u64(), Drop: r.u64(), Tx: r.u64(),
		Redirect: r.u64(), ToCPU: r.u64(),
	}
	s.Running = r.u8() == 1
	s.AppName = r.str()
	s.ActiveSlot = int(r.u32())
	return s, r.err
}

// ReadDDM fetches the diagnostics snapshot.
func (c *Client) ReadDDM() (phy.DDM, error) {
	body, err := c.do(MsgDDM, nil)
	if err != nil {
		return phy.DDM{}, err
	}
	r := bodyReader{b: body}
	d := phy.DDM{
		TemperatureC: r.f64(),
		VccVolts:     r.f64(),
		TxBiasMA:     r.f64(),
		TxPowerDBm:   r.f64(),
		RxPowerDBm:   r.f64(),
	}
	return d, r.err
}

// Slots lists the flash slots' stored app names ("" = empty).
func (c *Client) Slots() ([]string, error) {
	body, err := c.do(MsgSlotList, nil)
	if err != nil {
		return nil, err
	}
	r := bodyReader{b: body}
	n := int(r.u32())
	out := make([]string, 0, n)
	for i := 0; i < n; i++ {
		out = append(out, r.str())
	}
	return out, r.err
}

// XferChunkSize is the OTA transfer chunk size.
const XferChunkSize = 32 * 1024

// xferChunkBody is the largest XferChunk body: the u32 offset, then the
// data as a u16-length-prefixed byte string.
const xferChunkBody = 4 + 2 + XferChunkSize

// maxPushResumes bounds how many times one push re-syncs with the agent's
// transfer FSM before giving up.
const maxPushResumes = 8

// XferStatus reports the agent's transfer FSM state: whether a transfer
// is active, its target slot and total size, and the contiguous number of
// bytes acknowledged so far.
func (c *Client) XferStatus() (active bool, slot, total, acked int, err error) {
	body, err := c.do(MsgXferStatus, nil)
	if err != nil {
		return false, 0, 0, 0, err
	}
	r := bodyReader{b: body}
	active = r.u8() == 1
	slot = int(r.u8())
	total = int(r.u32())
	acked = int(r.u32())
	return active, slot, total, acked, r.err
}

// PushBitstream streams a signed bitstream into slot via the chunked
// transfer FSM, optionally rebooting into it on commit.
//
// The push is idempotent under lost responses: after a failed chunk the
// client re-syncs with XferStatus and resumes from the agent's contiguous
// acknowledged offset, and after a failed commit it probes whether the
// commit actually landed before reporting an error. Failures come back as
// a *PushError wrapping the cause; the previously active slot keeps
// running on the module.
func (c *Client) PushBitstream(signed []byte, slot int, rebootAfter bool) error {
	if len(signed) == 0 {
		return errors.New("mgmt: empty bitstream")
	}
	var w bodyWriter
	w.u8(uint8(slot))
	if rebootAfter {
		w.u8(1)
	} else {
		w.u8(0)
	}
	w.u32(uint32(len(signed)))
	if _, err := c.do(MsgXferBegin, w.b); err != nil {
		return &PushError{Slot: slot, Stage: "begin", Err: err}
	}
	resumes := 0
	// One chunk body buffer serves the whole push: do copies the body
	// into the request message before sending it.
	cw := bodyWriter{b: make([]byte, 0, xferChunkBody)}
	for off := 0; off < len(signed); {
		end := off + XferChunkSize
		if end > len(signed) {
			end = len(signed)
		}
		cw.b = cw.b[:0]
		cw.u32(uint32(off))
		cw.bytes(signed[off:end])
		if _, err := c.do(MsgXferChunk, cw.b); err != nil {
			var re *RemoteError
			if errors.As(err, &re) {
				return &PushError{Slot: slot, Stage: "chunk", Offset: off, Err: err}
			}
			// Transport-level failure: the chunk may have been applied
			// with only its response lost. Re-sync from the agent's
			// acknowledged high-water mark.
			resumes++
			if resumes > maxPushResumes {
				return &PushError{Slot: slot, Stage: "chunk", Offset: off, Err: err}
			}
			active, aslot, total, acked, serr := c.XferStatus()
			if serr != nil || !active || aslot != slot || total != len(signed) {
				return &PushError{Slot: slot, Stage: "chunk", Offset: off, Err: err}
			}
			off = acked
			continue
		}
		off = end
	}
	if _, err := c.do(MsgXferCommit, nil); err != nil {
		if c.commitLanded(signed, slot, err) {
			return nil
		}
		return &PushError{Slot: slot, Stage: "commit", Err: err}
	}
	return nil
}

// commitLanded resolves the lost-commit-response ambiguity: if the cause
// was transport-level (not a remote rejection), the agent no longer has a
// transfer in flight, and the target slot now holds our application, the
// commit executed and the push in fact succeeded.
func (c *Client) commitLanded(signed []byte, slot int, cause error) bool {
	var re *RemoteError
	if errors.As(cause, &re) {
		return false
	}
	bs, err := bitstream.Decode(signed) // trailing HMAC bytes are ignored
	if err != nil {
		return false
	}
	active, _, _, _, serr := c.XferStatus()
	if serr != nil || active {
		return false
	}
	slots, err := c.Slots()
	if err != nil || slot < 0 || slot >= len(slots) {
		return false
	}
	return slots[slot] == bs.AppName
}

// ReadEEPROM fetches and decodes the module's SFF-8472 A0h page.
func (c *Client) ReadEEPROM() (phy.Identity, []byte, error) {
	body, err := c.do(MsgEEPROM, nil)
	if err != nil {
		return phy.Identity{}, nil, err
	}
	id, err := phy.DecodeEEPROM(body)
	if err != nil {
		return phy.Identity{}, body, err
	}
	return id, body, nil
}

// Reboot asks the module to reboot into slot.
func (c *Client) Reboot(slot int) error {
	var w bodyWriter
	w.u8(uint8(slot))
	_, err := c.do(MsgReboot, w.b)
	return err
}
