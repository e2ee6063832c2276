package apps

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"sync"

	"flexsfp/internal/packet"
	"flexsfp/internal/ppe"
)

// Telemetry roles.
const (
	TelemetrySource  = "source"  // push the INT shim and the first hop
	TelemetryTransit = "transit" // append a hop to an existing shim
	TelemetrySink    = "sink"    // record the path and pop the shim
)

// TelemetryConfig configures the in-band telemetry app of §3
// ("Monitoring and Observability"): INT-style metadata insertion with
// in-line timestamping, bringing observability to infrastructure that
// cannot otherwise be instrumented.
type TelemetryConfig struct {
	Role     string `json:"role"`
	DeviceID uint32 `json:"device_id"`
	// SampleShift subsamples at sources: a packet is instrumented when
	// hash(flow) has SampleShift trailing zero bits (0 = every packet).
	SampleShift uint8 `json:"sample_shift,omitempty"`
}

// Telemetry counter indexes (bank "int").
const (
	INTInserted = iota
	INTAppended
	INTTerminated
	INTFullSkipped
	intCounters
)

// PathRecord is a completed telemetry path collected at a sink.
type PathRecord struct {
	Hops       []packet.INTHop
	CapturedNs uint64
}

type telemetryApp struct {
	prog  *ppe.Program
	state *ppe.State
	ctr   *ppe.CounterBank
	cfg   TelemetryConfig

	mu    sync.Mutex
	paths []PathRecord
	v     packet.View
}

// telemetryMaxPaths bounds sink memory.
const telemetryMaxPaths = 4096

// NewTelemetry builds an INT node instance.
func NewTelemetry() *telemetryApp {
	a := &telemetryApp{state: ppe.NewState()}
	a.ctr = a.state.AddCounters("int", intCounters)
	a.prog = &ppe.Program{
		Name:        "telemetry",
		Version:     1,
		ParseLayers: []packet.LayerType{packet.LayerTypeEthernet, packet.LayerTypeINT},
		Actions: []ppe.ActionSpec{
			{Kind: ppe.ActionPush, Bytes: 4 + packet.INTHopSize},
			{Kind: ppe.ActionPop, Bytes: 4 + packet.INTMaxHops*packet.INTHopSize},
			{Kind: ppe.ActionTimestamp},
			{Kind: ppe.ActionHash, Bits: 32},
			{Kind: ppe.ActionCounterBank, Count: intCounters},
		},
		Stages:  2,
		Handler: ppe.HandlerFunc(a.handle),
	}
	return a
}

// Program implements core.App.
func (a *telemetryApp) Program() *ppe.Program { return a.prog }

// State implements core.App.
func (a *telemetryApp) State() *ppe.State { return a.state }

// Configure implements core.App.
func (a *telemetryApp) Configure(config []byte) error {
	if len(config) == 0 {
		return fmt.Errorf("telemetry: role config required")
	}
	var cfg TelemetryConfig
	if err := json.Unmarshal(config, &cfg); err != nil {
		return fmt.Errorf("telemetry: %w", err)
	}
	switch cfg.Role {
	case TelemetrySource, TelemetryTransit, TelemetrySink:
	default:
		return fmt.Errorf("telemetry: unknown role %q", cfg.Role)
	}
	a.cfg = cfg
	return nil
}

// Paths drains the collected sink records.
func (a *telemetryApp) Paths() []PathRecord {
	a.mu.Lock()
	defer a.mu.Unlock()
	out := a.paths
	a.paths = nil
	return out
}

func (a *telemetryApp) handle(ctx *ppe.Ctx) ppe.Verdict {
	data := ctx.Data
	if len(data) < 14 {
		return ppe.VerdictPass
	}
	et := packet.EtherType(binary.BigEndian.Uint16(data[12:14]))
	hop := packet.INTHop{
		DeviceID:    a.cfg.DeviceID,
		IngressPort: uint16(ctx.Dir),
		EgressPort:  uint16(ctx.Dir.Reverse()),
		TimestampNs: ctx.TimestampNs,
	}

	switch a.cfg.Role {
	case TelemetrySource:
		if et == packet.EtherTypeINT {
			// Already instrumented upstream: behave as transit.
			return a.appendHop(ctx, hop)
		}
		if a.cfg.SampleShift > 0 && !a.sampled(data) {
			return ppe.VerdictPass
		}
		ctx.Data = pushINT(data, et, hop)
		a.ctr.Inc(INTInserted, len(ctx.Data))
		return ppe.VerdictPass
	case TelemetryTransit:
		if et != packet.EtherTypeINT {
			return ppe.VerdictPass
		}
		return a.appendHop(ctx, hop)
	case TelemetrySink:
		if et != packet.EtherTypeINT {
			return ppe.VerdictPass
		}
		v := &a.v
		v.Parse(data) // an INT frame is L2-only: Parse accepts it
		n, ok := v.INTHops()
		if !ok {
			return ppe.VerdictDrop
		}
		a.record(v, n, hop, ctx.TimestampNs)
		// Pop the shim in place, restoring the original EtherType.
		orig := v.INTOriginalEtherType()
		out := packet.Splice(data, 14, v.INTShimLen(), 0)
		binary.BigEndian.PutUint16(out[12:14], uint16(orig))
		ctx.Data = out
		a.ctr.Inc(INTTerminated, len(out))
		return ppe.VerdictPass
	}
	return ppe.VerdictPass
}

func (a *telemetryApp) sampled(data []byte) bool {
	if !a.v.Parse(data) {
		return false
	}
	var key [13]byte
	h := packet.FNV64(a.v.FiveTupleKey(key[:]))
	return h&((1<<a.cfg.SampleShift)-1) == 0
}

// appendHop adds one hop record to the INT shim at offset 14.
func (a *telemetryApp) appendHop(ctx *ppe.Ctx, hop packet.INTHop) ppe.Verdict {
	v := &a.v
	v.Parse(ctx.Data) // an INT frame is L2-only: Parse accepts it
	n, ok := v.INTHops()
	if !ok {
		return ppe.VerdictDrop
	}
	if n >= packet.INTMaxHops {
		a.ctr.Inc(INTFullSkipped, len(ctx.Data))
		return ppe.VerdictPass
	}
	// Insert one hop record in place: grow the frame by INTHopSize.
	shimEnd := 14 + v.INTShimLen()
	out := packet.Splice(ctx.Data, shimEnd, 0, packet.INTHopSize)
	writeHop(out[shimEnd:], hop)
	out[15] = byte(n + 1) // hop count
	ctx.Data = out
	a.ctr.Inc(INTAppended, len(out))
	return ppe.VerdictPass
}

// record keeps the path a sink terminates: the n hops of the shim v holds
// plus the sink's own. Beyond paths' own growth, it allocates only the
// record's hop slice.
func (a *telemetryApp) record(v *packet.View, n int, last packet.INTHop, now uint64) {
	a.mu.Lock()
	defer a.mu.Unlock()
	if len(a.paths) >= telemetryMaxPaths {
		return
	}
	hops := make([]packet.INTHop, n+1)
	for i := range n {
		hops[i] = v.INTHop(i)
	}
	hops[n] = last
	a.paths = append(a.paths, PathRecord{Hops: hops, CapturedNs: now})
}

func writeHop(b []byte, h packet.INTHop) {
	binary.BigEndian.PutUint32(b[0:4], h.DeviceID)
	binary.BigEndian.PutUint16(b[4:6], h.IngressPort)
	binary.BigEndian.PutUint16(b[6:8], h.EgressPort)
	binary.BigEndian.PutUint64(b[8:16], h.TimestampNs)
}

// pushINT inserts a shim with one hop after the Ethernet header, in place.
func pushINT(data []byte, orig packet.EtherType, hop packet.INTHop) []byte {
	out := packet.Splice(data, 14, 0, 4+packet.INTHopSize)
	binary.BigEndian.PutUint16(out[12:14], uint16(packet.EtherTypeINT))
	out[14] = packet.INTVersion << 4
	out[15] = 1
	binary.BigEndian.PutUint16(out[16:18], uint16(orig))
	writeHop(out[18:], hop)
	return out
}
