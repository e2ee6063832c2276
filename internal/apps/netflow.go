package apps

import (
	"encoding/binary"
	"encoding/json"
	"fmt"

	"flexsfp/internal/packet"
	"flexsfp/internal/ppe"
)

// NetFlowTableSize is the flow-cache capacity.
const NetFlowTableSize = 4096

// NetFlowConfig configures the flow-accounting app ("a FlexSFP could
// export NetFlow-like stats", §3).
type NetFlowConfig struct {
	Direction string `json:"direction,omitempty"`
}

// NetFlow counter indexes (bank "meta").
const (
	NFLearned = iota
	NFMatched
	NFTableFull
	nfCounters
)

type netflowApp struct {
	prog  *ppe.Program
	state *ppe.State
	flows *ppe.Table // 5-tuple → counter index (16b)
	meta  *ppe.CounterBank
	stats *ppe.CounterBank // per-flow packet/byte counters
	next  *ppe.Register
	dir   string
	v     packet.View
	key   [13]byte
}

// NewNetFlow builds a flow-accounting instance. Flows are learned in the
// data plane (first packet allocates a counter index); the control plane
// reads them as the "flows" table (5-tuple → index) and the "flowstats"
// counter bank (packets and bytes per index), through table-dump and
// counter reads.
func NewNetFlow() *netflowApp {
	a := &netflowApp{state: ppe.NewState()}
	spec := ppe.TableSpec{Name: "flows", Kind: ppe.TableExact, KeyBits: packet.FiveTupleKeyBits, ValueBits: 16, Size: NetFlowTableSize}
	a.flows = a.state.AddTable(spec)
	a.meta = a.state.AddCounters("meta", nfCounters)
	a.stats = a.state.AddCounters("flowstats", NetFlowTableSize)
	a.next = a.state.AddRegister("next_index")
	a.prog = &ppe.Program{
		Name:        "netflow",
		Version:     1,
		ParseLayers: []packet.LayerType{packet.LayerTypeEthernet, packet.LayerTypeIPv4, packet.LayerTypeTCP},
		Tables:      []ppe.TableSpec{spec},
		Registers:   []ppe.RegisterSpec{{Name: "next_index", Bits: 16}},
		Actions: []ppe.ActionSpec{
			{Kind: ppe.ActionHash, Bits: 64},
			{Kind: ppe.ActionCounterBank, Count: NetFlowTableSize},
			{Kind: ppe.ActionCounterBank, Count: nfCounters},
		},
		Stages:  2,
		Handler: ppe.HandlerFunc(a.handle),
	}
	return a
}

// Program implements core.App.
func (a *netflowApp) Program() *ppe.Program { return a.prog }

// State implements core.App.
func (a *netflowApp) State() *ppe.State { return a.state }

// Configure implements core.App.
func (a *netflowApp) Configure(config []byte) error {
	if len(config) == 0 {
		return nil
	}
	var cfg NetFlowConfig
	if err := json.Unmarshal(config, &cfg); err != nil {
		return fmt.Errorf("netflow: %w", err)
	}
	a.dir = cfg.Direction
	return nil
}

func (a *netflowApp) handle(ctx *ppe.Ctx) ppe.Verdict {
	if !dirEnabled(a.dir, ctx.Dir) {
		return ppe.VerdictPass
	}
	if !a.v.Parse(ctx.Data) || (!a.v.IsIPv4 && !a.v.IsIPv6) {
		return ppe.VerdictPass
	}
	key := a.v.FiveTupleKey(a.key[:])
	val, ok := a.flows.Lookup(key)
	if !ok {
		idx := a.next.Load()
		if idx >= NetFlowTableSize {
			a.meta.Inc(NFTableFull, len(ctx.Data))
			return ppe.VerdictPass
		}
		var vb [2]byte
		binary.BigEndian.PutUint16(vb[:], uint16(idx))
		if err := a.flows.Add(key, vb[:]); err != nil {
			a.meta.Inc(NFTableFull, len(ctx.Data))
			return ppe.VerdictPass
		}
		a.next.Add(1)
		a.meta.Inc(NFLearned, len(ctx.Data))
		a.stats.Inc(int(idx), len(ctx.Data))
		return ppe.VerdictPass
	}
	a.meta.Inc(NFMatched, len(ctx.Data))
	a.stats.Inc(int(binary.BigEndian.Uint16(val)), len(ctx.Data))
	return ppe.VerdictPass
}
