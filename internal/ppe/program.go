// Package ppe implements the FlexSFP Packet Processing Engine: the
// programming model applications are written against (an XDP-like verdict
// model over declarative parse/match-action structure, §4.2) and the
// runtime that executes compiled pipelines with cycle accounting derived
// from the datapath width and clock, so line-rate claims are executed
// rather than assumed.
//
// A Program carries two views of an application:
//
//   - a declarative structure (parsed layers, tables, actions, stages)
//     from which the HLS estimator computes FPGA resources and from which
//     the runtime derives pipeline latency;
//   - a behavioral Handler, the Go model of the synthesized logic, which
//     transforms packets at simulation time.
package ppe

import (
	"errors"
	"fmt"

	"flexsfp/internal/packet"
)

// Verdict is the outcome of processing one frame (XDP-style).
type Verdict int

// Verdicts.
const (
	// VerdictPass forwards the frame to the opposite interface.
	VerdictPass Verdict = iota
	// VerdictDrop discards the frame.
	VerdictDrop
	// VerdictTx bounces the frame back out its ingress interface.
	VerdictTx
	// VerdictRedirect sends the frame out the interface selected in
	// Ctx.RedirectPort.
	VerdictRedirect
	// VerdictToCPU punts the frame to the embedded control plane.
	VerdictToCPU
)

func (v Verdict) String() string {
	switch v {
	case VerdictPass:
		return "pass"
	case VerdictDrop:
		return "drop"
	case VerdictTx:
		return "tx"
	case VerdictRedirect:
		return "redirect"
	case VerdictToCPU:
		return "to-cpu"
	default:
		return fmt.Sprintf("Verdict(%d)", int(v))
	}
}

// Direction is the frame's direction of travel through the module.
type Direction int

// Directions.
const (
	// DirEdgeToOptical is host/switch → fiber.
	DirEdgeToOptical Direction = iota
	// DirOpticalToEdge is fiber → host/switch.
	DirOpticalToEdge
)

// Reverse returns the opposite direction.
func (d Direction) Reverse() Direction { return 1 - d }

// Ctx is the per-packet context handed to a Handler. Data is mutable; a
// handler that grows or shrinks the frame replaces Data.
type Ctx struct {
	Data        []byte
	Dir         Direction
	TimestampNs uint64
	// RedirectPort selects the egress interface for VerdictRedirect:
	// 0 = edge, 1 = optical, 2 = control-plane port (ActiveCore only).
	RedirectPort int
	// TraceID carries the frame's packet-trace identity through the
	// pipeline (0 = frame not sampled / tracing disabled). Set by the
	// engine at submission from the ambient tracer register.
	TraceID uint64
}

// Handler is the behavioral model of a compiled packet function.
type Handler interface {
	// HandlePacket processes one frame in place and returns a verdict.
	HandlePacket(ctx *Ctx) Verdict
}

// HandlerFunc adapts a function to the Handler interface.
type HandlerFunc func(ctx *Ctx) Verdict

// HandlePacket implements Handler.
func (f HandlerFunc) HandlePacket(ctx *Ctx) Verdict { return f(ctx) }

// TableKind selects the matching discipline of a table.
type TableKind int

// Table kinds.
const (
	// TableExact is an exact-match hash table, stored in LSRAM.
	TableExact TableKind = iota
	// TableTernary is a priority-ordered masked (TCAM-style) table,
	// stored in fabric registers — expensive per entry by design, which
	// keeps ACLs small (§5.3: large tables are out of scope).
	TableTernary
)

// TableSpec declares a match table for synthesis.
type TableSpec struct {
	Name      string
	Kind      TableKind
	KeyBits   int
	ValueBits int
	Size      int // capacity in entries
}

// ActionKind identifies an action primitive for resource estimation.
type ActionKind int

// Action primitives.
const (
	// ActionRewrite overwrites a header field (Bits wide).
	ActionRewrite ActionKind = iota
	// ActionChecksum incrementally updates IPv4/L4 checksums.
	ActionChecksum
	// ActionHash computes a flow hash (Bits wide result).
	ActionHash
	// ActionPush inserts Bytes of header.
	ActionPush
	// ActionPop removes Bytes of header.
	ActionPop
	// ActionTimestamp captures/inserts a nanosecond timestamp.
	ActionTimestamp
	// ActionCounterBank is a bank of Count 64-bit counters.
	ActionCounterBank
	// ActionMeterBank is a bank of Count token-bucket meters.
	ActionMeterBank
)

// ActionSpec declares one action primitive instance.
type ActionSpec struct {
	Kind  ActionKind
	Bits  int // for Rewrite/Hash
	Bytes int // for Push/Pop
	Count int // for CounterBank/MeterBank
}

// RegisterSpec declares a stateful register (FlowBlaze-style per-app
// scratch state).
type RegisterSpec struct {
	Name string
	Bits int
}

// Program is a complete PPE application.
type Program struct {
	Name    string
	Version uint32
	// ParseLayers lists the headers the parser must extract, outermost
	// first (determines parser resources and depth).
	ParseLayers []packet.LayerType
	Tables      []TableSpec
	Registers   []RegisterSpec
	Actions     []ActionSpec
	// Stages is the number of match-action stages (the paper keeps
	// chains compact: about 3–4 stages in a Two-Way-Core, §5.3).
	Stages int
	// ProgCycles, when non-zero, marks the program as executing on a
	// sequential soft core (the hXDP-class eBPF datapath) that needs this
	// many clock cycles per packet. The pipeline input is then occupied
	// for max(streaming words, ProgCycles) cycles, so instruction-bound
	// programs saturate below wire rate until an optimizer compacts and
	// packs them. Zero means fully pipelined match-action logic whose
	// service time is set by header streaming alone.
	ProgCycles int
	// Handler is the behavioral model; nil programs are structure-only
	// (useful for synthesis studies).
	Handler Handler
}

// Validation errors.
var (
	ErrNoName        = errors.New("ppe: program has no name")
	ErrNoStages      = errors.New("ppe: program needs at least one stage")
	ErrBadProgCycles = errors.New("ppe: negative ProgCycles")
	ErrBadTable      = errors.New("ppe: invalid table spec")
	ErrBadAction     = errors.New("ppe: invalid action spec")
	ErrBadRegister   = errors.New("ppe: invalid register spec")
)

// Validate checks the declarative structure.
func (p *Program) Validate() error {
	if p.Name == "" {
		return ErrNoName
	}
	if p.Stages < 1 {
		return ErrNoStages
	}
	if p.ProgCycles < 0 {
		return fmt.Errorf("%w: %d", ErrBadProgCycles, p.ProgCycles)
	}
	for _, t := range p.Tables {
		if t.Name == "" || t.KeyBits <= 0 || t.ValueBits < 0 || t.Size <= 0 {
			return fmt.Errorf("%w: %+v", ErrBadTable, t)
		}
		if t.Kind == TableTernary && t.Size > 4096 {
			return fmt.Errorf("%w: ternary table %q with %d entries (register-based TCAM caps at 4096)",
				ErrBadTable, t.Name, t.Size)
		}
	}
	for _, a := range p.Actions {
		switch a.Kind {
		case ActionRewrite, ActionHash:
			if a.Bits <= 0 {
				return fmt.Errorf("%w: %+v needs Bits", ErrBadAction, a)
			}
		case ActionPush, ActionPop:
			if a.Bytes <= 0 {
				return fmt.Errorf("%w: %+v needs Bytes", ErrBadAction, a)
			}
		case ActionCounterBank, ActionMeterBank:
			if a.Count <= 0 {
				return fmt.Errorf("%w: %+v needs Count", ErrBadAction, a)
			}
		case ActionChecksum, ActionTimestamp:
			// No parameters.
		default:
			return fmt.Errorf("%w: unknown kind %d", ErrBadAction, a.Kind)
		}
	}
	for _, r := range p.Registers {
		if r.Name == "" || r.Bits <= 0 {
			return fmt.Errorf("%w: %+v", ErrBadRegister, r)
		}
	}
	return nil
}

// ParserHeaderBytes returns the total header bytes the parser extracts,
// using canonical (option-free) header sizes.
func (p *Program) ParserHeaderBytes() int {
	total := 0
	for _, lt := range p.ParseLayers {
		total += HeaderBytes(lt)
	}
	return total
}

// HeaderBytes returns the canonical (option-free) wire size of a header,
// used for parser resource estimation and pipeline-depth accounting.
func HeaderBytes(lt packet.LayerType) int {
	switch lt {
	case packet.LayerTypeEthernet:
		return 14
	case packet.LayerTypeDot1Q, packet.LayerTypeMPLS:
		return 4
	case packet.LayerTypeARP:
		return 28
	case packet.LayerTypeIPv4:
		return 20
	case packet.LayerTypeIPv6:
		return 40
	case packet.LayerTypeTCP:
		return 20
	case packet.LayerTypeUDP, packet.LayerTypeICMPv4, packet.LayerTypeVXLAN:
		return 8
	case packet.LayerTypeGRE:
		return 4
	case packet.LayerTypeDNS:
		return 12
	case packet.LayerTypeDHCPv4:
		// The parser extracts the fixed BOOTP fields through chaddr
		// (op..flags 12, four addresses 16, chaddr 16); sname/file stream
		// past unparsed.
		return 44
	case packet.LayerTypeINT:
		return 4
	default:
		return 8
	}
}

// PipelineDepth returns the pipeline depth in cycles: parser (one cycle
// per datapath word of extracted headers), two cycles per match-action
// stage (match + action), and a deparser/realign cycle.
func (p *Program) PipelineDepth(datapathBits int) int {
	words := (p.ParserHeaderBytes()*8 + datapathBits - 1) / datapathBits
	if words < 1 {
		words = 1
	}
	return words + 2*p.Stages + 1
}
