package mgmt

import (
	"encoding/binary"
	"net/netip"

	"flexsfp/internal/core"
	"flexsfp/internal/netsim"
	"flexsfp/internal/packet"
)

// FlowExporter realizes the Active-Core vision of §4.1: "the control
// plane is not limited to configuring the data plane, but can also
// originate and terminate traffic, transforming the SFP … into an active
// network component." It periodically drains a flow-accounting app's
// records and originates UDP export datagrams from the module's
// dedicated control-plane port — a self-contained NetFlow exporter
// living inside the transceiver.
type FlowExporter struct {
	sim *netsim.Simulator
	mod *core.Module

	// Collector addressing.
	SrcIP, DstIP     [4]byte
	SrcPort, DstPort uint16
	CollectorMAC     packet.MAC

	// MaxRecordsPerPacket bounds the datagram size.
	MaxRecordsPerPacket int

	ticker *netsim.Ticker

	Exported uint64 // flow records exported
	Packets  uint64 // export datagrams originated
}

// FlowSource is what the exporter drains — the netflow app implements it.
type FlowSource interface {
	Export() []FlowRecord
}

// FlowSourceFunc adapts a function (e.g. a closure converting an app's
// native record type) to FlowSource.
type FlowSourceFunc func() []FlowRecord

// Export implements FlowSource.
func (f FlowSourceFunc) Export() []FlowRecord { return f() }

// FlowRecord mirrors apps.FlowStat without importing apps (mgmt sits
// below the app catalog).
type FlowRecord struct {
	Key     []byte // 13-byte 5-tuple
	Packets uint64
	Bytes   uint64
}

// ExportRecordSize is the encoded size of one record: key(13) +
// packets(8) + bytes(8).
const ExportRecordSize = 13 + 8 + 8

// ExportHeaderSize is the datagram header: version(2) + count(2) +
// deviceID(4) + timestampNs(8).
const ExportHeaderSize = 16

// ExportVersion identifies the export format.
const ExportVersion = 1

// NewFlowExporter builds an exporter for an Active-Core module.
func NewFlowExporter(sim *netsim.Simulator, mod *core.Module) *FlowExporter {
	return &FlowExporter{
		sim:                 sim,
		mod:                 mod,
		SrcIP:               [4]byte{10, 255, 255, 1},
		DstIP:               [4]byte{10, 255, 255, 100},
		SrcPort:             9995,
		DstPort:             2055, // conventional NetFlow port
		CollectorMAC:        packet.MAC{0x02, 0xc0, 0x11, 0xec, 0x70, 0x01},
		MaxRecordsPerPacket: 24,
	}
}

// Start begins periodic export every interval; src supplies the records.
func (e *FlowExporter) Start(interval netsim.Duration, src FlowSource) {
	e.ticker = e.sim.Every(interval, func() bool {
		e.exportOnce(src)
		return true
	})
}

// Stop halts periodic export.
func (e *FlowExporter) Stop() {
	if e.ticker != nil {
		e.ticker.Stop()
	}
}

func (e *FlowExporter) exportOnce(src FlowSource) {
	records := src.Export()
	for start := 0; start < len(records); start += e.MaxRecordsPerPacket {
		end := start + e.MaxRecordsPerPacket
		if end > len(records) {
			end = len(records)
		}
		e.sendBatch(records[start:end])
	}
}

func (e *FlowExporter) sendBatch(records []FlowRecord) {
	payload := make([]byte, ExportHeaderSize+len(records)*ExportRecordSize)
	binary.BigEndian.PutUint16(payload[0:2], ExportVersion)
	binary.BigEndian.PutUint16(payload[2:4], uint16(len(records)))
	binary.BigEndian.PutUint32(payload[4:8], e.mod.DeviceID())
	binary.BigEndian.PutUint64(payload[8:16], uint64(e.sim.Now()))
	off := ExportHeaderSize
	for _, r := range records {
		copy(payload[off:off+13], r.Key)
		binary.BigEndian.PutUint64(payload[off+13:], r.Packets)
		binary.BigEndian.PutUint64(payload[off+21:], r.Bytes)
		off += ExportRecordSize
	}

	frame, err := packet.Build(packet.Spec{
		SrcMAC:  e.mod.MAC(),
		DstMAC:  e.CollectorMAC,
		SrcIP:   addr4(e.SrcIP),
		DstIP:   addr4(e.DstIP),
		SrcPort: e.SrcPort,
		DstPort: e.DstPort,
		Payload: payload,
	})
	if err != nil {
		return
	}
	if e.mod.SendFrom(core.PortControl, frame) == nil {
		e.Packets++
		e.Exported += uint64(len(records))
	}
}

// ParseExport decodes an export datagram payload back into records (the
// collector side).
func ParseExport(payload []byte) (deviceID uint32, tsNs uint64, records []FlowRecord, err error) {
	if len(payload) < ExportHeaderSize {
		return 0, 0, nil, ErrShortMessage
	}
	if binary.BigEndian.Uint16(payload[0:2]) != ExportVersion {
		return 0, 0, nil, ErrBadVersion
	}
	n := int(binary.BigEndian.Uint16(payload[2:4]))
	deviceID = binary.BigEndian.Uint32(payload[4:8])
	tsNs = binary.BigEndian.Uint64(payload[8:16])
	if len(payload) < ExportHeaderSize+n*ExportRecordSize {
		return 0, 0, nil, ErrShortMessage
	}
	off := ExportHeaderSize
	for i := 0; i < n; i++ {
		records = append(records, FlowRecord{
			Key:     append([]byte(nil), payload[off:off+13]...),
			Packets: binary.BigEndian.Uint64(payload[off+13:]),
			Bytes:   binary.BigEndian.Uint64(payload[off+21:]),
		})
		off += ExportRecordSize
	}
	return deviceID, tsNs, records, nil
}

func addr4(b [4]byte) netip.Addr { return netip.AddrFrom4(b) }
