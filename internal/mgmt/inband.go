package mgmt

import (
	"encoding/binary"
	"fmt"

	"flexsfp/internal/core"
	"flexsfp/internal/packet"
)

// InBandTransport reaches a module's management core through Ethernet
// control frames on the module's edge port — the in-band path of §4.1,
// where the arbiter demuxes control traffic ahead of the PPE so
// "remote access to the control logic" works "without disrupting the
// dataplane". It is synchronous with respect to the simulator: the
// module's control handler runs inline on frame receipt.
type InBandTransport struct {
	mod        *core.Module
	stationMAC packet.MAC
	port       core.PortID

	pending []byte
}

// NewInBandTransport installs a tee on the module's port (normally
// PortEdge) that captures control responses addressed to stationMAC and
// forwards everything else to dataTx (which may be nil for a standalone
// module, whose data frames are then dropped). It returns the management
// transport.
func NewInBandTransport(mod *core.Module, port core.PortID, stationMAC packet.MAC, dataTx func([]byte)) *InBandTransport {
	t := &InBandTransport{mod: mod, stationMAC: stationMAC, port: port}
	if dataTx == nil {
		dataTx = packet.PutBuffer
	}
	mod.SetTx(port, func(b []byte) {
		if len(b) >= 14 &&
			packet.EtherType(binary.BigEndian.Uint16(b[12:14])) == packet.EtherTypeFlexControl &&
			packet.MAC(b[0:6]) == stationMAC {
			t.pending = append([]byte(nil), b[14:]...)
			packet.PutBuffer(b)
			return
		}
		dataTx(b)
	})
	return t
}

// Do implements Transport: wrap the request in a control frame, inject
// it, and return the captured response.
func (t *InBandTransport) Do(req []byte) ([]byte, error) {
	t.pending = nil
	frame := packet.BuildEthernet(t.mod.MAC(), t.stationMAC, packet.EtherTypeFlexControl, req)
	switch t.port {
	case core.PortEdge:
		t.mod.RxEdge(frame)
	case core.PortOptical:
		t.mod.RxOptical(frame)
	case core.PortControl:
		t.mod.RxControl(frame)
	}
	if t.pending == nil {
		return nil, fmt.Errorf("mgmt: no in-band response from %s", t.mod.Name())
	}
	return t.pending, nil
}
