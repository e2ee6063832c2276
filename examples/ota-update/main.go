// Over-the-network reprogramming (§4.2): "the control plane
// authenticates reconfiguration packets whose payload carries a new
// bitstream; a small FSM writes it to SPI flash and then triggers a
// reboot so the SFP boots the new application."
//
// This example runs the full flow against a live module using only
// in-band Ethernet control frames: a management station compiles and
// signs a new ACL bitstream, streams it in chunks through the module's
// control EtherType, commits, and watches the module reboot from NAT
// into the firewall — while an unauthenticated push is rejected.
//
//	go run ./examples/ota-update
package main

import (
	"encoding/json"
	"fmt"
	"log"
	"net/netip"

	"flexsfp"
	"flexsfp/internal/apps"
	"flexsfp/internal/bitstream"
	"flexsfp/internal/core"
	"flexsfp/internal/hls"
	"flexsfp/internal/mgmt"
	"flexsfp/internal/netsim"
	"flexsfp/internal/packet"
)

var (
	stationMAC = packet.MustMAC("02:0c:00:00:00:01")
	fleetKey   = []byte("metro-fleet-key-2026")
)

func main() {
	sim := netsim.New(1)

	// A module in the field, currently running NAT.
	mod, _, err := flexsfp.BuildModule(sim, flexsfp.ModuleSpec{
		Name: "field-sfp-204", DeviceID: 204,
		Shell: flexsfp.TwoWayCore, App: "nat", AuthKey: fleetKey,
	})
	if err != nil {
		log.Fatal(err)
	}
	mod.SetTx(core.PortOptical, packet.PutBuffer)
	agent := mgmt.NewAgent(mod)
	_ = agent // installed as the module's in-band control handler

	// The management station reaches the module in-band: control frames
	// ride the same wire as data (demuxed by the arbiter ahead of the
	// PPE). Responses come back out the module's edge port.
	inband := mgmt.NewInBandTransport(mod, core.PortEdge, stationMAC, nil)
	client := mgmt.NewClient(inband)

	info, err := client.Ping()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("before: module %q running %q (slot %d)\n", info.Name, info.AppName, 1)

	// Compile + sign the new application at the station.
	acl, err := hls.Compile(apps.NewACL().Program(), hls.Options{
		ClockHz: flexsfp.BaseClockHz, DatapathBits: flexsfp.BaseDatapathBits,
		Config: mustJSON(apps.ACLConfig{
			DefaultDeny: true,
			Rules: []apps.ACLRule{
				{DstPort: 443, Proto: 6, Priority: 10},
				{DstPort: 53, Proto: 17, Priority: 10},
			},
		}),
	})
	if err != nil {
		log.Fatal(err)
	}
	encoded, err := acl.Bitstream.Encode()
	if err != nil {
		log.Fatal(err)
	}

	// 1. An attacker without the fleet key is rejected.
	badSigned := bitstream.Sign(encoded, []byte("wrong-key"))
	if err := client.PushBitstream(badSigned, 2, true); err != nil {
		fmt.Printf("unauthenticated push rejected: %v\n", err)
	} else {
		log.Fatal("unauthenticated push was accepted!")
	}

	// 2. The real station signs with the fleet key and pushes.
	signed := bitstream.Sign(encoded, fleetKey)
	fmt.Printf("pushing %d signed bytes in %d-byte chunks over in-band control frames...\n",
		len(signed), mgmt.XferChunkSize)
	if err := client.PushBitstream(signed, 2, true); err != nil {
		log.Fatal(err)
	}

	// The reboot FSM runs in simulated time: flash write + FPGA config.
	fmt.Printf("module rebooting (flash + FPGA configuration ≈%v)...\n",
		netsim.Duration(core.FPGAConfigTime))
	sim.Run()

	info, err = client.Ping()
	if err != nil {
		log.Fatal(err)
	}
	st, _ := client.ReadStats()
	fmt.Printf("after: module %q running %q (slot %d, boots %d)\n",
		info.Name, info.AppName, st.ActiveSlot, st.Boots)

	// Prove the new firewall is live: HTTPS passes, SSH is denied.
	var egress int
	mod.SetTx(core.PortOptical, func(b []byte) { egress++; packet.PutBuffer(b) })
	send := func(dport uint16) {
		mod.RxEdge(packet.MustBuild(packet.Spec{
			SrcMAC: stationMAC, DstMAC: packet.MustMAC("02:0c:00:00:00:99"),
			SrcIP: netip.MustParseAddr("10.0.0.5"), DstIP: netip.MustParseAddr("198.51.100.1"),
			Proto: packet.IPProtocolTCP, SrcPort: 40000, DstPort: dport, PadTo: 64,
		}))
		sim.Run()
	}
	send(443)
	httpsPassed := egress == 1
	send(22)
	sshBlocked := egress == 1
	fmt.Printf("new policy live: HTTPS passes=%v, SSH blocked=%v (default deny)\n",
		httpsPassed, sshBlocked)

	slots, _ := client.Slots()
	fmt.Printf("flash slots: %v (old image retained for rollback)\n", slots)
}

func mustJSON(v apps.ACLConfig) []byte {
	b, err := jsonMarshal(v)
	if err != nil {
		log.Fatal(err)
	}
	return b
}

func jsonMarshal(v any) ([]byte, error) { return json.Marshal(v) }
