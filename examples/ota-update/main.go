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
// The run fails, naming the claim, if the wrong key is accepted or the
// module does not end on the new firewall with its old image kept.
//
//	go run ./examples/ota-update
package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"net/netip"
	"os"
	"slices"

	"flexsfp/internal/apps"
	"flexsfp/internal/bitstream"
	"flexsfp/internal/build"
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
	log.SetFlags(0)
	log.SetPrefix("ota-update: ")
	if err := run(os.Stdout); err != nil {
		log.Fatal(err)
	}
}

// run reprograms a live module in-band and returns an error naming the
// first claim the run broke.
func run(w io.Writer) error {
	sim := netsim.New(1)

	// A module in the field, currently running NAT.
	mod, _, err := build.Module(sim, build.ModuleSpec{
		Name: "field-sfp-204", DeviceID: 204,
		Shell: hls.TwoWayCore, App: "nat", AuthKey: fleetKey,
	})
	if err != nil {
		return fmt.Errorf("building the field module: %w", err)
	}
	mod.SetTx(core.PortOptical, packet.PutBuffer)
	mgmt.NewAgent(mod) // installs itself as the module's in-band control handler

	// The management station reaches the module in-band: control frames
	// ride the same wire as data (demuxed by the arbiter ahead of the
	// PPE). Responses come back out the module's edge port.
	inband := mgmt.NewInBandTransport(mod, core.PortEdge, stationMAC, nil)
	client := mgmt.NewClient(inband)

	info, err := client.Ping()
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "before: module %q running %q (slot %d)\n", info.Name, info.AppName, 1)

	// Compile + sign the new application at the station.
	cfg, err := json.Marshal(apps.ACLConfig{
		DefaultDeny: true,
		Rules: []apps.ACLRule{
			{DstPort: 443, Proto: 6, Priority: 10},
			{DstPort: 53, Proto: 17, Priority: 10},
		},
	})
	if err != nil {
		return err
	}
	acl, err := hls.Compile(apps.NewACL().Program(), hls.Options{
		ClockHz: build.BaseClockHz, DatapathBits: build.BaseDatapathBits, Config: cfg,
	})
	if err != nil {
		return fmt.Errorf("compiling the ACL: %w", err)
	}
	encoded, err := acl.Bitstream.Encode()
	if err != nil {
		return err
	}

	// 1. An attacker without the fleet key is rejected.
	err = client.PushBitstream(bitstream.Sign(encoded, []byte("wrong-key")), 2, true)
	if err == nil {
		return errors.New("a push signed with the wrong key was accepted")
	}
	fmt.Fprintf(w, "unauthenticated push rejected: %v\n", err)

	// 2. The real station signs with the fleet key and pushes.
	signed := bitstream.Sign(encoded, fleetKey)
	fmt.Fprintf(w, "pushing %d signed bytes in %d-byte chunks over in-band control frames...\n",
		len(signed), mgmt.XferChunkSize)
	if err := client.PushBitstream(signed, 2, true); err != nil {
		return fmt.Errorf("the fleet-key push failed: %w", err)
	}

	// The reboot FSM runs in simulated time: flash write + FPGA config.
	fmt.Fprintf(w, "module rebooting (flash + FPGA configuration ≈%v)...\n",
		netsim.Duration(core.FPGAConfigTime))
	sim.Run()

	if info, err = client.Ping(); err != nil {
		return err
	}
	st, err := client.ReadStats()
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "after: module %q running %q (slot %d, boots %d)\n",
		info.Name, info.AppName, st.ActiveSlot, st.Boots)

	// Prove the new firewall is live: HTTPS passes, SSH is denied.
	var egress int
	mod.SetTx(core.PortOptical, func(b []byte) { egress++; packet.PutBuffer(b) })
	passes := func(dport uint16) bool {
		before := egress
		mod.RxEdge(packet.MustBuild(packet.Spec{
			SrcMAC: stationMAC, DstMAC: packet.MustMAC("02:0c:00:00:00:99"),
			SrcIP: netip.MustParseAddr("10.0.0.5"), DstIP: netip.MustParseAddr("198.51.100.1"),
			Proto: packet.IPProtocolTCP, SrcPort: 40000, DstPort: dport, PadTo: 64,
		}))
		sim.Run()
		return egress > before
	}
	https, ssh := passes(443), passes(22)
	fmt.Fprintf(w, "new policy live: HTTPS passes=%v, SSH blocked=%v (default deny)\n", https, !ssh)

	slots, err := client.Slots()
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "flash slots: %v (old image retained for rollback)\n", slots)

	switch {
	case info.AppName != "acl" || st.ActiveSlot != 2:
		return fmt.Errorf("after the reboot the module runs %q from slot %d, want \"acl\" from slot 2", info.AppName, st.ActiveSlot)
	case !https:
		return errors.New("the new firewall dropped HTTPS, which its rules allow")
	case ssh:
		return errors.New("the new firewall passed SSH, which its default deny drops")
	case !slices.Equal(slots, []string{"", "nat", "acl", ""}):
		return fmt.Errorf("flash slots read %q, want the old nat image in slot 1 beside acl in slot 2", slots)
	}
	return nil
}
