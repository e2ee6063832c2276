// Command flexsfp-ctl is the fleet-side management client: it speaks the
// mgmt protocol to a module's TCP management port (flexsfpd) to inspect
// state, program tables, dump live telemetry, and push signed bitstreams
// over the network — the §4.2 reprogramming workflow.
//
// Usage:
//
//	flexsfp-ctl -addr 127.0.0.1:9461 ping
//	flexsfp-ctl stats
//	flexsfp-ctl metrics
//	flexsfp-ctl trace -max 32
//	flexsfp-ctl ddm
//	flexsfp-ctl slots
//	flexsfp-ctl table-add -table nat -key 0a010001 -value cb007101
//	flexsfp-ctl table-dump -table nat
//	flexsfp-ctl ternary-add -table rules -value 0a000000000000000000000000 -mask ff000000000000000000000000 -priority 10 -data 01
//	flexsfp-ctl ternary-clear -table rules
//	flexsfp-ctl counter -bank stats -index 0
//	flexsfp-ctl compile -app acl -config '{"default_deny":true}' -out acl.fsfp -key <fleet-key>
//	flexsfp-ctl push -file acl.fsfp -slot 2 -reboot
//	flexsfp-ctl reboot -slot 1
//	flexsfp-ctl fleet-ping -addrs 10.0.0.1:9461,10.0.0.2:9461
//	flexsfp-ctl fleet-stats -addrs 10.0.0.1:9461,10.0.0.2:9461
//	flexsfp-ctl fleet-push -addrs 10.0.0.1:9461,10.0.0.2:9461 -file acl.fsfp -slot 2 -reboot
//
// A fleet-* command prints a line per module and a summary, and exits
// non-zero when any module failed. A module that cannot be reached fails
// only itself.
//
// Every request carries a fixed deadline, so a module that accepts the
// connection and never answers fails the command instead of hanging it.
package main

import (
	"encoding/hex"
	"fmt"
	"io"
	"log"
	"os"
	"slices"
	"strings"
	"time"

	"flag"

	"flexsfp/internal/apps"
	"flexsfp/internal/bitstream"
	"flexsfp/internal/build"
	"flexsfp/internal/hls"
	"flexsfp/internal/mgmt"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("flexsfp-ctl: ")
	if err := run(os.Args[1:], os.Stdout); err != nil {
		log.Fatal(err)
	}
}

// requestTimeout bounds each request's write and response read. A
// variable only so the silent-module test need not wait it out.
var requestTimeout = 10 * time.Second

// ctlError is the sentinel check() panics with; run recovers it into a
// plain error so the command logic can stay linear.
type ctlError struct{ err error }

// run executes one ctl invocation. Tests drive it in-process with a
// captured writer; main wires it to os.Args and os.Stdout.
func run(args []string, out io.Writer) (err error) {
	defer func() {
		if r := recover(); r != nil {
			ce, ok := r.(ctlError)
			if !ok {
				panic(r)
			}
			err = ce.err
		}
	}()

	top := flag.NewFlagSet("flexsfp-ctl", flag.ContinueOnError)
	addr := top.String("addr", "127.0.0.1:9461", "module management address")
	if err := top.Parse(args); err != nil {
		return err
	}
	rest := top.Args()
	if len(rest) == 0 {
		return fmt.Errorf("missing subcommand (ping, stats, metrics, trace, ddm, eeprom, slots, table-add, table-del, table-get, table-dump, ternary-add, ternary-clear, counter, meter-set, reg-read, reg-write, compile, push, reboot, fleet-ping, fleet-stats, fleet-push)")
	}
	cmd, rest := rest[0], rest[1:]

	// compile is purely local.
	if cmd == "compile" {
		compileCmd(rest, out)
		return nil
	}
	// fleet-* commands fan out over many modules.
	if strings.HasPrefix(cmd, "fleet-") {
		return fleetCmd(cmd, rest, out)
	}

	tr, err := mgmt.Dial(*addr)
	if err != nil {
		return fmt.Errorf("connecting to %s: %w", *addr, err)
	}
	defer tr.Close()
	c := mgmt.NewClient(tr)
	c.SetRetryPolicy(mgmt.RetryPolicy{RequestTimeout: requestTimeout})

	switch cmd {
	case "ping":
		info, err := c.Ping()
		check(err)
		fmt.Fprintf(out, "module %q device=%d app=%s running=%v\n",
			info.Name, info.DeviceID, info.AppName, info.Running)
	case "stats":
		st, err := c.ReadStats()
		check(err)
		fmt.Fprintf(out, "app=%s slot=%d running=%v\n", st.AppName, st.ActiveSlot, st.Running)
		fmt.Fprintf(out, "rx edge/optical/ctrl: %d/%d/%d  tx: %d/%d/%d\n",
			st.Rx[0], st.Rx[1], st.Rx[2], st.Tx[0], st.Tx[1], st.Tx[2])
		fmt.Fprintf(out, "engine: in=%d pass=%d drop=%d tx=%d redirect=%d tocpu=%d qdrop=%d\n",
			st.Engine.In, st.Engine.Pass, st.Engine.Drop, st.Engine.Tx,
			st.Engine.Redirect, st.Engine.ToCPU, st.Engine.QueueDrop)
		fmt.Fprintf(out, "control frames=%d reboot drops=%d boots=%d auth failures=%d\n",
			st.ControlFrames, st.RebootDrops, st.Boots, st.AuthFailures)
	case "metrics":
		snap, err := c.Telemetry()
		check(err)
		b, err := snap.MarshalJSONIndent()
		check(err)
		out.Write(b)
		fmt.Fprintln(out)
	case "trace":
		fs := flag.NewFlagSet(cmd, flag.ExitOnError)
		max := fs.Int("max", 0, "cap on most-recent events (0 = all buffered)")
		parse(fs, rest)
		evs, err := c.Traces(*max)
		check(err)
		for _, e := range evs {
			fmt.Fprintf(out, "t=%dns frame=%d %s len=%d aux=%d\n",
				e.TimeNs, e.ID, e.Stage, e.Len, e.Aux)
		}
		fmt.Fprintf(out, "%d events\n", len(evs))
	case "ddm":
		d, err := c.ReadDDM()
		check(err)
		fmt.Fprintf(out, "temp=%.1fC vcc=%.2fV txbias=%.1fmA txpower=%.1fdBm rxpower=%.1fdBm\n",
			d.TemperatureC, d.VccVolts, d.TxBiasMA, d.TxPowerDBm, d.RxPowerDBm)
	case "eeprom":
		id, _, err := c.ReadEEPROM()
		check(err)
		fmt.Fprintf(out, "vendor=%q pn=%q rev=%q sn=%q date=%s 10GBASE-SR=%v ddm=%v\n",
			id.VendorName, id.VendorPN, id.VendorRev, id.VendorSN,
			id.DateCode, id.Is10GBaseSR, id.DDMSupported)
	case "slots":
		slots, err := c.Slots()
		check(err)
		for i, s := range slots {
			if s == "" {
				s = "(empty)"
			}
			fmt.Fprintf(out, "slot %d: %s\n", i, s)
		}
	case "table-add":
		fs := flag.NewFlagSet(cmd, flag.ExitOnError)
		table := fs.String("table", "", "table name")
		key := fs.String("key", "", "hex key")
		value := fs.String("value", "", "hex value")
		parse(fs, rest)
		check(c.TableAdd(*table, mustHex(*key), mustHex(*value)))
		fmt.Fprintln(out, "ok")
	case "table-del":
		fs := flag.NewFlagSet(cmd, flag.ExitOnError)
		table := fs.String("table", "", "table name")
		key := fs.String("key", "", "hex key")
		parse(fs, rest)
		check(c.TableDel(*table, mustHex(*key)))
		fmt.Fprintln(out, "ok")
	case "table-get":
		fs := flag.NewFlagSet(cmd, flag.ExitOnError)
		table := fs.String("table", "", "table name")
		key := fs.String("key", "", "hex key")
		parse(fs, rest)
		v, err := c.TableGet(*table, mustHex(*key))
		check(err)
		fmt.Fprintf(out, "%x\n", v)
	case "table-dump":
		fs := flag.NewFlagSet(cmd, flag.ExitOnError)
		table := fs.String("table", "", "table name")
		parse(fs, rest)
		entries, err := c.TableDump(*table)
		check(err)
		for _, e := range entries {
			fmt.Fprintf(out, "%x -> %x (hits %d)\n", e.Key, e.Value, e.Hits)
		}
		fmt.Fprintf(out, "%d entries\n", len(entries))
	case "ternary-add":
		fs := flag.NewFlagSet(cmd, flag.ExitOnError)
		table := fs.String("table", "", "masked table name")
		value := fs.String("value", "", "hex match value")
		mask := fs.String("mask", "", "hex match mask")
		priority := fs.Int("priority", 0, "match priority (higher wins)")
		data := fs.String("data", "", "hex action data")
		parse(fs, rest)
		check(c.TernaryAdd(*table, mustHex(*value), mustHex(*mask), *priority, mustHex(*data)))
		fmt.Fprintln(out, "ok")
	case "ternary-clear":
		fs := flag.NewFlagSet(cmd, flag.ExitOnError)
		table := fs.String("table", "", "masked table name")
		parse(fs, rest)
		check(c.TernaryClear(*table))
		fmt.Fprintln(out, "ok")
	case "counter":
		fs := flag.NewFlagSet(cmd, flag.ExitOnError)
		bank := fs.String("bank", "", "counter bank")
		index := fs.Int("index", 0, "counter index")
		parse(fs, rest)
		pkts, bytes, err := c.CounterRead(*bank, *index)
		check(err)
		fmt.Fprintf(out, "packets=%d bytes=%d\n", pkts, bytes)
	case "meter-set":
		fs := flag.NewFlagSet(cmd, flag.ExitOnError)
		bank := fs.String("bank", "", "meter bank")
		index := fs.Int("index", 0, "meter index")
		rate := fs.Float64("rate", 0, "rate (bits/sec)")
		burst := fs.Float64("burst", 0, "burst (bits)")
		parse(fs, rest)
		check(c.MeterSet(*bank, *index, *rate, *burst))
		fmt.Fprintln(out, "ok")
	case "reg-read":
		fs := flag.NewFlagSet(cmd, flag.ExitOnError)
		name := fs.String("name", "", "register name")
		parse(fs, rest)
		v, err := c.RegRead(*name)
		check(err)
		fmt.Fprintln(out, v)
	case "reg-write":
		fs := flag.NewFlagSet(cmd, flag.ExitOnError)
		name := fs.String("name", "", "register name")
		value := fs.Uint64("value", 0, "value")
		parse(fs, rest)
		check(c.RegWrite(*name, *value))
		fmt.Fprintln(out, "ok")
	case "push":
		fs := flag.NewFlagSet(cmd, flag.ExitOnError)
		file := fs.String("file", "", "signed bitstream file")
		slot := fs.Int("slot", 2, "flash slot")
		reboot := fs.Bool("reboot", false, "reboot into the new image")
		parse(fs, rest)
		blob, err := os.ReadFile(*file)
		check(err)
		check(c.PushBitstream(blob, *slot, *reboot))
		fmt.Fprintf(out, "pushed %d bytes to slot %d (reboot=%v)\n", len(blob), *slot, *reboot)
	case "reboot":
		fs := flag.NewFlagSet(cmd, flag.ExitOnError)
		slot := fs.Int("slot", 0, "flash slot")
		parse(fs, rest)
		check(c.Reboot(*slot))
		fmt.Fprintln(out, "reboot requested")
	default:
		return fmt.Errorf("unknown subcommand %q", cmd)
	}
	return nil
}

// compileCmd builds and signs a bitstream locally.
func compileCmd(args []string, out io.Writer) {
	fs := flag.NewFlagSet("compile", flag.ExitOnError)
	app := fs.String("app", "", "application name")
	config := fs.String("config", "", "application config JSON")
	outFile := fs.String("out", "app.fsfp", "output file")
	key := fs.String("key", string(build.DefaultAuthKey), "fleet HMAC key")
	clock := fs.Int64("clock-hz", build.BaseClockHz, "PPE clock")
	width := fs.Int("width", build.BaseDatapathBits, "datapath bits")
	golden := fs.Bool("golden", false, "mark as golden image")
	parse(fs, args)

	registry := apps.NewRegistry()
	instance, err := registry.New(*app)
	check(err)
	design, err := hls.Compile(instance.Program(), hls.Options{
		ClockHz: *clock, DatapathBits: *width,
		Config: []byte(*config), Golden: *golden,
	})
	check(err)
	encoded, err := design.Bitstream.Encode()
	check(err)
	signed := bitstream.Sign(encoded, []byte(*key))
	check(os.WriteFile(*outFile, signed, 0o644))
	fmt.Fprintf(out, "compiled %s: %d LUT4 / %d FF / %d uSRAM / %d LSRAM; wrote %d signed bytes to %s\n",
		*app, design.Total.LUT4, design.Total.FF, design.Total.USRAM, design.Total.LSRAM,
		len(signed), *outFile)
}

// fleetCmd fans an operation out over a comma-separated address list
// (§4.1 fleet orchestration). It returns an error when any module failed.
func fleetCmd(cmd string, args []string, out io.Writer) error {
	fs := flag.NewFlagSet(cmd, flag.ExitOnError)
	addrs := fs.String("addrs", "", "comma-separated module management addresses")
	file := fs.String("file", "", "signed bitstream file (fleet-push)")
	slot := fs.Int("slot", 2, "flash slot (fleet-push)")
	reboot := fs.Bool("reboot", false, "reboot after push (fleet-push)")
	parse(fs, args)
	if *addrs == "" {
		return fmt.Errorf("fleet commands need -addrs host:port,host:port,...")
	}
	fleet := mgmt.NewFleet()
	var unreachable []mgmt.Outcome
	seen := map[string]bool{}
	for _, addr := range strings.Split(*addrs, ",") {
		addr = strings.TrimSpace(addr)
		if seen[addr] {
			continue // one module, one outcome
		}
		seen[addr] = true
		tr, err := mgmt.Dial(addr)
		if err != nil {
			unreachable = append(unreachable, mgmt.Outcome{Name: addr, Err: err})
			continue
		}
		defer tr.Close()
		fleet.Add(addr, tr)
	}
	fleet.SetRetryPolicy(mgmt.RetryPolicy{RequestTimeout: requestTimeout})
	var outcomes []mgmt.Outcome
	switch cmd {
	case "fleet-ping":
		var infos map[string]mgmt.Info
		infos, outcomes = fleet.PingAll()
		for _, name := range fleet.Names() {
			if info, ok := infos[name]; ok {
				fmt.Fprintf(out, "%s: module %q device=%d app=%s running=%v\n",
					name, info.Name, info.DeviceID, info.AppName, info.Running)
			}
		}
	case "fleet-stats":
		var stats map[string]mgmt.Stats
		stats, outcomes = fleet.StatsAll()
		for _, name := range fleet.Names() {
			if s, ok := stats[name]; ok {
				fmt.Fprintf(out, "%s: app=%s in=%d pass=%d drop=%d qdrop=%d\n",
					name, s.AppName, s.Engine.In, s.Engine.Pass, s.Engine.Drop, s.Engine.QueueDrop)
			}
		}
	case "fleet-push":
		blob, err := os.ReadFile(*file)
		check(err)
		outcomes = fleet.PushAll(blob, *slot, *reboot)
	default:
		return fmt.Errorf("unknown fleet subcommand %q (fleet-ping, fleet-stats, fleet-push)", cmd)
	}
	outcomes = append(outcomes, unreachable...)
	slices.SortFunc(outcomes, func(a, b mgmt.Outcome) int { return strings.Compare(a.Name, b.Name) })
	fails := mgmt.Failures(outcomes)
	for _, o := range fails {
		fmt.Fprintf(out, "%s: FAILED: %v\n", o.Name, o.Err)
	}
	fmt.Fprintln(out, mgmt.Summary(outcomes))
	if len(fails) > 0 {
		return fmt.Errorf("%s: %d of %d modules failed", cmd, len(fails), len(outcomes))
	}
	return nil
}

func parse(fs *flag.FlagSet, args []string) {
	if err := fs.Parse(args); err != nil {
		check(err)
	}
}

func mustHex(s string) []byte {
	b, err := hex.DecodeString(s)
	if err != nil {
		check(fmt.Errorf("bad hex %q: %w", s, err))
	}
	return b
}

// check aborts the current run with err; run's recover turns it into the
// returned error.
func check(err error) {
	if err != nil {
		panic(ctlError{err})
	}
}
