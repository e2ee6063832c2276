package trafficgen

import (
	"bytes"
	"testing"

	"flexsfp/internal/netsim"
	"flexsfp/internal/packet"
)

// profiles lists every defined profile in sweep order.
var profiles = []Profile{ProfileARPStorm, ProfileDHCPChurn, ProfileDNSEdge, ProfileElephantMice}

// newProfile builds a generator emitting p's blend over the default hosts.
func newProfile(t *testing.T, sim *netsim.Simulator, p Profile, cfg Config, sink func([]byte) bool) *Generator {
	t.Helper()
	tmpl, err := ProfileTemplates(p, 0)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Templates = tmpl
	return New(sim, cfg, sink)
}

// collectProfile runs a profile generator for n frames on a fresh
// simulator and returns copies of the emitted frames in order.
func collectProfile(t *testing.T, p Profile, seed int64, shards, partition int, n uint64) [][]byte {
	t.Helper()
	sh := netsim.NewSharded(seed, shards)
	sim := sh.Shard(sh.ShardFor(partition))
	var out [][]byte
	g := newProfile(t, sim, p, Config{
		PPS:  1e6,
		Rand: sh.Stream(partition),
	}, func(b []byte) bool {
		out = append(out, append([]byte(nil), b...))
		packet.PutBuffer(b)
		return true
	})
	g.Run(n)
	sh.Run()
	return out
}

// Same seed and profile must give a byte-identical frame sequence — the
// reproducibility contract every experiment leans on.
func TestProfileDeterminism(t *testing.T) {
	for _, p := range profiles {
		a := collectProfile(t, p, 42, 1, 0, 500)
		b := collectProfile(t, p, 42, 1, 0, 500)
		if len(a) != len(b) {
			t.Fatalf("%s: %d vs %d frames", p, len(a), len(b))
		}
		for i := range a {
			if !bytes.Equal(a[i], b[i]) {
				t.Fatalf("%s: frame %d differs between identical runs", p, i)
			}
		}
	}
}

// A profile generator keyed to a logical partition must emit the same
// bytes no matter how many shards host the topology (placement
// invariance; the -shards knob cannot change results).
func TestProfileShardPlacementInvariance(t *testing.T) {
	for _, p := range profiles {
		one := collectProfile(t, p, 7, 1, 3, 300)
		four := collectProfile(t, p, 7, 4, 3, 300)
		if len(one) != len(four) {
			t.Fatalf("%s: %d vs %d frames across shard counts", p, len(one), len(four))
		}
		for i := range one {
			if !bytes.Equal(one[i], four[i]) {
				t.Fatalf("%s: frame %d differs between 1-shard and 4-shard placement", p, i)
			}
		}
	}
}

// Every profile frame must satisfy the shared parser, and each blend
// must contain the protocols it advertises.
func TestProfileFramesParse(t *testing.T) {
	want := map[Profile][]string{
		ProfileARPStorm:     {"arp", "udp"},
		ProfileDHCPChurn:    {"dhcp"},
		ProfileDNSEdge:      {"dns", "tcp", "udp"},
		ProfileElephantMice: {"tcp"},
	}
	var v packet.View
	for _, p := range profiles {
		tmpl, err := ProfileTemplates(p, 0)
		if err != nil {
			t.Fatal(err)
		}
		if len(tmpl) == 0 {
			t.Fatalf("%s: empty template set", p)
		}
		kinds := map[string]bool{}
		for i, wf := range tmpl {
			if !v.Parse(wf.Frame) {
				t.Fatalf("%s: template %d does not parse", p, i)
			}
			switch {
			case v.IsARP:
				kinds["arp"] = true
			case v.IsIPv4 && v.Proto == packet.IPProtocolUDP:
				if _, ok := v.DHCPPayload(); ok {
					kinds["dhcp"] = true
				} else if _, ok := v.DNSPayload(); ok {
					kinds["dns"] = true
				} else {
					kinds["udp"] = true
				}
			case v.IsIPv4 && v.Proto == packet.IPProtocolTCP:
				kinds["tcp"] = true
			}
		}
		for _, k := range want[p] {
			if !kinds[k] {
				t.Errorf("%s: missing %s frames (got %v)", p, k, kinds)
			}
		}
	}
}

// ProfileTemplates is a pure function of (profile, hosts).
func TestProfileTemplatesDeterministic(t *testing.T) {
	for _, p := range profiles {
		a, err := ProfileTemplates(p, 8)
		if err != nil {
			t.Fatal(err)
		}
		b, err := ProfileTemplates(p, 8)
		if err != nil {
			t.Fatal(err)
		}
		if len(a) != len(b) {
			t.Fatalf("%s: template count differs", p)
		}
		for i := range a {
			if a[i].Weight != b[i].Weight || !bytes.Equal(a[i].Frame, b[i].Frame) {
				t.Fatalf("%s: template %d differs across builds", p, i)
			}
		}
	}
}

// The emission hot path — template pick, pooled buffer, copy, recycle —
// must not allocate, for any profile.
func TestProfileEmissionZeroAlloc(t *testing.T) {
	for _, p := range profiles {
		sim := netsim.New(1)
		g := newProfile(t, sim, p, Config{PPS: 1e6}, func(b []byte) bool { return true })
		allocs := testing.AllocsPerRun(500, func() {
			packet.PutBuffer(g.nextFrame())
		})
		if allocs != 0 {
			t.Errorf("%s: emission path allocates %.1f/op", p, allocs)
		}
	}
}
