package paper

import (
	"fmt"
	"math/rand"
	"sort"

	"flexsfp/internal/apps"
	"flexsfp/internal/build"
	"flexsfp/internal/exp"
	"flexsfp/internal/fpga"
	"flexsfp/internal/hls"
	"flexsfp/internal/netsim"
	"flexsfp/internal/runner"
	"flexsfp/internal/trafficgen"
)

// ---------------------------------------------------------------------------
// App-catalog registry sweep: every registered application priced on the
// MPF200T and driven at 10G with a protocol-matched traffic profile. This
// is the §3 "diverse use cases inside the cable" claim made measurable:
// each app must (a) fit the device next to the two-way shell and (b) the
// edge-protocol apps must hold line rate on the blend they exist for.

// CatalogAppRow is one app's fit and line-rate measurement.
type CatalogAppRow struct {
	App           string  `json:"app"`
	Profile       string  `json:"profile"`
	PipelineDepth int     `json:"pipeline_depth"`
	LUT4          int     `json:"lut4"`
	LSRAM         int     `json:"lsram"`
	USRAM         int     `json:"usram"`
	UtilMaxPct    float64 `json:"util_max_pct"`
	Fits          bool    `json:"fits"`
	OfferedPPS    float64 `json:"offered_pps"`
	DeliveredPPS  float64 `json:"delivered_pps"`
	Drops         uint64  `json:"drops"`
	LineRate      bool    `json:"line_rate"`
}

// CatalogResult is the registry sweep.
type CatalogResult struct {
	Apps []CatalogAppRow `json:"apps"`
	// FitsAll: every app + TwoWayCore shell fits the MPF200T.
	FitsAll bool `json:"fits_all"`
	// NewAppsLineRate: the edge-protocol trio holds line rate on its
	// matched profile (the xdp interpreter is program-bound and exempt,
	// like in the pipeline_opt experiment).
	NewAppsLineRate bool `json:"new_apps_line_rate"`
}

// newCatalogApps are the apps the line-rate gate applies to.
var newCatalogApps = map[string]bool{"arpguard": true, "dhcpsnoop": true, "dnsblock": true}

// catalogProfile matches each app to the traffic blend that exercises
// its tables; everything without a protocol of its own gets the
// heavy-tail TCP mix.
func catalogProfile(app string) trafficgen.Profile {
	switch app {
	case "arpguard":
		return trafficgen.ProfileARPStorm
	case "dhcpsnoop":
		return trafficgen.ProfileDHCPChurn
	case "dnsblock", "dohblock":
		return trafficgen.ProfileDNSEdge
	}
	return trafficgen.ProfileElephantMice
}

// runCatalogApp prices one app and drives it through the line-rate probe
// with its matched profile, on a private simulator.
func runCatalogApp(ctx exp.RunContext, name string) (CatalogAppRow, error) {
	cfg, err := apps.CanonicalConfig(name)
	if err != nil {
		return CatalogAppRow{}, err
	}
	row := CatalogAppRow{App: name, Profile: string(catalogProfile(name))}

	// Resource fit: shell + estimated program against the MPF200T.
	sim := netsim.New(ctx.Seed)
	mod, _, err := build.Module(sim, build.ModuleSpec{
		Name: "cat-" + name, DeviceID: 1, Shell: hls.TwoWayCore, App: name,
		ClockHz: ctx.ClockHz, DatapathBits: ctx.DatapathBits,
		Optimize: ctx.Optimize, Config: cfg,
	})
	if err != nil {
		return CatalogAppRow{}, err
	}
	appRes := hls.EstimateProgram(mod.Engine().Program(), build.BaseDatapathBits)
	used := hls.ShellResources(hls.TwoWayCore).Add(appRes)
	util := fpga.MPF200T.Utilization(used)
	row.PipelineDepth = mod.Engine().Program().PipelineDepth(build.BaseDatapathBits)
	row.LUT4, row.LSRAM, row.USRAM = used.LUT4, used.LSRAM, used.USRAM
	row.UtilMaxPct = util.Max()
	row.Fits = util.Max() <= 100

	// Line rate on the matched profile over an actual 10G wire.
	tmpl, err := trafficgen.ProfileTemplates(catalogProfile(name), 0)
	if err != nil {
		return CatalogAppRow{}, err
	}
	probe := newLineProbe(sim, mod)
	probe.start(trafficgen.Config{Templates: tmpl})
	probe.run()
	s := probe.sample()
	row.OfferedPPS, row.DeliveredPPS, row.Drops = s.offeredPPS, s.deliveredPPS, s.drops
	// The blocking apps drop frames by design; line rate here means the
	// queue never overflowed, exactly like the §5.1 sweep.
	row.LineRate = row.Drops == 0
	return row, nil
}

// Catalog runs the registry sweep.
func Catalog(ctx exp.RunContext) (CatalogResult, error) {
	names := apps.NewRegistry().Names()
	sort.Strings(names)
	rows, err := runner.Map(len(names), runner.Options{Seed: ctx.Seed, Parallelism: ctx.Parallelism},
		func(i int, _ *rand.Rand) (CatalogAppRow, error) {
			return runCatalogApp(ctx, names[i])
		})
	if err != nil {
		return CatalogResult{}, err
	}
	res := CatalogResult{Apps: rows, FitsAll: true, NewAppsLineRate: true}
	for _, r := range rows {
		if !r.Fits {
			res.FitsAll = false
		}
		if newCatalogApps[r.App] && !r.LineRate {
			res.NewAppsLineRate = false
		}
	}
	return res, nil
}

// Render formats the sweep.
func (r CatalogResult) Render() string {
	t := exp.NewTable("App", "Profile", "Depth", "4LUT", "LSRAM", "Util%", "Offered (Mpps)", "Delivered (Mpps)", "Drops", "Line rate?")
	for _, a := range r.Apps {
		ok := "yes"
		if !a.LineRate {
			ok = "NO"
		}
		t.Add(a.App, a.Profile, a.PipelineDepth, a.LUT4, a.LSRAM,
			fmt.Sprintf("%.1f", a.UtilMaxPct),
			fmt.Sprintf("%.3f", a.OfferedPPS/1e6),
			fmt.Sprintf("%.3f", a.DeliveredPPS/1e6),
			a.Drops, ok)
	}
	return "App catalog (§3): per-app resource fit + line rate on matched profiles\n" + t.String()
}

// runCatalog is the registered entry point.
func runCatalog(ctx exp.RunContext) (exp.Result, error) {
	r, err := Catalog(ctx)
	if err != nil {
		return nil, err
	}
	fitsAll, newLR, lineRateApps := 0.0, 0.0, 0.0
	if r.FitsAll {
		fitsAll = 1
	}
	if r.NewAppsLineRate {
		newLR = 1
	}
	for _, a := range r.Apps {
		if a.LineRate {
			lineRateApps++
		}
	}
	env := exp.Envelope{
		Name: "catalog", Params: ctx.Params(), Detail: r,
		Metrics: []exp.Metric{
			exp.Scalar("catalog_apps", "", float64(len(r.Apps))),
			exp.Scalar("fits_all", "bool", fitsAll),
			exp.Scalar("new_apps_line_rate", "bool", newLR),
			exp.Scalar("line_rate_apps", "", lineRateApps),
		},
	}
	return exp.NewResult(env, r.Render), nil
}
