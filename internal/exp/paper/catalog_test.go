package paper

import (
	"testing"

	"flexsfp/internal/exp"
)

// The catalog gates: every registry app (plus the two-way shell) fits
// the MPF200T, and the edge-protocol trio holds line rate on its
// matched traffic profile.
func TestCatalogGates(t *testing.T) {
	r, err := Catalog(exp.RunContext{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Apps) < 15 {
		t.Fatalf("catalog covers %d apps, want ≥ 15", len(r.Apps))
	}
	if !r.FitsAll {
		for _, a := range r.Apps {
			if !a.Fits {
				t.Errorf("%s does not fit the MPF200T (max util %.1f%%)", a.App, a.UtilMaxPct)
			}
		}
	}
	if !r.NewAppsLineRate {
		for _, a := range r.Apps {
			if newCatalogApps[a.App] && !a.LineRate {
				t.Errorf("%s drops on its matched profile: %d queue drops", a.App, a.Drops)
			}
		}
	}
	seen := map[string]bool{}
	for _, a := range r.Apps {
		seen[a.App] = true
		if a.OfferedPPS <= 0 || a.DeliveredPPS <= 0 {
			t.Errorf("%s: no traffic measured (offered %.0f, delivered %.0f)", a.App, a.OfferedPPS, a.DeliveredPPS)
		}
	}
	for name := range newCatalogApps {
		if !seen[name] {
			t.Errorf("new app %s missing from catalog sweep", name)
		}
	}
}

// Same seed, same sweep: the catalog result must be deterministic, at
// any parallelism.
func TestCatalogDeterministic(t *testing.T) {
	a, err := Catalog(exp.RunContext{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Catalog(exp.RunContext{Seed: 7, Parallelism: 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Apps) != len(b.Apps) {
		t.Fatalf("app count differs: %d vs %d", len(a.Apps), len(b.Apps))
	}
	for i := range a.Apps {
		if a.Apps[i] != b.Apps[i] {
			t.Errorf("%s: results differ across parallelism:\n%+v\n%+v", a.Apps[i].App, a.Apps[i], b.Apps[i])
		}
	}
}
