package exp

import (
	"fmt"
	"path"
	"strings"
	"sync"
)

// Registry holds named experiments in registration order (the canonical
// report order of cmd/flexsfp-bench). It is safe for concurrent use;
// registration normally happens from package inits.
type Registry struct {
	mu     sync.RWMutex
	byName map[string]Experiment
	order  []string
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	return &Registry{byName: map[string]Experiment{}}
}

// Default is the process-wide registry that experiments self-register
// into. Importing an experiment package (for its side effects) is what
// populates it — cmd/flexsfp-bench imports internal/exp/paper.
var Default = NewRegistry()

// Register adds experiments to the default registry; it panics on an
// empty or duplicate name (both are registration-time programming
// errors, not runtime conditions).
func Register(exps ...Experiment) { Default.Register(exps...) }

// Register adds experiments in order; see the package-level Register.
func (r *Registry) Register(exps ...Experiment) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, e := range exps {
		name := e.Name()
		if name == "" {
			panic("exp: Register with empty experiment name")
		}
		if _, dup := r.byName[name]; dup {
			panic(fmt.Sprintf("exp: duplicate experiment %q", name))
		}
		r.byName[name] = e
		r.order = append(r.order, name)
	}
}

// isHidden reports whether e opted out of wildcard selection.
func isHidden(e Experiment) bool {
	h, ok := e.(hidden)
	return ok && h.isHidden()
}

// Select resolves a comma-separated list of names and globs ("all",
// "table*", "power,linerate") to experiments in registration order,
// deduplicated. The wildcard selections skip hidden experiments unless
// includeHidden is set; exact names always match. Unknown names and
// globs that match nothing are errors, listing what is available.
func (r *Registry) Select(patterns string, includeHidden bool) ([]Experiment, error) {
	r.mu.RLock()
	defer r.mu.RUnlock()

	want := map[string]bool{}
	for _, raw := range strings.Split(patterns, ",") {
		pat := strings.TrimSpace(raw)
		if pat == "" {
			continue
		}
		if pat == "all" {
			pat = "*"
		}
		if !strings.ContainsAny(pat, "*?[") {
			// Exact name: must exist, and always matches (even hidden).
			if _, ok := r.byName[pat]; !ok {
				return nil, fmt.Errorf("unknown experiment %q (known: %s)",
					pat, strings.Join(r.order, ", "))
			}
			want[pat] = true
			continue
		}
		matched := false
		for _, name := range r.order {
			ok, err := path.Match(pat, name)
			if err != nil {
				return nil, fmt.Errorf("bad pattern %q: %w", pat, err)
			}
			if ok && (includeHidden || !isHidden(r.byName[name])) {
				want[name] = true
				matched = true
			}
		}
		if !matched {
			return nil, fmt.Errorf("pattern %q matched no experiment (known: %s)",
				pat, strings.Join(r.order, ", "))
		}
	}

	var out []Experiment
	for _, name := range r.order {
		if want[name] {
			out = append(out, r.byName[name])
		}
	}
	return out, nil
}

// List renders the registry as aligned "name  description" lines (the
// -list output), flagging hidden experiments.
func (r *Registry) List() string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	width := 0
	for _, name := range r.order {
		if len(name) > width {
			width = len(name)
		}
	}
	var sb strings.Builder
	for _, name := range r.order {
		e := r.byName[name]
		tag := ""
		if isHidden(e) {
			tag = " [opt-in]"
		}
		fmt.Fprintf(&sb, "%-*s  %s%s\n", width, name, e.Describe(), tag)
	}
	return sb.String()
}
