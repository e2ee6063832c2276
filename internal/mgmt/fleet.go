package mgmt

import (
	"fmt"
	"sort"
	"sync"
)

// Fleet is the orchestrator-side view of many modules (§4.1: "This is
// essential for centralized orchestration across a fleet of FlexSFPs,
// while preserving the independence of per-port behavior"). Operations
// fan out concurrently over each member's transport and collect
// per-module outcomes.
type Fleet struct {
	mu      sync.Mutex
	members map[string]*Client
}

// NewFleet returns an empty fleet.
func NewFleet() *Fleet {
	return &Fleet{members: make(map[string]*Client)}
}

// Add registers a module under a fleet-unique name.
func (f *Fleet) Add(name string, t Transport) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.members[name] = NewClient(t)
}

// Names returns the member names, sorted.
func (f *Fleet) Names() []string {
	f.mu.Lock()
	defer f.mu.Unlock()
	out := make([]string, 0, len(f.members))
	for n := range f.members {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// SetRetryPolicy installs the same retry/deadline policy on every current
// member's client.
func (f *Fleet) SetRetryPolicy(p RetryPolicy) {
	f.mu.Lock()
	defer f.mu.Unlock()
	for _, c := range f.members {
		c.SetRetryPolicy(p)
	}
}

// Outcome is one member's result from a fleet operation.
type Outcome struct {
	Name string
	Err  error
}

// memberRef is a (name, client) pair captured by fanOut.
type memberRef struct {
	name string
	c    *Client
}

// fanOut captures the current members once, sorted by name, and runs op
// against each concurrently; outcomes come back in name order. (Staged
// rollouts with canaries, waves and rollback are daemon.FleetController's.)
func (f *Fleet) fanOut(op func(name string, c *Client) error) []Outcome {
	f.mu.Lock()
	ms := make([]memberRef, 0, len(f.members))
	for n, c := range f.members {
		ms = append(ms, memberRef{n, c})
	}
	f.mu.Unlock()
	sort.Slice(ms, func(i, j int) bool { return ms[i].name < ms[j].name })
	out := make([]Outcome, len(ms))
	var wg sync.WaitGroup
	for i, m := range ms {
		wg.Add(1)
		go func() {
			defer wg.Done()
			out[i] = Outcome{Name: m.name, Err: op(m.name, m.c)}
		}()
	}
	wg.Wait()
	return out
}

// PingAll checks liveness across the fleet, returning per-member info.
func (f *Fleet) PingAll() (map[string]Info, []Outcome) {
	infos := make(map[string]Info)
	var mu sync.Mutex
	outcomes := f.fanOut(func(name string, c *Client) error {
		info, err := c.Ping()
		if err != nil {
			return err
		}
		mu.Lock()
		infos[name] = info
		mu.Unlock()
		return nil
	})
	return infos, outcomes
}

// StatsAll gathers counters across the fleet.
func (f *Fleet) StatsAll() (map[string]Stats, []Outcome) {
	stats := make(map[string]Stats)
	var mu sync.Mutex
	outcomes := f.fanOut(func(name string, c *Client) error {
		s, err := c.ReadStats()
		if err != nil {
			return err
		}
		mu.Lock()
		stats[name] = s
		mu.Unlock()
		return nil
	})
	return stats, outcomes
}

// PushAll streams a signed bitstream to every member (the fleet-wide
// feature rollout of §2.1), optionally rebooting into it.
func (f *Fleet) PushAll(signed []byte, slot int, rebootAfter bool) []Outcome {
	return f.fanOut(func(name string, c *Client) error {
		return c.PushBitstream(signed, slot, rebootAfter)
	})
}

// Failures filters outcomes to the failed ones.
func Failures(outcomes []Outcome) []Outcome {
	var out []Outcome
	for _, o := range outcomes {
		if o.Err != nil {
			out = append(out, o)
		}
	}
	return out
}

// Summary renders a one-line rollout summary.
func Summary(outcomes []Outcome) string {
	fails := Failures(outcomes)
	return fmt.Sprintf("%d ok, %d failed of %d modules",
		len(outcomes)-len(fails), len(fails), len(outcomes))
}
