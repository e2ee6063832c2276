// Sharded fleet controller: the daemon-side orchestration layer that
// operates 100k–1M cables from one process (ROADMAP item 1). Members are
// partitioned across W worker shards by a stable hash of their name;
// OTA pushes advance in lock-stepped waves where every shard runs its
// own canary gate and a shard that trips its gate rolls back only its
// own members — bounding blast radius — while a global circuit breaker
// aborts the remaining waves when the cross-shard failure rate breaches
// its threshold. Telemetry aggregates
// hierarchically: each shard pre-folds its members' snapshots and the
// global merge touches only the W per-shard folds.
package daemon

import (
	"errors"
	"fmt"
	"slices"
	"sort"
	"sync"

	"flexsfp/internal/mgmt"
	"flexsfp/internal/telemetry"
)

// FleetMember is one managed module as the controller sees it. The
// production implementation is ClientMember (a mgmt.Client over TCP or
// an in-band transport, and what the §4.2 chaos experiment drives);
// fleet-scale simulation uses SimMember.
//
// A member's methods are only ever called from its own shard's worker,
// so implementations need not be safe for concurrent use — but two
// members of different shards are driven concurrently.
type FleetMember interface {
	Name() string
	// Push streams a signed image into slot and reboots into it.
	Push(signed []byte, slot int, rebootAfter bool) error
	// Stats reads the member's health/identity counters.
	Stats() (mgmt.Stats, error)
	// Reboot boots the member into slot (the rollback path).
	Reboot(slot int) error
	// Telemetry reads the member's metric snapshot into dst, which the
	// caller owns and reuses from member to member: an implementation may
	// refill dst's slices in place and must not keep them.
	Telemetry(dst *telemetry.Snapshot) error
}

// ClientMember adapts a mgmt.Client to FleetMember.
type ClientMember struct {
	name string
	c    *mgmt.Client
}

// NewClientMember wraps a named management client.
func NewClientMember(name string, c *mgmt.Client) *ClientMember {
	return &ClientMember{name: name, c: c}
}

// Name implements FleetMember.
func (m *ClientMember) Name() string { return m.name }

// Client exposes the underlying management client.
func (m *ClientMember) Client() *mgmt.Client { return m.c }

// Push implements FleetMember via the resumable chunked OTA path.
func (m *ClientMember) Push(signed []byte, slot int, rebootAfter bool) error {
	return m.c.PushBitstream(signed, slot, rebootAfter)
}

// Stats implements FleetMember.
func (m *ClientMember) Stats() (mgmt.Stats, error) { return m.c.ReadStats() }

// Reboot implements FleetMember.
func (m *ClientMember) Reboot(slot int) error { return m.c.Reboot(slot) }

// Telemetry implements FleetMember with the snapshot the agent returns.
func (m *ClientMember) Telemetry(dst *telemetry.Snapshot) error {
	snap, err := m.c.Telemetry()
	if err != nil {
		return err
	}
	*dst = snap
	return nil
}

// ShardFor maps a member name to its worker shard in [0, shards) with a
// stable FNV-1a/SplitMix64 hash: the same name lands on the same shard
// in every process, so per-shard canary history and rollback scope are
// stable across controller restarts.
func ShardFor(name string, shards int) int {
	if shards <= 1 {
		return 0
	}
	const (
		fnvOffset = 14695981039346656037
		fnvPrime  = 1099511628211
	)
	h := uint64(fnvOffset)
	for i := 0; i < len(name); i++ {
		h ^= uint64(name[i])
		h *= fnvPrime
	}
	// SplitMix64 finalizer scatters the FNV state so consecutive names
	// don't stripe.
	h ^= h >> 30
	h *= 0xBF58476D1CE4E5B9
	h ^= h >> 27
	h *= 0x94D049BB133111EB
	h ^= h >> 31
	return int(h % uint64(shards))
}

// FleetConfig tunes a sharded rollout. Per shard, Canaries members are
// updated and health-checked before the shard fans out in waves, and a
// shard whose cumulative failed/attempted fraction exceeds MaxFailureFrac
// trips — rolling back only its own members.
type FleetConfig struct {
	// Shards is the worker shard count W (<=1 means a single shard).
	Shards int
	// TargetSlot is the flash slot every member reboots into.
	TargetSlot int
	// Canaries is each shard's canary count before its waves; default 1.
	Canaries int
	// WaveSize bounds each shard's per-wave batch after its canaries;
	// 0 = all remaining members in one wave.
	WaveSize int
	// MaxFailureFrac is the per-shard gate threshold; default 0.25.
	MaxFailureFrac float64
	// GlobalMaxFailureFrac is the circuit breaker: when the cross-shard
	// cumulative failure fraction exceeds it at a wave barrier, all
	// remaining waves are aborted fleet-wide. Default 0.5.
	GlobalMaxFailureFrac float64
	// Bake re-health-checks each wave's updated members at the wave
	// barrier before the next wave starts (the inter-wave health bake):
	// late failures count toward the shard's gate and are remediated.
	Bake bool
	// RemediationRetries bounds per-member rollback attempts for a
	// member found unhealthy on the target image; default 4.
	RemediationRetries int
	// HealthCheck validates a member after push+reboot (and during
	// bake). nil uses the default: Stats must report Running with
	// TargetSlot active.
	HealthCheck func(m FleetMember) error
	// WaveCost, when non-nil, prices one shard-wave after it completes
	// (e.g. max simulated push latency across the batch). Per-shard
	// costs accumulate over its waves; FleetReport.CostNs is the max
	// across shards — shards run in parallel, waves within one do not.
	WaveCost func(wave int, batch []FleetMember) uint64
}

func (cfg *FleetConfig) setDefaults() {
	if cfg.Shards < 1 {
		cfg.Shards = 1
	}
	if cfg.Canaries <= 0 {
		cfg.Canaries = 1
	}
	if cfg.MaxFailureFrac <= 0 {
		cfg.MaxFailureFrac = 0.25
	}
	if cfg.GlobalMaxFailureFrac <= 0 {
		cfg.GlobalMaxFailureFrac = 0.5
	}
	if cfg.RemediationRetries <= 0 {
		cfg.RemediationRetries = 4
	}
}

// MemberError is one member failure in a report.
type MemberError struct {
	Name string `json:"name"`
	Err  string `json:"err"`
}

// ShardReport is one worker shard's rollout outcome.
type ShardReport struct {
	Shard   int `json:"shard"`
	Members int `json:"members"`
	Waves   int `json:"waves"`

	Attempted int `json:"attempted"`
	Updated   int `json:"updated"`
	Failed    int `json:"failed"`

	// Tripped marks a breached per-shard gate; RolledBack counts the
	// members this shard rebooted into their previous slots as a result.
	Tripped      bool `json:"tripped,omitempty"`
	RolledBack   int  `json:"rolled_back,omitempty"`
	RollbackErrs int  `json:"rollback_errs,omitempty"`

	// BlastRadius counts members ever observed running the target image
	// unhealthy; Remediated counts those individually restored to their
	// previous slot; BadEnd counts those left that way (0 on success).
	BlastRadius int `json:"blast_radius,omitempty"`
	Remediated  int `json:"remediated,omitempty"`
	BadEnd      int `json:"bad_end,omitempty"`

	BakeFailures int `json:"bake_failures,omitempty"`

	// CostNs is the shard's accumulated WaveCost (0 without the hook).
	CostNs uint64 `json:"cost_ns,omitempty"`
}

// FleetReport is the outcome of a sharded rollout.
type FleetReport struct {
	Modules int `json:"modules"`
	Shards  int `json:"shards"`
	// Waves is the number of fleet-wide wave rounds executed (round 0 is
	// the canary round).
	Waves int `json:"waves"`

	Attempted int `json:"attempted"`
	Updated   int `json:"updated"`
	Failed    int `json:"failed"`

	TrippedShards int  `json:"tripped_shards,omitempty"`
	Aborted       bool `json:"aborted,omitempty"`

	BlastRadius  int `json:"blast_radius,omitempty"`
	Remediated   int `json:"remediated,omitempty"`
	RolledBack   int `json:"rolled_back,omitempty"`
	RollbackErrs int `json:"rollback_errs,omitempty"`
	BadEnd       int `json:"bad_end,omitempty"`
	BakeFailures int `json:"bake_failures,omitempty"`

	// CostNs is the rollout's modeled latency: max per-shard cost, since
	// shards advance their waves in parallel.
	CostNs uint64 `json:"cost_ns,omitempty"`

	PerShard []ShardReport `json:"per_shard,omitempty"`

	// Errors samples member failures (bounded, deterministic order).
	Errors []MemberError `json:"errors,omitempty"`
}

// maxReportErrors bounds the error sample in a FleetReport so a chaotic
// 1M-member rollout doesn't return a 1M-entry report.
const maxReportErrors = 32

// fleetShard is one worker shard's private state. All mutation happens
// on the shard's own worker goroutine; the controller reads it only at
// wave barriers.
//
// Members are addressed by their index in members throughout: prev,
// updated and lastWave all hold or are indexed by it.
type fleetShard struct {
	index   int
	members []FleetMember
	prev    []int // members[i]'s pre-rollout active slot; -1 when unknown

	next      int // index of the first member not yet pushed
	waves     int
	attempted int
	failed    int
	updated   []int // healthy on the target image (rollback set), ascending
	// lastWave is the bake set: the members the last wave appended to
	// updated. A private copy, never a sub-slice of updated — the bake
	// compacts updated in place, and ranging over an alias of it would
	// skip the neighbour of every member the bake removes.
	lastWave []int
	failures []MemberError

	tripped      bool
	rolledBack   int
	rollbackErrs int
	blast        int
	remediated   int
	badEnd       int
	bakeFailures int
	costNs       uint64
}

// FleetController drives sharded rollouts and hierarchical telemetry
// aggregation over a fixed member set.
type FleetController struct {
	cfg    FleetConfig
	shards []*fleetShard
	health func(FleetMember) error
}

// NewFleetController partitions members over cfg.Shards worker shards by
// ShardFor of their (unique) names. Members are sorted by name first, so
// shard composition and wave order are independent of input order. The
// member set is fixed here — there is no Add or Remove — so every wave,
// gate and rollback of a Rollout addresses exactly these members.
func NewFleetController(cfg FleetConfig, members []FleetMember) *FleetController {
	cfg.setDefaults()
	sorted := append([]FleetMember(nil), members...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Name() < sorted[j].Name() })
	c := &FleetController{cfg: cfg, shards: make([]*fleetShard, cfg.Shards)}
	for i := range c.shards {
		c.shards[i] = &fleetShard{index: i}
	}
	for _, m := range sorted {
		s := c.shards[ShardFor(m.Name(), cfg.Shards)]
		s.members = append(s.members, m)
	}
	for _, s := range c.shards {
		s.prev = make([]int, len(s.members))
	}
	c.health = cfg.HealthCheck
	if c.health == nil {
		c.health = func(m FleetMember) error {
			s, err := m.Stats()
			if err != nil {
				return err
			}
			if !s.Running {
				return errors.New("daemon: module not running after update")
			}
			if s.ActiveSlot != cfg.TargetSlot {
				return fmt.Errorf("daemon: module recovered on slot %d, not target %d",
					s.ActiveSlot, cfg.TargetSlot)
			}
			return nil
		}
	}
	return c
}

// Shards returns the effective worker shard count.
func (c *FleetController) Shards() int { return c.cfg.Shards }

// ShardMembers returns shard i's members in wave order (for tests and
// blast-radius accounting).
func (c *FleetController) ShardMembers(i int) []FleetMember {
	return append([]FleetMember(nil), c.shards[i].members...)
}

// parallelShards runs fn once per shard, concurrently. Each fn call owns
// its shard exclusively; the controller goroutine resumes only after
// every shard returns (the wave barrier).
func (c *FleetController) parallelShards(fn func(s *fleetShard)) {
	var wg sync.WaitGroup
	for _, s := range c.shards {
		wg.Add(1)
		go func(s *fleetShard) {
			defer wg.Done()
			fn(s)
		}(s)
	}
	wg.Wait()
}

// Rollout pushes the signed image across the fleet in lock-stepped
// waves. Round 0 updates every shard's canaries; each later round
// advances every still-active shard by WaveSize members. All gate and
// breaker decisions happen at the barrier between rounds, on complete
// per-round information — which is what makes the outcome a pure
// function of the members' behavior, independent of goroutine timing.
func (c *FleetController) Rollout(signed []byte) FleetReport {
	// Pre-flight: record every member's active slot for rollback.
	c.parallelShards(func(s *fleetShard) {
		for i, m := range s.members {
			s.prev[i] = -1
			if st, err := m.Stats(); err == nil {
				s.prev[i] = st.ActiveSlot
			}
		}
	})

	aborted := false
	rounds := 0
	for {
		active := false
		for _, s := range c.shards {
			if c.shardActive(s) {
				active = true
				break
			}
		}
		if !active || aborted {
			break
		}

		c.parallelShards(func(s *fleetShard) {
			if !c.shardActive(s) {
				return
			}
			c.runWave(s, signed, rounds)
		})
		rounds++

		// Barrier: per-shard canary gates, then the global breaker.
		var attempted, failed int
		for _, s := range c.shards {
			if !s.tripped && s.attempted > 0 &&
				float64(s.failed)/float64(s.attempted) > c.cfg.MaxFailureFrac {
				s.tripped = true
				c.rollbackShard(s)
			}
			attempted += s.attempted
			failed += s.failed
		}
		if attempted > 0 && float64(failed)/float64(attempted) > c.cfg.GlobalMaxFailureFrac {
			aborted = true
		}
	}

	rep := FleetReport{Shards: c.cfg.Shards, Waves: rounds, Aborted: aborted}
	for _, s := range c.shards {
		sr := ShardReport{
			Shard: s.index, Members: len(s.members), Waves: s.waves,
			Attempted: s.attempted, Updated: len(s.updated), Failed: s.failed,
			Tripped: s.tripped, RolledBack: s.rolledBack, RollbackErrs: s.rollbackErrs,
			BlastRadius: s.blast, Remediated: s.remediated, BadEnd: s.badEnd,
			BakeFailures: s.bakeFailures, CostNs: s.costNs,
		}
		if s.tripped {
			sr.Updated = 0 // rolled back; nothing remains on the target image
			rep.TrippedShards++
		}
		rep.Modules += sr.Members
		rep.Attempted += sr.Attempted
		rep.Updated += sr.Updated
		rep.Failed += sr.Failed
		rep.BlastRadius += sr.BlastRadius
		rep.Remediated += sr.Remediated
		rep.RolledBack += sr.RolledBack
		rep.RollbackErrs += sr.RollbackErrs
		rep.BadEnd += sr.BadEnd
		rep.BakeFailures += sr.BakeFailures
		if sr.CostNs > rep.CostNs {
			rep.CostNs = sr.CostNs
		}
		rep.PerShard = append(rep.PerShard, sr)
		for _, fe := range s.failures {
			if len(rep.Errors) < maxReportErrors {
				rep.Errors = append(rep.Errors, fe)
			}
		}
	}
	return rep
}

// shardActive reports whether shard s still has work: members left to
// push, or (with Bake on) members the final wave updated awaiting their
// health bake.
func (c *FleetController) shardActive(s *fleetShard) bool {
	if s.tripped {
		return false
	}
	return s.next < len(s.members) || (c.cfg.Bake && len(s.lastWave) > 0)
}

// runWave pushes one batch on shard s: its canaries in round 0, then
// WaveSize members per later round. Runs on the shard's worker.
func (c *FleetController) runWave(s *fleetShard, signed []byte, round int) {
	// Inter-wave health bake: before advancing, re-check the members the
	// previous wave updated. Late failures (a wedge that only shows up
	// after bake time) move from updated to failed and are remediated,
	// and they count toward the shard gate like any other failure.
	if c.cfg.Bake && len(s.lastWave) > 0 {
		for _, i := range s.lastWave {
			if err := c.health(s.members[i]); err != nil {
				s.bakeFailures++
				s.failed++
				if j, ok := slices.BinarySearch(s.updated, i); ok {
					s.updated = slices.Delete(s.updated, j, j+1)
				}
				s.fail(i, fmt.Errorf("bake: %w", err))
				c.remediate(s, i)
			}
		}
		if s.attempted > 0 && float64(s.failed)/float64(s.attempted) > c.cfg.MaxFailureFrac {
			// The bake alone tripped the gate; skip this round's pushes.
			// (The barrier will observe tripped=false failure counts and
			// perform the shard rollback.)
			s.lastWave = nil
			return
		}
	}
	if s.next >= len(s.members) {
		// Nothing left to push; this round existed only for the bake.
		s.lastWave = nil
		return
	}

	n := c.cfg.WaveSize
	if round == 0 {
		n = c.cfg.Canaries
	}
	if n <= 0 || n > len(s.members)-s.next {
		n = len(s.members) - s.next
	}
	start := s.next
	batch := s.members[start : start+n]
	s.next += n
	s.waves++

	first := len(s.updated)
	for k, m := range batch {
		i := start + k
		s.attempted++
		if err := m.Push(signed, c.cfg.TargetSlot, true); err != nil {
			// A dropped connection may still have landed the push and
			// rebooted the member into the target (mgmt's ConnDrop
			// ambiguity): verify rather than assume. Healthy on target
			// counts as updated; anything else is a failure, and a
			// member stuck unhealthy on the target is restored.
			if herr := c.health(m); herr == nil {
				s.updated = append(s.updated, i)
				continue
			}
			s.failed++
			s.fail(i, err)
			c.remediate(s, i)
			continue
		}
		if err := c.health(m); err != nil {
			s.failed++
			s.fail(i, err)
			c.remediate(s, i)
			continue
		}
		s.updated = append(s.updated, i)
	}
	s.lastWave = append(s.lastWave[:0], s.updated[first:]...)
	if c.cfg.WaveCost != nil {
		s.costNs += c.cfg.WaveCost(round, batch)
	}
}

// fail records a bounded, deterministic failure sample for member i.
func (s *fleetShard) fail(i int, err error) {
	if len(s.failures) < maxReportErrors {
		s.failures = append(s.failures, MemberError{Name: s.members[i].Name(), Err: err.Error()})
	}
}

// remediate restores one unhealthy member found running the target image
// (the "ever on a bad image" case — it counts toward blast radius) to
// its pre-rollout slot, retrying the reboot until health agrees. Members
// that never activated the target (push failed, or the boot FSM already
// fell back) need nothing.
func (c *FleetController) remediate(s *fleetShard, i int) {
	m := s.members[i]
	st, err := m.Stats()
	if err != nil || st.ActiveSlot != c.cfg.TargetSlot {
		return
	}
	s.blast++
	prev := s.prev[i]
	if prev < 0 {
		s.badEnd++
		return
	}
	for i := 0; i < c.cfg.RemediationRetries; i++ {
		m.Reboot(prev) // a dropped response may still have rebooted it
		if st, err := m.Stats(); err == nil && st.Running && st.ActiveSlot != c.cfg.TargetSlot {
			s.remediated++
			return
		}
	}
	s.badEnd++
}

// rollbackShard reverts every member this shard updated (plus any failed
// member still on the target image) to its previous slot. Runs at the
// barrier, but only touches shard-local state and members — a tripped
// shard's rollback never reaches another shard's members, which is the
// blast-radius bound.
func (c *FleetController) rollbackShard(s *fleetShard) {
	for _, i := range s.updated {
		m, prev := s.members[i], s.prev[i]
		if prev < 0 {
			s.rollbackErrs++
			continue
		}
		rolled := false
		for i := 0; i < c.cfg.RemediationRetries; i++ {
			m.Reboot(prev)
			if st, err := m.Stats(); err == nil && st.Running && st.ActiveSlot == prev {
				rolled = true
				break
			}
		}
		if rolled {
			s.rolledBack++
		} else {
			s.rollbackErrs++
		}
	}
	s.lastWave = nil
}

// FoldStats summarizes a hierarchical aggregation pass.
type FoldStats struct {
	// MemberSnaps is how many per-member snapshots the shard layer
	// folded; ShardFolds is how many folds the global merge touched —
	// always the shard count, never the member count.
	MemberSnaps int `json:"member_snaps"`
	ShardFolds  int `json:"shard_folds"`
	// SnapErrs counts members whose Telemetry read failed.
	SnapErrs int `json:"snap_errs,omitempty"`
}

// AggregateTelemetry folds the fleet's telemetry hierarchically: every
// shard worker folds its own members' snapshots into a per-shard
// telemetry.Fold in parallel, then the global merge combines the W
// folds. The global layer receives only folds — by construction it
// cannot touch per-module state, so its cost scales with W and the
// metric-name cardinality, not with fleet size. Not safe to call
// concurrently with Rollout (both drive the members).
func (c *FleetController) AggregateTelemetry() (telemetry.Snapshot, FoldStats) {
	folds := make([]*telemetry.Fold, len(c.shards))
	errs := make([]int, len(c.shards))
	c.parallelShards(func(s *fleetShard) {
		f := telemetry.NewFold()
		var snap telemetry.Snapshot // refilled by every member of the shard
		for _, m := range s.members {
			if err := m.Telemetry(&snap); err != nil {
				errs[s.index]++
				continue
			}
			f.Add(snap)
		}
		folds[s.index] = f
	})

	global := telemetry.NewFold()
	for _, f := range folds {
		global.Merge(f)
	}
	snaps, merges := global.Folded()
	stats := FoldStats{MemberSnaps: snaps, ShardFolds: merges}
	for _, e := range errs {
		stats.SnapErrs += e
	}
	return global.Snapshot(), stats
}
