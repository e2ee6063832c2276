package trafficgen

import (
	"math"
	"math/rand"
	"testing"
)

// zipfParams is one (s, v, imax) parameter set of rand.NewZipf.
type zipfParams struct {
	s, v float64
	imax uint64
}

// benchZipf is the NAT churn workload's draw: 16 384 flows at ZipfS 1.1.
var benchZipf = zipfParams{2.1, 1, 16383}

// checkZipfSequence draws n values from newZipf and from rand.NewZipf, each
// on its own rand.Rand seeded alike, and requires the same values and
// then the same stream position.
func checkZipfSequence(t *testing.T, p zipfParams, seed int64, n int) {
	t.Helper()
	ra, rb := rand.New(rand.NewSource(seed)), rand.New(rand.NewSource(seed))
	got, want := newZipf(ra, p.s, p.v, p.imax), rand.NewZipf(rb, p.s, p.v, p.imax)
	if (got == nil) != (want == nil) {
		t.Fatalf("%+v: newZipf nil %v, rand.NewZipf nil %v", p, got == nil, want == nil)
	}
	if got == nil {
		return
	}
	for i := range n {
		if g, w := got.Uint64(), want.Uint64(); g != w {
			t.Fatalf("%+v seed %d: draw %d is %d, rand.Zipf draws %d", p, seed, i, g, w)
		}
	}
	if ra.Int63() != rb.Int63() {
		t.Fatalf("%+v seed %d: the streams diverge after %d draws", p, seed, n)
	}
}

// TestZipfMatchesStdlib: the table sampler returns rand.Zipf's sequence
// at the churn workload's parameters, at the largest population, at tiny
// ones, at nearly flat exponents on either side of zipfMinQ, and at a very
// steep one.
func TestZipfMatchesStdlib(t *testing.T) {
	n := 200_000
	if raceEnabled {
		n = 20_000
	}
	for _, p := range []zipfParams{
		benchZipf,
		{2.1, 1, MaxFlows - 1},
		{2.1, 1, 1}, {2.1, 1, 2}, {2.1, 1, 31},
		{1.01, 1, 16383},
		{1.0001, 1, 16383}, // below zipfMinQ: no table
		{50, 1, 16383},
		{1, 1, 16383}, // nil, as rand.NewZipf: a uniform draw
	} {
		checkZipfSequence(t, p, 1, n)
	}
}

// countingSource is a rand.Source that first returns script, then values
// of a seeded source, and counts what it has returned.
type countingSource struct {
	script []int64
	rest   rand.Source
	n      int
}

func (c *countingSource) Int63() int64 {
	c.n++
	if len(c.script) > 0 {
		v := c.script[0]
		c.script = c.script[1:]
		return v
	}
	return c.rest.Int63()
}

func (*countingSource) Seed(int64) {}

// TestZipfTableEdges feeds both samplers an r at, and a few ulps either
// side of, every edge the table sampler tests: each table cell's bounds,
// and, for every k below 1024 and a sample beyond, the edges of k's
// bucket and of its immediate-acceptance region. Both must return the same
// k after the same number of draws.
func TestZipfTableEdges(t *testing.T) {
	p := benchZipf
	z := newZipf(rand.New(rand.NewSource(1)), p.s, p.v, p.imax)
	var edges []float64 // in ur
	for _, c := range z.cells {
		if c.lo <= c.hi {
			edges = append(edges, c.lo, c.hi)
		}
	}
	if len(edges) == 0 {
		t.Fatal("the table has no bucket")
	}
	for k := 0.0; k <= z.imax; k++ {
		if k >= 1024 {
			k += math.Floor(k / 16)
		}
		edges = append(edges, z.h(k-0.5), z.h(k+0.5), z.h(k-z.s))
	}

	// Each sampler keeps its source; a draw that falls back past the
	// scripted r goes on with the seeded stream, where the two agree as
	// long as every earlier draw took as many values.
	sa := &countingSource{rest: rand.NewSource(2)}
	sb := &countingSource{rest: rand.NewSource(2)}
	za := newZipf(rand.New(sa), p.s, p.v, p.imax)
	zb := rand.NewZipf(rand.New(sb), p.s, p.v, p.imax)
	var draws int
	for _, ur := range edges {
		r0 := (ur - z.hxm) / z.hx0minusHxm
		for step := -3; step <= 3; step++ {
			r := r0
			for range max(step, -step) {
				r = math.Nextafter(r, float64(step))
			}
			if !(r >= 0 && r < 1) {
				continue
			}
			script := []int64{int64(r * (1 << 63))}
			sa.script, sa.n = script, 0
			sb.script, sb.n = script, 0
			got, want := za.Uint64(), zb.Uint64()
			if got != want || sa.n != sb.n {
				t.Fatalf("r = %v (ur %v): %d after %d draws, rand.Zipf %d after %d", r, ur, got, sa.n, want, sb.n)
			}
			draws++
		}
	}
	t.Logf("%d edge draws", draws)
}

// TestZipfTableCoversHead: at the churn workload's parameters, nearly
// every draw is a table lookup. A sampler that falls back to exp and log
// everywhere would still be exact, and no faster than rand.Zipf.
func TestZipfTableCoversHead(t *testing.T) {
	p := benchZipf
	z := newZipf(rand.New(rand.NewSource(1)), p.s, p.v, p.imax)
	const n = 1 << 16
	hits := 0
	for i := range n {
		r := (float64(i) + 0.5) / n
		if _, ok := z.lookup(z.hxm + r*z.hx0minusHxm); ok {
			hits++
		}
	}
	frac := float64(hits) / n
	if frac < 0.95 {
		t.Errorf("%.3f of draws are table lookups, want at least 0.95", frac)
	}
	t.Logf("s = %.4f, %.4f of draws are table lookups", z.s, frac)
}

// FuzzZipfVsStdlib compares the two samplers' sequences for fuzzed
// parameters inside the range New uses (s in (1, 51], imax below
// MaxFlows), v from 1 to 1000, and any seed.
func FuzzZipfVsStdlib(f *testing.F) {
	f.Add(uint16(7208), uint16(0), uint16(16383), int64(1))
	f.Add(uint16(0), uint16(0), uint16(1), int64(7))
	f.Add(uint16(65535), uint16(999), uint16(65535), int64(-3))
	f.Fuzz(func(t *testing.T, s, v, imax uint16, seed int64) {
		p := zipfParams{
			s:    1 + 0.001 + 50*float64(s)/65535,
			v:    1 + float64(v%1000),
			imax: uint64(imax) % MaxFlows,
		}
		checkZipfSequence(t, p, seed, 2000)
	})
}

// BenchmarkZipf compares one draw of the table sampler with rand.Zipf's
// at the churn workload's parameters.
func BenchmarkZipf(b *testing.B) {
	p := benchZipf
	b.Run("table", func(b *testing.B) {
		z := newZipf(rand.New(rand.NewSource(1)), p.s, p.v, p.imax)
		var sum uint64
		for b.Loop() {
			sum += z.Uint64()
		}
		_ = sum
	})
	b.Run("stdlib", func(b *testing.B) {
		z := rand.NewZipf(rand.New(rand.NewSource(1)), p.s, p.v, p.imax)
		var sum uint64
		for b.Loop() {
			sum += z.Uint64()
		}
		_ = sum
	})
}
