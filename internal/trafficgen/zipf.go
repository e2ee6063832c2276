package trafficgen

import (
	"math"
	"math/rand"
)

// zipfCells is the number of guide-table cells over ur's range.
const zipfCells = 4096

// zipfMargin is how far inside a bucket's immediate-acceptance region, in
// x, an ur must lie to be looked up. It guards against the rounding error
// of exp and log in x, which grows with x and with 1/(q-1), q being the
// exponent: with v = 1, as New draws, and x < MaxFlows, it is at most
// 2e-10 at q = 2.1 and 1.1e-8 at q = zipfMinQ. Below zipfMinQ there is no
// table, and every draw runs the loop.
const (
	zipfMargin = 1e-3
	zipfMinQ   = 1.001
)

// zipf draws exactly what rand.Zipf draws from the same *rand.Rand: the
// same value, after the same number of Float64 calls.
//
// rand.Zipf (Hörmann and Derflinger's rejection-inversion) turns each
// Float64 r into ur = hxm + r*hx0minusHxm, inverts h at ur to get x,
// rounds x to k and returns k at once when k-x <= s (a threshold NewZipf
// derives from the exponent q); otherwise a second test accepts or rejects
// k, and a rejection draws again. h is increasing, so each k's
// immediate-acceptance region is an interval of ur. zipf splits ur's range
// into zipfCells equal cells, each holding the bounds of one bucket's
// region shrunk by zipfMargin: an ur inside them is that k, with no exp or
// log. Every other ur (near an edge, in a rejection band, or in a cell of
// the sparse tail) runs Uint64's loop body on the same r.
type zipf struct {
	r *rand.Rand
	// rand.Zipf's fields, from NewZipf's expressions in NewZipf's order.
	imax, v, q, s, oneminusQ, oneminusQinv, hxm, hx0minusHxm float64

	urBot, cellScale float64 // ur's cell is int((ur-urBot)*cellScale)
	cells            []zipfCell
}

// zipfCell is one guide-table cell: an ur in [lo, hi] draws k. A cell
// that names no bucket has lo = +Inf and hi = -Inf.
type zipfCell struct {
	lo, hi float64
	k      uint64
}

// newZipf is rand.NewZipf: values k in [0, imax] with P(k) proportional
// to (v+k)^-s. Like rand.NewZipf it returns nil unless s > 1 and v >= 1.
func newZipf(r *rand.Rand, s, v float64, imax uint64) *zipf {
	if s <= 1.0 || v < 1 {
		return nil
	}
	z := &zipf{r: r}
	z.imax = float64(imax)
	z.v = v
	z.q = s
	z.oneminusQ = 1.0 - z.q
	z.oneminusQinv = 1.0 / z.oneminusQ
	z.hxm = z.h(z.imax + 0.5)
	z.hx0minusHxm = z.h(0.5) - math.Exp(math.Log(z.v)*(-z.q)) - z.hxm
	z.s = 1 - z.hinv(z.h(1.5)-math.Exp(-z.q*math.Log(z.v+1.0)))
	z.buildCells()
	return z
}

func (z *zipf) h(x float64) float64 {
	return math.Exp(z.oneminusQ*math.Log(z.v+x)) * z.oneminusQinv
}

func (z *zipf) hinv(x float64) float64 {
	return math.Exp(z.oneminusQinv*math.Log(z.oneminusQ*x)) - z.v
}

// buildCells fills the guide table. Bucket k's immediate-acceptance
// region is x in [max(k-0.5, k-s), k+0.5): there Uint64 rounds x to k and
// returns at its first test. Buckets enter from k = 0, the bottom of ur's
// range, while their shrunk region is at least a cell wide; the narrower
// ones of the tail are left to the loop.
func (z *zipf) buildCells() {
	z.cells = make([]zipfCell, zipfCells)
	for i := range z.cells {
		z.cells[i] = zipfCell{lo: math.Inf(1), hi: math.Inf(-1)}
	}
	z.urBot = z.hxm + z.hx0minusHxm
	width := -z.hx0minusHxm / zipfCells
	z.cellScale = 1 / width
	if z.q < zipfMinQ || !(width > 0) || math.IsInf(z.cellScale, 0) {
		z.cellScale = 0
		return
	}
	cell := func(ur float64) int {
		return min(max(int((ur-z.urBot)*z.cellScale), 0), zipfCells-1)
	}
	for k := 0.0; k <= min(z.imax, zipfCells); k++ {
		lo := z.h(max(k-0.5, k-z.s) + zipfMargin)
		hi := z.h(k + 0.5 - zipfMargin)
		if !(hi-lo >= width) {
			break
		}
		for c := cell(lo); c <= cell(hi); c++ {
			z.cells[c] = zipfCell{lo: lo, hi: hi, k: uint64(k)}
		}
	}
}

// lookup returns the k of an ur that lies inside a cell's bounds.
func (z *zipf) lookup(ur float64) (uint64, bool) {
	if c := int((ur - z.urBot) * z.cellScale); uint(c) < uint(len(z.cells)) {
		if e := &z.cells[c]; ur >= e.lo && ur <= e.hi {
			return e.k, true
		}
	}
	return 0, false
}

// Uint64 returns the next value, the one rand.Zipf.Uint64 would return.
// Go may fuse a*b+c into one rounding on some architectures, so the
// expressions are written exactly as rand.Zipf's are.
func (z *zipf) Uint64() uint64 {
	for {
		r := z.r.Float64() // r on [0,1]
		ur := z.hxm + r*z.hx0minusHxm
		if k, ok := z.lookup(ur); ok {
			return k
		}
		x := z.hinv(ur)
		k := math.Floor(x + 0.5)
		if k-x <= z.s {
			return uint64(k)
		}
		if ur >= z.h(k+0.5)-math.Exp(-math.Log(k+z.v)*z.q) {
			return uint64(k)
		}
	}
}
