package scenario

import (
	"fmt"
	"math"

	"decaynet/internal/core"
	"decaynet/internal/geom"
	"decaynet/internal/rng"
	"decaynet/internal/sinr"
)

// The "urban" scenario: a stochastic street-grid city in the spirit of the
// stochastic-urban-geometry generators (Courtat et al.), sized for the
// n ≥ 16k instances the tiered storage layer unlocks. A city square is
// recursively subdivided into blocks by axis-aligned streets; nodes sit on
// streets (with lateral jitter inside the street width); decays follow
// log-distance path loss with a corner (non-line-of-sight) penalty between
// nodes on different streets and deterministic symmetric log-normal
// shadowing per pair.
//
// Unlike the environment presets, the space is never materialized: every
// pair is O(1) to evaluate (distance, street comparison, one
// rng.SymmetricPairStream draw), so the space implements core.RowSpace
// lazily and an n=16384 instance costs O(n) memory until a consumer asks
// for rows. That is exactly the contract tier.Build streams against.
func init() {
	Register(Scenario{
		Name:        "urban",
		Description: "stochastic street-grid city: log-distance path loss, corner penalty, per-pair shadowing (lazy rows, sized for tiered storage)",
		Build:       buildUrban,
	})
}

// maxLnDecay clamps ln f so the space stays positive finite (Def 2.1) even
// under extreme shadowing draws.
const maxLnDecay = 690.0

// urbanStreet is one axis-aligned street segment of the generated grid.
type urbanStreet struct {
	a, b geom.Point
}

func (s urbanStreet) length() float64 { return s.a.Dist(s.b) }

// urbanSpace is the lazy decay space of a generated city. Immutable and
// safe for concurrent reads; F/Row are evaluated on demand.
type urbanSpace struct {
	pts     []geom.Point
	street  []int32 // street index of each node
	alpha   float64 // path-loss exponent
	sigmaLn float64 // shadowing σ in ln-decay units (σ_dB · ln10/10)
	nlosLn  float64 // corner penalty in ln-decay units
	seed    uint64
}

var (
	_ core.Space        = (*urbanSpace)(nil)
	_ core.RowSpace     = (*urbanSpace)(nil)
	_ core.Symmetric    = (*urbanSpace)(nil)
	_ core.DecayBounded = (*urbanSpace)(nil)
)

// urbanZMax is the deterministic supremum of |rng.Normal()|: the Box-Muller
// draw is sqrt(−2·ln(1−Float64()))·cos(2π·u2) with 1−Float64() ≥ 2⁻⁵³, so
// |z| ≤ sqrt(106·ln 2) ≈ 8.5716. The tiny relative bump absorbs the at most
// few-ulp rounding of Sqrt/Log/Cos, keeping the decay lower bound valid for
// every draw the shadowing stream can ever produce.
var urbanZMax = math.Sqrt(106*math.Ln2) * (1 + 1e-9)

func (u *urbanSpace) N() int { return len(u.pts) }

// Symmetric certifies exact symmetry: distance, the street comparison and
// the SymmetricPairStream shadowing draw are all invariant under swapping
// the endpoints, and the ln-decay is assembled in the same operation order
// for (i,j) and (j,i).
func (u *urbanSpace) Symmetric() bool { return true }

func (u *urbanSpace) F(i, j int) float64 {
	if i == j {
		return 0
	}
	return u.pair(i, j)
}

func (u *urbanSpace) Row(i int, dst []float64) {
	for j := range dst[:len(u.pts)] {
		if j == i {
			dst[j] = 0
			continue
		}
		dst[j] = u.pair(i, j)
	}
}

// pair evaluates the decay of one ordered pair in O(1):
//
//	ln f = α·ln d + L_corner·[different streets] + σ·z_ij
//
// with d clamped away from zero and ln f clamped to ±maxLnDecay.
func (u *urbanSpace) pair(i, j int) float64 {
	d := u.pts[i].Dist(u.pts[j])
	if d < 1e-3 {
		d = 1e-3
	}
	ln := u.alpha * math.Log(d)
	if u.street[i] != u.street[j] {
		ln += u.nlosLn
	}
	if u.sigmaLn != 0 {
		src := rng.SymmetricPairStream(u.seed, i, j)
		ln += u.sigmaLn * src.Normal()
	}
	if ln > maxLnDecay {
		ln = maxLnDecay
	} else if ln < -maxLnDecay {
		ln = -maxLnDecay
	}
	return math.Exp(ln)
}

// DecayLowerBound certifies the monotone distance→decay trend (the
// core.DecayBounded contract) the tiered spatial-index build prunes on: for
// any pair at distance ≥ d,
//
//	ln f ≥ α·ln(max(d, 1e-3)) − |σ|·zMax + min(0, L_corner)
//
// — the same-street case drops the corner penalty (only a negative penalty
// can lower the decay further) and the shadowing draw is bounded by the
// deterministic |Normal()| supremum. The clamp to ±maxLnDecay is monotone,
// so applying it to the lower ln keeps the bound below every pair's F. The
// bound is nondecreasing in d whenever α ≥ 0; a negative α voids the trend,
// so the bound degrades to 0 (valid, prunes nothing).
func (u *urbanSpace) DecayLowerBound(d float64) float64 {
	if u.alpha < 0 {
		return 0
	}
	if d < 1e-3 {
		d = 1e-3
	}
	ln := u.alpha*math.Log(d) - math.Abs(u.sigmaLn)*urbanZMax
	if u.nlosLn < 0 {
		ln += u.nlosLn
	}
	if ln > maxLnDecay {
		ln = maxLnDecay
	} else if ln < -maxLnDecay {
		ln = -maxLnDecay
	}
	return math.Exp(ln) * (1 - 1e-9)
}

// urbanGrid subdivides the side×side square into blocks no wider than
// target, recording each split line as a street. Deterministic in src.
func urbanGrid(side, target float64, src *rng.Source) []urbanStreet {
	type block struct{ x0, y0, x1, y1 float64 }
	stack := []block{{0, 0, side, side}}
	var streets []urbanStreet
	for len(stack) > 0 {
		b := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		w, h := b.x1-b.x0, b.y1-b.y0
		if math.Max(w, h) <= target {
			continue
		}
		// Split the longer axis somewhere in its central band so blocks
		// stay street-block shaped rather than slivers.
		cut := 0.35 + 0.3*src.Float64()
		if w >= h {
			x := b.x0 + w*cut
			streets = append(streets, urbanStreet{geom.Pt(x, b.y0), geom.Pt(x, b.y1)})
			stack = append(stack, block{b.x0, b.y0, x, b.y1}, block{x, b.y0, b.x1, b.y1})
		} else {
			y := b.y0 + h*cut
			streets = append(streets, urbanStreet{geom.Pt(b.x0, y), geom.Pt(b.x1, y)})
			stack = append(stack, block{b.x0, b.y0, b.x1, y}, block{b.x0, y, b.x1, b.y1})
		}
	}
	if len(streets) == 0 {
		// Degenerate extent: a single main street keeps placement valid.
		streets = append(streets, urbanStreet{geom.Pt(0, side / 2), geom.Pt(side, side / 2)})
	}
	return streets
}

// urbanPlace picks a street (weighted by length) and a position along it
// with lateral jitter inside the street width, returning the point and the
// street index.
func urbanPlace(streets []urbanStreet, cum []float64, width float64, src *rng.Source) (geom.Point, int32) {
	total := cum[len(cum)-1]
	r := src.Float64() * total
	lo, hi := 0, len(streets)-1
	for lo < hi {
		mid := (lo + hi) / 2
		if cum[mid] <= r {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	st := streets[lo]
	t := src.Float64()
	p := st.a.Add(st.b.Sub(st.a).Scale(t))
	// Perpendicular jitter within the roadway.
	dir := st.b.Sub(st.a).Unit()
	perp := geom.Pt(-dir.Y, dir.X)
	p = p.Add(perp.Scale((src.Float64() - 0.5) * width / 2))
	return p, int32(lo)
}

// buildUrban generates the city and places nodes. The first 2·Links nodes
// are the link endpoints in the PairedLinks convention ({2i → 2i+1}), each
// receiver on its sender's street at distance linklen (line-of-sight short
// links); remaining nodes up to Nodes are bystander interferers on random
// streets. Nodes defaults to 2·Links, so cfg.Links alone gives a pure link
// workload and cfg.Nodes scales the city without scaling the link set —
// the shape the n=16384 tiered sessions use.
//
// Params: "block" (target block edge, default 160), "width" (street width
// for lateral jitter, default 12), "linklen" (link length, default 20),
// "corner" (NLoS penalty in dB between different streets, default 12),
// "sigma" (shadowing σ in dB — overrides Config.SigmaDB and, unlike it,
// can force exactly 0). With sigma = 0 and corner = 0 the space is exactly
// f = d^α and KnownZeta = α applies.
func buildUrban(cfg Config) (*Instance, error) {
	nLinks := defaultInt(cfg.Links, 16)
	nNodes := defaultInt(cfg.Nodes, 2*nLinks)
	if nLinks < 1 {
		return nil, fmt.Errorf("urban: need at least one link, got %d", nLinks)
	}
	if nNodes < 2*nLinks {
		return nil, fmt.Errorf("urban: %d nodes cannot host %d paired links (need ≥ %d)", nNodes, nLinks, 2*nLinks)
	}
	side := defaultF(cfg.Side, 1024)
	alpha := defaultF(cfg.Alpha, 2.9)
	sigmaDB := defaultF(cfg.SigmaDB, 4)
	if v, ok := cfg.Params["sigma"]; ok {
		sigmaDB = v
	}
	cornerDB := cfg.Param("corner", 12)
	blockTarget := cfg.Param("block", 160)
	width := cfg.Param("width", 12)
	linkLen := cfg.Param("linklen", 20)

	src := rng.New(cfg.Seed ^ 0x0b5c_17b4)
	streets := urbanGrid(side, blockTarget, src)
	cum := make([]float64, len(streets))
	total := 0.0
	for i, st := range streets {
		total += st.length()
		cum[i] = total
	}

	pts := make([]geom.Point, nNodes)
	streetOf := make([]int32, nNodes)
	links := make([]sinr.Link, nLinks)
	for i := 0; i < nLinks; i++ {
		p, st := urbanPlace(streets, cum, width, src)
		pts[2*i], streetOf[2*i] = p, st
		// Receiver along the street direction, clamped inside the extent.
		dir := streets[st].b.Sub(streets[st].a).Unit()
		if src.Float64() < 0.5 {
			dir = dir.Scale(-1)
		}
		q := p.Add(dir.Scale(linkLen))
		q = geom.Pt(math.Min(math.Max(q.X, 0), side), math.Min(math.Max(q.Y, 0), side))
		pts[2*i+1], streetOf[2*i+1] = q, st
		links[i] = sinr.Link{Sender: 2 * i, Receiver: 2*i + 1}
	}
	for i := 2 * nLinks; i < nNodes; i++ {
		pts[i], streetOf[i] = urbanPlace(streets, cum, width, src)
	}

	ln10 := math.Ln10 / 10
	space := &urbanSpace{
		pts:     pts,
		street:  streetOf,
		alpha:   alpha,
		sigmaLn: sigmaDB * ln10,
		nlosLn:  cornerDB * ln10,
		seed:    cfg.Seed ^ 0x5ade_d0b5,
	}
	inst := &Instance{Space: space, Links: links, Points: pts}
	if sigmaDB == 0 && cornerDB == 0 && alpha >= 1 {
		inst.KnownZeta = alpha
	}
	return inst, nil
}
