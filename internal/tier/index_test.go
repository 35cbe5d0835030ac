// Property tests for the spatial-index build path: the indexed near-field
// selection must be bit-identical to the dense O(n²) sweep, including under
// heavy shadowing (where the candidate sweep must widen before the bound
// fires) and on adversarial geometry.
package tier_test

import (
	"math"
	"testing"

	"decaynet/internal/core"
	"decaynet/internal/geom"
	"decaynet/internal/rng"
	"decaynet/internal/scenario"
	. "decaynet/internal/tier"
)

// unbounded strips core.DecayBounded from a space while keeping the
// RowSpace and Symmetric contracts — forcing Build down the dense sweep
// path, the oracle the indexed path is compared against.
type unbounded struct{ src core.Space }

func (u unbounded) N() int             { return u.src.N() }
func (u unbounded) F(i, j int) float64 { return u.src.F(i, j) }
func (u unbounded) Row(i int, dst []float64) {
	u.src.(core.RowSpace).Row(i, dst)
}
func (u unbounded) Symmetric() bool { return core.KnownSymmetric(u.src) }

// shadowedSpace is a decay space over arbitrary (possibly duplicate)
// points with per-pair symmetric log-normal shadowing — the controllable
// stand-in for the urban space on adversarial geometry, with the same
// DecayLowerBound shape.
type shadowedSpace struct {
	pts     []geom.Point
	alpha   float64
	sigmaLn float64
	seed    uint64
}

var shadowedZMax = math.Sqrt(106*math.Ln2) * (1 + 1e-9)

func (s *shadowedSpace) N() int          { return len(s.pts) }
func (s *shadowedSpace) Symmetric() bool { return true }

func (s *shadowedSpace) F(i, j int) float64 {
	if i == j {
		return 0
	}
	d := s.pts[i].Dist(s.pts[j])
	if d < 1e-3 {
		d = 1e-3
	}
	ln := s.alpha * math.Log(d)
	if s.sigmaLn != 0 {
		src := rng.SymmetricPairStream(s.seed, i, j)
		ln += s.sigmaLn * src.Normal()
	}
	if ln > 690 {
		ln = 690
	} else if ln < -690 {
		ln = -690
	}
	return math.Exp(ln)
}

func (s *shadowedSpace) Row(i int, dst []float64) {
	for j := range dst[:len(s.pts)] {
		if j == i {
			dst[j] = 0
			continue
		}
		dst[j] = s.F(i, j)
	}
}

func (s *shadowedSpace) DecayLowerBound(d float64) float64 {
	if s.alpha < 0 {
		return 0
	}
	if d < 1e-3 {
		d = 1e-3
	}
	ln := s.alpha*math.Log(d) - math.Abs(s.sigmaLn)*shadowedZMax
	if ln > 690 {
		ln = 690
	} else if ln < -690 {
		ln = -690
	}
	return math.Exp(ln) * (1 - 1e-9)
}

var (
	_ core.RowSpace     = (*shadowedSpace)(nil)
	_ core.DecayBounded = (*shadowedSpace)(nil)
)

// assertBuildsIdentical builds src through the spatial index and through
// the dense sweep oracle and asserts the resulting tiered spaces are
// bit-identical: every row, the tail model, the sampling audit and the
// near-field accounting all match exactly.
func assertBuildsIdentical(t *testing.T, src core.Space, pts []geom.Point, cfg Config) *Space {
	t.Helper()
	indexed, err := Build(src, Options{Config: cfg, Points: pts})
	if err != nil {
		t.Fatalf("indexed Build: %v", err)
	}
	dense, err := Build(unbounded{src}, Options{Config: cfg, Points: pts})
	if err != nil {
		t.Fatalf("dense Build: %v", err)
	}
	ia, da := indexed.Accounting(), dense.Accounting()
	if ia.IndexedRows != src.N() {
		t.Fatalf("indexed build reports IndexedRows %d, want %d (spatial path not taken)", ia.IndexedRows, src.N())
	}
	if da.IndexedRows != 0 {
		t.Fatalf("oracle build reports IndexedRows %d, want 0 (dense path not taken)", da.IndexedRows)
	}
	if ia.NearEntries != da.NearEntries {
		t.Fatalf("near entries: indexed %d, dense %d", ia.NearEntries, da.NearEntries)
	}
	if ia.SampleAudit != da.SampleAudit || ia.SampleAudit == 0 {
		t.Fatalf("sample audit: indexed %#x, dense %#x (want equal, nonzero)", ia.SampleAudit, da.SampleAudit)
	}
	im, _ := indexed.TailModel()
	dm, _ := dense.TailModel()
	if im != dm {
		t.Fatalf("tail model: indexed %+v, dense %+v", im, dm)
	}
	n := src.N()
	gi := make([]float64, n)
	gd := make([]float64, n)
	for i := 0; i < n; i++ {
		indexed.Row(i, gi)
		dense.Row(i, gd)
		for j := 0; j < n; j++ {
			if gi[j] != gd[j] {
				t.Fatalf("Row(%d)[%d]: indexed %v, dense %v (must be bitwise equal)", i, j, gi[j], gd[j])
			}
		}
	}
	return indexed
}

// TestIndexedBuildMatchesDenseSweep runs the bit-identity property across
// scenario families: shadowed urban (default σ=4 dB, corner penalty — the
// bound must widen past shadowing headroom), heavier shadowing, the pure
// geometric city (σ=0, corner=0), and a plain geometric space over random
// points.
func TestIndexedBuildMatchesDenseSweep(t *testing.T) {
	cases := []struct {
		name   string
		cfg    scenario.Config
		geomN  int
		k      int
		sample int
	}{
		{"urban-default", scenario.Config{Links: 24, Nodes: 192, Seed: 5}, 0, 8, 2048},
		{"urban-heavy-shadow", scenario.Config{Links: 16, Nodes: 128, Seed: 9, SigmaDB: 9}, 0, 6, 1024},
		{"urban-pure-geometric", scenario.Config{Links: 16, Nodes: 160, Seed: 2,
			Params: map[string]float64{"sigma": 0, "corner": 0}}, 0, 8, 1024},
		{"geometric-random", scenario.Config{}, 96, 5, 1024},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var src core.Space
			var pts []geom.Point
			if tc.geomN > 0 {
				r := rng.New(77)
				pts = make([]geom.Point, tc.geomN)
				for i := range pts {
					pts[i] = geom.Pt(r.Range(0, 500), r.Range(0, 500))
				}
				g, err := core.NewGeometricSpace(pts, 2.5)
				if err != nil {
					t.Fatalf("NewGeometricSpace: %v", err)
				}
				src = g
			} else {
				inst := urbanInstance(t, tc.cfg)
				src, pts = inst.Space, inst.Points
			}
			s := assertBuildsIdentical(t, src, pts, Config{K: tc.k, Tail: TailModel, TailSamples: tc.sample})
			if c := s.Accounting().IndexCandidates; c <= 0 {
				t.Fatalf("indexed build examined %d candidates", c)
			}
		})
	}
}

// TestIndexedBuildAdversarialGeometry drives the fallback machinery:
// collinear points, duplicate coordinates, a dense cluster with far
// outliers (map-backed grid + sweep flush), and all points inside one grid
// cell — each with and without shadowing, bit-identical to the dense
// sweep. K reaching n−1 forces full exhaustion on top.
func TestIndexedBuildAdversarialGeometry(t *testing.T) {
	r := rng.New(123)
	collinear := make([]geom.Point, 80)
	for i := range collinear {
		collinear[i] = geom.Pt(float64(i)*7.3, 42)
	}
	dup := make([]geom.Point, 72)
	for i := range dup {
		dup[i] = geom.Pt(float64(i%4)*10, float64((i/4)%3)*10)
	}
	cluster := make([]geom.Point, 90)
	for i := range cluster {
		cluster[i] = geom.Pt(r.Float64(), r.Float64())
	}
	cluster = append(cluster, geom.Pt(2e6, -1e6), geom.Pt(-3e6, 4e6), geom.Pt(5e6, 5e6))
	onecell := make([]geom.Point, 60)
	for i := range onecell {
		onecell[i] = geom.Pt(0.5+1e-4*r.Float64(), 0.5+1e-4*r.Float64())
	}
	geoms := map[string][]geom.Point{
		"collinear":       collinear,
		"duplicates":      dup,
		"cluster+outlier": cluster,
		"one-cell":        onecell,
	}
	for name, pts := range geoms {
		for _, sigmaLn := range []float64{0, 1.1} {
			tag := name + "/crisp"
			if sigmaLn != 0 {
				tag = name + "/shadowed"
			}
			t.Run(tag, func(t *testing.T) {
				src := &shadowedSpace{pts: pts, alpha: 2.7, sigmaLn: sigmaLn, seed: 31}
				for _, k := range []int{1, 7, len(pts) - 1} {
					assertBuildsIdentical(t, src, pts, Config{K: k, Tail: TailModel, TailSamples: 512})
				}
			})
		}
	}
}

// TestIndexedBuildSeedAudit is the seed-collision regression test: seed 0
// must resolve to the reserved DefaultSeed substream, not silently collide
// with an explicit seed 1 — distinct seeds must draw distinct sampling
// streams, witnessed by Accounting().SampleAudit.
func TestIndexedBuildSeedAudit(t *testing.T) {
	inst := urbanInstance(t, scenario.Config{Links: 16, Nodes: 128, Seed: 4})
	build := func(seed uint64) Accounting {
		s, err := Build(inst.Space, Options{
			Config: Config{K: 8, Tail: TailModel, TailSamples: 2048, Seed: seed},
			Points: inst.Points,
		})
		if err != nil {
			t.Fatalf("Build(seed=%d): %v", seed, err)
		}
		return s.Accounting()
	}
	zero, one, def := build(0), build(1), build(DefaultSeed)
	if zero.SampleAudit == one.SampleAudit {
		t.Fatalf("seed 0 and seed 1 share sample audit %#x — the default seed collides with an explicit seed", zero.SampleAudit)
	}
	if zero.SampleAudit != def.SampleAudit {
		t.Fatalf("seed 0 audit %#x differs from explicit DefaultSeed audit %#x", zero.SampleAudit, def.SampleAudit)
	}
	if again := build(0); again.SampleAudit != zero.SampleAudit {
		t.Fatalf("seed 0 audit not deterministic: %#x then %#x", zero.SampleAudit, again.SampleAudit)
	}
	if one2 := build(1); one2.SampleAudit != one.SampleAudit {
		t.Fatalf("seed 1 audit not deterministic: %#x then %#x", one.SampleAudit, one2.SampleAudit)
	}
}
