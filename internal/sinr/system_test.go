package sinr

import (
	"context"
	"math"
	"testing"

	"decaynet/internal/core"
	"decaynet/internal/geom"
	"decaynet/internal/rng"
)

// lineSystem builds links on a line: link i has sender at x=10i and
// receiver at x=10i+1 (length 1, well separated), geometric decay d^alpha.
func lineSystem(t *testing.T, nLinks int, alpha float64, opts ...Option) *System {
	t.Helper()
	var pts []geom.Point
	links := make([]Link, 0, nLinks)
	for i := 0; i < nLinks; i++ {
		pts = append(pts, geom.Pt(float64(10*i), 0), geom.Pt(float64(10*i)+1, 0))
		links = append(links, Link{Sender: 2 * i, Receiver: 2*i + 1})
	}
	space, err := core.NewGeometricSpace(pts, alpha)
	if err != nil {
		t.Fatal(err)
	}
	opts = append([]Option{WithZeta(alpha)}, opts...)
	sys, err := NewSystem(space, links, opts...)
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

// randomSystem builds a system over a random decay matrix with nLinks links
// on 2*nLinks nodes.
func randomSystem(t *testing.T, seed uint64, nLinks int, lo, hi float64, opts ...Option) *System {
	t.Helper()
	src := rng.New(seed)
	space, err := core.FromFunc(2*nLinks, func(i, j int) float64 { return src.Range(lo, hi) })
	if err != nil {
		t.Fatal(err)
	}
	links := make([]Link, nLinks)
	for i := range links {
		links[i] = Link{Sender: 2 * i, Receiver: 2*i + 1}
	}
	sys, err := NewSystem(space, links, opts...)
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

func TestNewSystemValidation(t *testing.T) {
	space, _ := core.UniformSpace(4, 1)
	cases := []struct {
		name  string
		links []Link
		opts  []Option
		ok    bool
	}{
		{"valid", []Link{{0, 1}, {2, 3}}, nil, true},
		{"self link", []Link{{1, 1}}, nil, false},
		{"out of range", []Link{{0, 4}}, nil, false},
		{"negative", []Link{{-1, 0}}, nil, false},
		{"bad beta", []Link{{0, 1}}, []Option{WithBeta(0.5)}, false},
		{"bad noise", []Link{{0, 1}}, []Option{WithNoise(-1)}, false},
		{"empty links", nil, nil, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := NewSystem(space, tc.links, tc.opts...)
			if (err == nil) != tc.ok {
				t.Errorf("err = %v, want ok=%v", err, tc.ok)
			}
		})
	}
	if _, err := NewSystem(nil, nil); err == nil {
		t.Error("nil space accepted")
	}
}

func TestSystemAccessors(t *testing.T) {
	sys := lineSystem(t, 3, 2, WithNoise(0.1), WithBeta(2))
	if sys.Len() != 3 || sys.Noise() != 0.1 || sys.Beta() != 2 {
		t.Error("accessors wrong")
	}
	if l := sys.Link(1); l.Sender != 2 || l.Receiver != 3 {
		t.Errorf("Link(1) = %+v", l)
	}
	if got := sys.Links(); len(got) != 3 {
		t.Errorf("Links() = %v", got)
	}
	// Decay of unit-length link at alpha=2 is 1.
	if got := sys.Decay(0); math.Abs(got-1) > 1e-12 {
		t.Errorf("Decay(0) = %v", got)
	}
	// CrossDecay from link 1's sender (x=10) to link 0's receiver (x=1):
	// distance 9, decay 81.
	if got := sys.CrossDecay(1, 0); math.Abs(got-81) > 1e-9 {
		t.Errorf("CrossDecay = %v", got)
	}
}

func TestZetaSuppliedAndComputed(t *testing.T) {
	sys := lineSystem(t, 2, 3)
	if sys.Zeta() != 3 {
		t.Errorf("supplied zeta = %v", sys.Zeta())
	}
	rs := randomSystem(t, 1, 3, 0.5, 10)
	z := rs.Zeta()
	if z != core.Zeta(rs.Space()) {
		t.Errorf("computed zeta = %v, want %v", z, core.Zeta(rs.Space()))
	}
	// Cached: second call same value.
	if rs.Zeta() != z {
		t.Error("zeta not cached")
	}
}

func TestLinkLengthAndDist(t *testing.T) {
	sys := lineSystem(t, 2, 2)
	// Quasi length of unit link is 1 (f=1, zeta=2).
	if got := sys.LinkLength(0); math.Abs(got-1) > 1e-12 {
		t.Errorf("LinkLength = %v", got)
	}
	// Link distance between link 0 (0,1) and link 1 (10,11):
	// min over pairs = d(r0=1, s1=10) = 9.
	if got := sys.LinkDist(0, 1); math.Abs(got-9) > 1e-9 {
		t.Errorf("LinkDist = %v", got)
	}
	if got := sys.LinkDist(1, 0); math.Abs(got-9) > 1e-9 {
		t.Errorf("LinkDist reversed = %v", got)
	}
}

func TestSubSystem(t *testing.T) {
	sys := lineSystem(t, 4, 2, WithBeta(1.5))
	sub := sys.Sub([]int{2, 0})
	if sub.Len() != 2 || sub.Beta() != 1.5 {
		t.Fatal("sub shape wrong")
	}
	if sub.Link(0) != sys.Link(2) || sub.Link(1) != sys.Link(0) {
		t.Error("sub links wrong")
	}
	if sub.Zeta() != sys.Zeta() {
		t.Error("sub did not inherit zeta")
	}
}

func TestDecayOrder(t *testing.T) {
	// Links with lengths 3, 1, 2 → order by decay: 1, 2, 0.
	pts := []geom.Point{
		geom.Pt(0, 0), geom.Pt(3, 0),
		geom.Pt(100, 0), geom.Pt(101, 0),
		geom.Pt(200, 0), geom.Pt(202, 0),
	}
	space, err := core.NewGeometricSpace(pts, 2)
	if err != nil {
		t.Fatal(err)
	}
	sys, err := NewSystem(space, []Link{{0, 1}, {2, 3}, {4, 5}}, WithZeta(2))
	if err != nil {
		t.Fatal(err)
	}
	order := sys.DecayOrder()
	want := []int{1, 2, 0}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

func TestDecayOrderTiesDeterministic(t *testing.T) {
	sys := lineSystem(t, 5, 2) // all links identical length
	order := sys.DecayOrder()
	for i, v := range order {
		if v != i {
			t.Fatalf("tie order = %v", order)
		}
	}
}

// TestAffectanceCacheHit: equal power vectors (by value, not identity)
// return the identical cached matrix.
func TestAffectanceCacheHit(t *testing.T) {
	sys := lineSystem(t, 6, 2)
	p1 := UniformPower(sys, 1)
	p2 := UniformPower(sys, 1) // distinct slice, equal values
	a := sys.Affectances(p1)
	if b := sys.Affectances(p2); b != a {
		t.Fatal("equal power vector missed the cache")
	}
}

// TestAffectancesRejectMisSizedPower: a power vector sized for another
// link set — a reader's vector built before a concurrent link edit — is an
// error, not an out-of-range read.
func TestAffectancesRejectMisSizedPower(t *testing.T) {
	sys := lineSystem(t, 6, 2)
	for _, p := range []Power{UniformPower(sys, 1)[:5], append(UniformPower(sys, 1), 1)} {
		if a, err := sys.AffectancesCtx(context.Background(), p); err == nil || a != nil {
			t.Fatalf("%d-entry power for 6 links: (%v, %v), want an error", len(p), a, err)
		}
	}
}

// TestAffectanceLRUHoldsAlternatingPowers: the LRU (the ROADMAP's
// multi-slot upgrade of the single-slot cache) keeps all of a comparison
// workload's power schemes resident — alternating among them never
// recomputes.
func TestAffectanceLRUHoldsAlternatingPowers(t *testing.T) {
	sys := lineSystem(t, 6, 2)
	powers := []Power{
		UniformPower(sys, 1),
		LinearPower(sys, 1),
		MeanPower(sys, 1),
	}
	first := make([]*Affectances, len(powers))
	for i, p := range powers {
		first[i] = sys.Affectances(p)
	}
	for round := 0; round < 3; round++ {
		for i, p := range powers {
			if got := sys.Affectances(p); got != first[i] {
				t.Fatalf("round %d: power %d was evicted", round, i)
			}
		}
	}
}

// TestAffectanceLRUEvictsOldest: pushing more distinct powers than slots
// evicts the least recently used entry, and the evicted matrix is rebuilt
// correctly on return.
func TestAffectanceLRUEvictsOldest(t *testing.T) {
	sys := lineSystem(t, 4, 2)
	mk := func(scale float64) Power { return UniformPower(sys, scale) }
	p0 := mk(1)
	a0 := sys.Affectances(p0)
	for i := 0; i < affCacheSlots; i++ { // fill the remaining slots and one more
		sys.Affectances(mk(float64(i + 2)))
	}
	b0 := sys.Affectances(p0)
	if b0 == a0 {
		t.Fatal("oldest entry survived cache overflow")
	}
	// Rebuilt matrix must agree with the original values.
	for w := 0; w < sys.Len(); w++ {
		for v := 0; v < sys.Len(); v++ {
			if b0.Raw(w, v) != a0.Raw(w, v) {
				t.Fatalf("rebuilt affectance differs at (%d,%d)", w, v)
			}
		}
	}
}

// TestAffectanceCacheMatchesDirectCompute: cached matrices agree with a
// direct ComputeAffectances for every cached power.
func TestAffectanceCacheMatchesDirectCompute(t *testing.T) {
	sys := randomSystem(t, 41, 8, 0.5, 5, WithNoise(0.01), WithZeta(2))
	for _, p := range []Power{UniformPower(sys, 1), LinearPower(sys, 2), MeanPower(sys, 3)} {
		got := sys.Affectances(p)
		want := ComputeAffectances(sys, p)
		for w := 0; w < sys.Len(); w++ {
			for v := 0; v < sys.Len(); v++ {
				if got.Raw(w, v) != want.Raw(w, v) {
					t.Fatalf("cached affectance differs at (%d,%d)", w, v)
				}
			}
		}
	}
}

// TestPowerFingerprintDistinguishes: the fingerprint separates the standard
// power schemes and length prefixes (collisions are only a perf hazard, but
// the standard schemes must not collide).
func TestPowerFingerprintDistinguishes(t *testing.T) {
	sys := randomSystem(t, 47, 5, 0.5, 8, WithZeta(2))
	fps := map[uint64]string{}
	for name, p := range map[string]Power{
		"uniform":  UniformPower(sys, 1),
		"uniform2": UniformPower(sys, 2),
		"linear":   LinearPower(sys, 1),
		"mean":     MeanPower(sys, 1),
		"prefix":   UniformPower(sys, 1)[:4],
	} {
		fp := powerFingerprint(p)
		if prev, dup := fps[fp]; dup {
			t.Fatalf("fingerprint collision: %s vs %s", name, prev)
		}
		fps[fp] = name
	}
}

// TestIsFeasibleWithMatchesUnion: the allocation-free probe agrees with
// IsFeasible on the materialized union.
func TestIsFeasibleWithMatchesUnion(t *testing.T) {
	sys := randomSystem(t, 43, 7, 0.5, 8, WithNoise(0.02), WithZeta(2))
	p := UniformPower(sys, 3)
	sets := [][]int{nil, {0}, {1, 2}, {0, 3, 5}, {1, 2, 4, 6}}
	for _, set := range sets {
		for v := 0; v < sys.Len(); v++ {
			member := false
			for _, w := range set {
				if w == v {
					member = true
				}
			}
			if member {
				continue
			}
			union := append(append([]int(nil), set...), v)
			if got, want := IsFeasibleWith(sys, p, set, v), IsFeasible(sys, p, union); got != want {
				t.Fatalf("set %v + %d: IsFeasibleWith %v, IsFeasible %v", set, v, got, want)
			}
		}
	}
}
