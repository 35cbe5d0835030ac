package core

import (
	"math"
	"testing"
	"testing/quick"

	"decaynet/internal/geom"
	"decaynet/internal/rng"
)

func TestInducedQuasiMetricSatisfiesTriangle(t *testing.T) {
	for seed := uint64(0); seed < 6; seed++ {
		m := randomSpace(t, 200+seed, 9, 0.1, 60)
		q := InduceQuasiMetric(m)
		if v := q.TriangleViolation(); v > 1e-6 {
			t.Fatalf("seed %d: triangle violation %v at zeta %v", seed, v, q.Zeta())
		}
	}
}

func TestQuasiMetricGeometricRecoversDistance(t *testing.T) {
	pts := []geom.Point{geom.Pt(0, 0), geom.Pt(3, 4), geom.Pt(-1, 2)}
	g, err := NewGeometricSpace(pts, 3)
	if err != nil {
		t.Fatal(err)
	}
	q := NewQuasiMetric(g, 3)
	for i := range pts {
		for j := range pts {
			want := pts[i].Dist(pts[j])
			if got := q.D(i, j); math.Abs(got-want) > 1e-9*(1+want) {
				t.Fatalf("D(%d,%d) = %v, want Euclidean %v", i, j, got, want)
			}
		}
	}
}

func TestQuasiMetricAccessors(t *testing.T) {
	m := randomSpace(t, 5, 4, 1, 5)
	q := NewQuasiMetric(m, 2)
	if q.Zeta() != 2 || q.N() != 4 || q.Space() != Space(m) {
		t.Error("accessor mismatch")
	}
	if q.D(2, 2) != 0 {
		t.Error("self distance not zero")
	}
	// Non-positive zeta clamps.
	if NewQuasiMetric(m, -1).Zeta() != DefaultZetaFloor {
		t.Error("negative zeta not clamped")
	}
}

// TestQuasiMetricLazyDMatchesDense pins D's two forms to each other: a
// quasi-metric nobody materialized answers every pair with one Pow,
// bitwise equal to the entry of the matrix Dense builds, and reading it
// materializes nothing (link-level callers touch O(links²) pairs, not n²).
func TestQuasiMetricLazyDMatchesDense(t *testing.T) {
	m := randomSpace(t, 13, 40, 0.1, 60)
	lazy := NewQuasiMetric(m, 2.7)
	dense := NewQuasiMetric(m, 2.7).Dense()
	n := m.N()
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if got, want := lazy.D(i, j), dense[i*n+j]; math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("lazy D(%d,%d) = %v, materialized %v", i, j, got, want)
			}
		}
	}
	if lazy.materialized.Load() {
		t.Fatal("D materialized the distance matrix")
	}
	if a := testing.AllocsPerRun(100, func() { lazy.D(3, 7) }); a != 0 {
		t.Fatalf("lazy D allocates %v times per call", a)
	}
	lazy.Freeze()
	if got, want := lazy.D(3, 7), dense[3*n+7]; got != want {
		t.Fatalf("frozen D(3,7) = %v, want %v", got, want)
	}
}

func TestAsDecaySpace(t *testing.T) {
	m := randomSpace(t, 7, 5, 0.5, 9)
	q := InduceQuasiMetric(m)
	ds := q.AsDecaySpace()
	for i := 0; i < 5; i++ {
		for j := 0; j < 5; j++ {
			if math.Abs(ds.F(i, j)-q.D(i, j)) > 1e-12 {
				t.Fatalf("AsDecaySpace mismatch at (%d,%d)", i, j)
			}
		}
	}
	// The exported space is itself a valid decay space with zeta ~ 1
	// (it satisfies the plain triangle inequality).
	if z := Zeta(ds); z > 1+1e-6 {
		t.Errorf("quasi-metric decay space has zeta %v > 1", z)
	}
}

func TestQuickInducedTriangleAlwaysHolds(t *testing.T) {
	f := func(seed uint64) bool {
		src := rng.New(seed)
		n := 3 + src.Intn(4)
		m, err := FromFunc(n, func(i, j int) float64 { return src.Range(0.02, 50) })
		if err != nil {
			return false
		}
		return InduceQuasiMetric(m).TriangleViolation() < 1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}
