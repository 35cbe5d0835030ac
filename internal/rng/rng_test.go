package rng

import (
	"math"
	"testing"
	"testing/quick"
)

func TestDeterminism(t *testing.T) {
	a, b := New(42), New(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("streams diverged at step %d", i)
		}
	}
}

func TestDistinctSeedsDiverge(t *testing.T) {
	a, b := New(1), New(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("different seeds produced %d identical outputs", same)
	}
}

func TestFloat64Range(t *testing.T) {
	s := New(7)
	for i := 0; i < 10000; i++ {
		f := s.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 out of range: %v", f)
		}
	}
}

func TestFloat64Mean(t *testing.T) {
	s := New(11)
	const n = 200000
	sum := 0.0
	for i := 0; i < n; i++ {
		sum += s.Float64()
	}
	mean := sum / n
	if math.Abs(mean-0.5) > 0.01 {
		t.Fatalf("uniform mean = %v, want ~0.5", mean)
	}
}

func TestIntnBounds(t *testing.T) {
	s := New(3)
	for _, n := range []int{1, 2, 3, 10, 1000} {
		for i := 0; i < 1000; i++ {
			v := s.Intn(n)
			if v < 0 || v >= n {
				t.Fatalf("Intn(%d) = %d out of range", n, v)
			}
		}
	}
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	New(1).Intn(0)
}

func TestIntnCoversAllValues(t *testing.T) {
	s := New(5)
	seen := make(map[int]bool)
	for i := 0; i < 1000; i++ {
		seen[s.Intn(5)] = true
	}
	if len(seen) != 5 {
		t.Fatalf("Intn(5) covered %d values, want 5", len(seen))
	}
}

func TestNormalMoments(t *testing.T) {
	s := New(13)
	const n = 200000
	var sum, sumSq float64
	for i := 0; i < n; i++ {
		v := s.Normal()
		sum += v
		sumSq += v * v
	}
	mean := sum / n
	variance := sumSq/n - mean*mean
	if math.Abs(mean) > 0.02 {
		t.Errorf("normal mean = %v, want ~0", mean)
	}
	if math.Abs(variance-1) > 0.03 {
		t.Errorf("normal variance = %v, want ~1", variance)
	}
}

func TestLogNormalPositive(t *testing.T) {
	s := New(17)
	for i := 0; i < 1000; i++ {
		if v := s.LogNormal(0, 2); v <= 0 {
			t.Fatalf("LogNormal produced non-positive %v", v)
		}
	}
}

func TestRayleighMean(t *testing.T) {
	s := New(19)
	const n = 200000
	sigma := 2.0
	sum := 0.0
	for i := 0; i < n; i++ {
		sum += s.Rayleigh(sigma)
	}
	want := sigma * math.Sqrt(math.Pi/2)
	got := sum / n
	if math.Abs(got-want)/want > 0.02 {
		t.Fatalf("Rayleigh mean = %v, want ~%v", got, want)
	}
}

func TestExpMean(t *testing.T) {
	s := New(23)
	const n = 200000
	lambda := 3.0
	sum := 0.0
	for i := 0; i < n; i++ {
		sum += s.Exp(lambda)
	}
	got := sum / n
	if math.Abs(got-1/lambda)/(1/lambda) > 0.02 {
		t.Fatalf("Exp mean = %v, want ~%v", got, 1/lambda)
	}
}

func TestGammaMoments(t *testing.T) {
	for _, tc := range []struct{ shape, scale float64 }{
		{0.5, 2.0}, {1.0, 1.5}, {2.5, 0.8}, {9.0, 1.0},
	} {
		s := New(37)
		const n = 200000
		var sum, sumSq float64
		for i := 0; i < n; i++ {
			v := s.Gamma(tc.shape, tc.scale)
			if v <= 0 || math.IsNaN(v) || math.IsInf(v, 0) {
				t.Fatalf("Gamma(%v,%v) produced %v", tc.shape, tc.scale, v)
			}
			sum += v
			sumSq += v * v
		}
		mean := sum / n
		wantMean := tc.shape * tc.scale
		if math.Abs(mean-wantMean)/wantMean > 0.03 {
			t.Errorf("Gamma(%v,%v) mean = %v, want ~%v", tc.shape, tc.scale, mean, wantMean)
		}
		variance := sumSq/n - mean*mean
		wantVar := tc.shape * tc.scale * tc.scale
		if math.Abs(variance-wantVar)/wantVar > 0.08 {
			t.Errorf("Gamma(%v,%v) variance = %v, want ~%v", tc.shape, tc.scale, variance, wantVar)
		}
	}
}

func TestWeibullMoments(t *testing.T) {
	for _, tc := range []struct{ shape, scale float64 }{
		{0.7, 1.0}, {1.0, 2.0}, {2.0, 1.5},
	} {
		s := New(41)
		const n = 200000
		sum := 0.0
		for i := 0; i < n; i++ {
			v := s.Weibull(tc.shape, tc.scale)
			if v < 0 || math.IsNaN(v) || math.IsInf(v, 0) {
				t.Fatalf("Weibull(%v,%v) produced %v", tc.shape, tc.scale, v)
			}
			sum += v
		}
		got := sum / n
		want := tc.scale * math.Gamma(1+1/tc.shape)
		if math.Abs(got-want)/want > 0.03 {
			t.Errorf("Weibull(%v,%v) mean = %v, want ~%v", tc.shape, tc.scale, got, want)
		}
	}
}

func TestWeibullShapeOneIsExponential(t *testing.T) {
	// shape=1 reduces Weibull to Exp(1/scale) and both use the same
	// inversion, so the streams must agree sample-for-sample.
	a, b := New(43), New(43)
	for i := 0; i < 100; i++ {
		w := a.Weibull(1, 2.0)
		e := b.Exp(0.5)
		if math.Abs(w-e) > 1e-12*math.Max(w, e) {
			t.Fatalf("Weibull(1,2) = %v diverged from Exp(0.5) = %v", w, e)
		}
	}
}

func TestPermIsPermutation(t *testing.T) {
	s := New(29)
	for _, n := range []int{0, 1, 2, 10, 100} {
		p := s.Perm(n)
		if len(p) != n {
			t.Fatalf("Perm(%d) has length %d", n, len(p))
		}
		seen := make([]bool, n)
		for _, v := range p {
			if v < 0 || v >= n || seen[v] {
				t.Fatalf("Perm(%d) = %v is not a permutation", n, p)
			}
			seen[v] = true
		}
	}
}

func TestShufflePreservesMultiset(t *testing.T) {
	s := New(31)
	data := []int{1, 2, 3, 4, 5, 6, 7, 8}
	sum := 0
	for _, v := range data {
		sum += v
	}
	s.Shuffle(len(data), func(i, j int) { data[i], data[j] = data[j], data[i] })
	got := 0
	for _, v := range data {
		got += v
	}
	if got != sum {
		t.Fatalf("shuffle changed element sum: %d != %d", got, sum)
	}
}

func TestPairStreamDeterministic(t *testing.T) {
	a := PairStream(9, 3, 7)
	b := PairStream(9, 3, 7)
	if a.Uint64() != b.Uint64() {
		t.Fatal("PairStream not deterministic")
	}
	c := PairStream(9, 7, 3)
	d := PairStream(9, 3, 7)
	if c.Uint64() == d.Uint64() {
		t.Fatal("PairStream should be order-sensitive")
	}
}

func TestSymmetricPairStream(t *testing.T) {
	a := SymmetricPairStream(9, 3, 7)
	b := SymmetricPairStream(9, 7, 3)
	if a.Uint64() != b.Uint64() {
		t.Fatal("SymmetricPairStream should be order-insensitive")
	}
}

// TestPairStreamGolden pins the first draws of PairStream and
// SymmetricPairStream for fixed (seed, i, j), including the (j, i) swap:
// every shadowing field, tier tail sample and sim arrival derives from
// these streams, so a change here changes every seeded result.
func TestPairStreamGolden(t *testing.T) {
	cases := []struct {
		seed      uint64
		i, j      int
		u0, u1    uint64 // PairStream: first two Uint64 draws
		normal    uint64 // PairStream: the Normal after them, as float64 bits
		symU0     uint64 // SymmetricPairStream: first Uint64 draw
		symNormal uint64 // SymmetricPairStream: the Normal after it
	}{
		{1, 3, 7, 0xb3e661388c10f6ed, 0xc3937996a11cdfc0, 0xbff3101edbdb9363, 0xb3e661388c10f6ed, 0xbff055560e0a563d},
		{1, 7, 3, 0xe31be3adebf41177, 0x4fa527c84aa14ba1, 0x3fbad72f018a297a, 0xb3e661388c10f6ed, 0xbff055560e0a563d},
		{0x5aded0b5, 0, 1, 0x335a9cf03a111364, 0x12376383071b14ce, 0xbfe58c2c4988746f, 0x335a9cf03a111364, 0xbfd7decbcab1d7fe},
		{42, 1023, 16383, 0xa28b85150fdf92e9, 0x06ce0bff4897ac15, 0x3fe703d697445e78, 0xa28b85150fdf92e9, 0x3f96d3506911caa1},
	}
	for _, c := range cases {
		s := PairStream(c.seed, c.i, c.j)
		if u0, u1 := s.Uint64(), s.Uint64(); u0 != c.u0 || u1 != c.u1 {
			t.Errorf("PairStream(%d,%d,%d) = %#x, %#x; want %#x, %#x", c.seed, c.i, c.j, u0, u1, c.u0, c.u1)
		}
		if z := math.Float64bits(s.Normal()); z != c.normal {
			t.Errorf("PairStream(%d,%d,%d).Normal bits %#x, want %#x", c.seed, c.i, c.j, z, c.normal)
		}
		y := SymmetricPairStream(c.seed, c.i, c.j)
		if u := y.Uint64(); u != c.symU0 {
			t.Errorf("SymmetricPairStream(%d,%d,%d) = %#x, want %#x", c.seed, c.i, c.j, u, c.symU0)
		}
		if z := math.Float64bits(y.Normal()); z != c.symNormal {
			t.Errorf("SymmetricPairStream(%d,%d,%d).Normal bits %#x, want %#x", c.seed, c.i, c.j, z, c.symNormal)
		}
	}
}

// TestPairStreamAllocFree pins the per-pair draw the lazy scenario oracles
// make once per decay: deriving a stream and sampling it allocates nothing.
func TestPairStreamAllocFree(t *testing.T) {
	sink := 0.0
	allocs := testing.AllocsPerRun(100, func() {
		s := PairStream(7, 11, 13)
		sink += s.Normal()
		y := SymmetricPairStream(7, 13, 11)
		sink += y.Normal()
	})
	if allocs != 0 {
		t.Fatalf("PairStream(...).Normal allocates %v times per run, want 0", allocs)
	}
	_ = sink
}

func TestSplitIndependence(t *testing.T) {
	parent := New(101)
	child := parent.Split()
	same := 0
	for i := 0; i < 100; i++ {
		if parent.Uint64() == child.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("split streams matched %d times", same)
	}
}

func TestQuickFloat64AlwaysInRange(t *testing.T) {
	f := func(seed uint64, n uint8) bool {
		s := New(seed)
		for i := 0; i < int(n); i++ {
			v := s.Float64()
			if v < 0 || v >= 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestQuickPairStreamStable(t *testing.T) {
	f := func(seed uint64, i, j uint16) bool {
		a := PairStream(seed, int(i), int(j))
		b := PairStream(seed, int(i), int(j))
		return a.Uint64() == b.Uint64()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
