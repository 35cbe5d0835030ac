package core

import (
	"context"
	"testing"

	"decaynet/internal/rng"
)

// estSpace builds an n-node dense space with i.i.d. decays in [0.5, 50)
// (randomSpace from space_test with this file's preferred argument order).
func estSpace(t *testing.T, n int, seed uint64) *Matrix {
	t.Helper()
	return randomSpace(t, seed, n, 0.5, 50)
}

// TestSampledEstimateMatchesBatch pins the Estimate variants to the batched
// scans they wrap: same point estimate, same evaluated count, plus a
// coherent concentration summary.
func TestSampledEstimateMatchesBatch(t *testing.T) {
	d := estSpace(t, 48, 3)
	const samples = 4000
	ze := ZetaSampledEstimate(d, samples, rng.New(7))
	zv, zk, _, _ := zetaSampledScan(context.Background(), d, samples, rng.New(7))
	if ze.Value != zv || ze.Evaluated != zk {
		t.Fatalf("estimate (%v, %d) != batch (%v, %d)", ze.Value, ze.Evaluated, zv, zk)
	}
	ve := VarphiSampledEstimate(d, samples, rng.New(7))
	vv, vk, _, _ := varphiSampledScan(context.Background(), d, samples, rng.New(7))
	if ve.Value != vv || ve.Evaluated != vk {
		t.Fatalf("estimate (%v, %d) != batch (%v, %d)", ve.Value, ve.Evaluated, vv, vk)
	}
	wantStrata := samples / sampleRowBlock // partial stratum excluded from the summary
	for _, est := range []SampledEstimate{ze, ve} {
		if est.Strata != wantStrata {
			t.Fatalf("strata = %d, want %d", est.Strata, wantStrata)
		}
		if est.HalfWidth95 < 0 {
			t.Fatalf("negative half-width %v", est.HalfWidth95)
		}
		if est.Value < est.MeanStratumMax {
			t.Fatalf("max over strata %v below stratum mean %v", est.Value, est.MeanStratumMax)
		}
		if est.Evaluated != samples {
			t.Fatalf("evaluated %d of %d", est.Evaluated, samples)
		}
	}
	// The point estimates stay lower bounds on the exact parameters.
	if exact := Zeta(d); ze.Value > exact+1e-9 {
		t.Fatalf("sampled zeta %v above exact %v", ze.Value, exact)
	}
	if exact := Varphi(d); ve.Value > exact+1e-9 {
		t.Fatalf("sampled varphi %v above exact %v", ve.Value, exact)
	}
}

// TestSampledEstimateDeterministic: equal inputs, equal summaries —
// including across runs of the parallel scan.
func TestSampledEstimateDeterministic(t *testing.T) {
	d := estSpace(t, 32, 11)
	a := ZetaSampledEstimate(d, 2000, rng.New(5))
	b := ZetaSampledEstimate(d, 2000, rng.New(5))
	if a != b {
		t.Fatalf("estimates differ: %+v vs %+v", a, b)
	}
}

// TestSampledEstimateShrinksWithBudget: on an i.i.d. space the Hoeffding
// half-width must shrink as the stratum count grows.
func TestSampledEstimateShrinksWithBudget(t *testing.T) {
	d := estSpace(t, 64, 19)
	small := ZetaSampledEstimate(d, 2*sampleRowBlock, rng.New(1))
	large := ZetaSampledEstimate(d, 200*sampleRowBlock, rng.New(1))
	if large.HalfWidth95 >= small.HalfWidth95 {
		t.Fatalf("half-width did not shrink: %v (S=%d) -> %v (S=%d)",
			small.HalfWidth95, small.Strata, large.HalfWidth95, large.Strata)
	}
}

// TestSampledEstimatePartialStratumExcluded: a trailing short stratum
// feeds Value/Evaluated but not the concentration summary, so it cannot
// bias MeanStratumMax or the half-width.
func TestSampledEstimatePartialStratumExcluded(t *testing.T) {
	d := estSpace(t, 32, 23)
	est := ZetaSampledEstimate(d, sampleRowBlock+1, rng.New(2))
	if est.Evaluated != sampleRowBlock+1 {
		t.Fatalf("evaluated = %d, want %d", est.Evaluated, sampleRowBlock+1)
	}
	if est.Strata != 1 {
		t.Fatalf("strata = %d, want the single full stratum", est.Strata)
	}
	if est.HalfWidth95 != 0 {
		t.Fatalf("half-width over one stratum = %v, want 0", est.HalfWidth95)
	}
	// The full-strata prefix is unchanged by the extra draw, so the
	// summary must match the exact-multiple run's.
	exact := ZetaSampledEstimate(d, sampleRowBlock, rng.New(2))
	if est.MeanStratumMax != exact.MeanStratumMax {
		t.Fatalf("partial stratum leaked into the summary: %v vs %v",
			est.MeanStratumMax, exact.MeanStratumMax)
	}
}

// TestSampledEstimateDegenerate: undersized spaces and empty budgets
// return the floor with an empty summary.
func TestSampledEstimateDegenerate(t *testing.T) {
	d := estSpace(t, 2, 1)
	est := ZetaSampledEstimate(d, 100, rng.New(1))
	if est.Strata != 0 || est.Evaluated != 0 || est.Value != DefaultZetaFloor {
		t.Fatalf("degenerate estimate = %+v", est)
	}
	if est.HalfWidth95 != 0 {
		t.Fatalf("degenerate half-width = %v", est.HalfWidth95)
	}
}
