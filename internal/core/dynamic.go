package core

import (
	"context"
	"math"
	"slices"
	"sync"

	"decaynet/internal/par"
)

// Incremental maintenance of the triplet-scan parameters for mutable
// sessions. A Tracker maintains a *candidate set*: every ordered triplet
// whose value (ζ, or the ϕ ratio) exceeds a retained floor τ, chosen a
// margin below the maximum at the last full scan. The tracked parameter is
// the maximum over the set.
//
// After a mutation that dirtied a node set M (rows and/or columns of the
// decay matrix), a triplet's value changed only if one of its three
// indices lies in M, so Repair drops the set's dirty-incident members and
// re-scans exactly the dirty-incident triplets — full rows for x ∈ M,
// the (x, ·, z ∈ M) and (x, y ∈ M, ·) slices for clean x — collecting
// values above the *same* floor τ. Because τ sits just below the maximum,
// the whole-pair prunes discharge almost every pair without touching an
// inner loop: the repair is O(|M|·n) pair probes plus a handful of
// survivors, against the O(n³) full scan. A mutation that lowers the
// maximum simply pops to the next candidate; only when the set drains
// completely (the maximum fell below τ) does a full rescan run and reset
// the floor. Values are computed by the same kernels as the one-shot
// scans, so the tracked maximum is bit-identical to a from-scratch
// computation.
//
// The scan itself — patching, extrema, per-row collection — lives on the
// ScanState replicas (shardscan.go), so a sharding coordinator can run the
// same phases across row-range workers: build a tracker from per-shard
// maxima and band collections (NewTrackerFrom), and repair it from
// per-shard dirty-incident collections (PatchAndDrop + AbsorbRepair +
// Reseed). The pool-parallel Repair / rescan below drive the very same
// range methods in chunks, so both routes track bit-identical values.

// candMargin is the relative width of the candidate band: the floor is
// (1 − candMargin) · max. Wider bands survive deeper decreases before a
// full rescan but collect more candidates.
const candMargin = 0.05

// candCap bounds the candidate set; degenerate spaces with huge near-tied
// bands are trimmed to the strongest candKeep members and the floor is
// raised to match, so pathological instances degrade to more frequent
// rescans instead of unbounded memory.
const (
	candCap  = 1 << 20
	candKeep = 1 << 16
)

// trim enforces the candidate cap: keep the strongest candKeep members and
// raise the floor to the weakest kept value (the set stays complete above
// the new floor).
func trim(set []BandTriplet, floor float64) ([]BandTriplet, float64) {
	if len(set) <= candCap {
		return set, floor
	}
	slices.SortFunc(set, func(a, b BandTriplet) int {
		switch {
		case a.Val > b.Val:
			return -1
		case a.Val < b.Val:
			return 1
		default:
			return 0
		}
	})
	set = set[:candKeep:candKeep]
	return set, set[len(set)-1].Val
}

// Tracker maintains one triplet parameter of a dense decay space under
// row / column mutations. It scans through a ScanState replica (for ζ its
// own log-decay matrix plus pruning extrema, for ϕ the matrix itself with
// its extrema, patched on repair); the underlying Matrix is read on
// construction and on each Repair and must reflect the mutation before
// Repair is called.
type Tracker struct {
	st ScanState

	value float64
	floor float64 // τ: the set holds every triplet valued above τ
	set   []BandTriplet
}

// NewTracker builds p's scan state over m (at ζ bisection tolerance tol),
// runs the full scan, fixes the candidate floor a margin below the
// maximum, and collects the candidate band. ctx is polled between rows; a
// cancelled build returns ctx.Err().
func NewTracker(ctx context.Context, p Param, m *Matrix, tol float64) (*Tracker, error) {
	t := &Tracker{st: NewScanState(p, m, tol), value: p.Floor(), floor: p.Floor()}
	if t.st.N() < 3 {
		return t, ctx.Err()
	}
	if err := t.rescan(ctx); err != nil {
		return nil, err
	}
	return t, nil
}

// NewTrackerFrom seeds a tracker from the results of an externally driven
// full scan over the given state: the exact maximum max and the band of
// triplets above the parameter's BandFloor(max), typically concatenated
// from per-shard collection phases. The tracker takes ownership of the
// state (sharing it with the scanning workers is fine — repairs patch it
// under the session lock).
func NewTrackerFrom(st ScanState, max float64, band []BandTriplet) *Tracker {
	t := &Tracker{st: st}
	t.Reseed(max, band)
	return t
}

// Param returns the tracked parameter.
func (t *Tracker) Param() Param { return t.st.Param() }

// Value returns the tracked maximum.
func (t *Tracker) Value() float64 { return t.value }

// Floor returns the candidate-band floor τ — the threshold an external
// repair phase must collect above.
func (t *Tracker) Floor() float64 { return t.floor }

// PatchAndDrop applies the mutation prefix of a repair without scanning:
// the replica is patched against the mutated Matrix and the candidate set
// drops its dirty-incident members. An external (sharded) repair then
// collects the dirty-incident triplets above Floor with
// ScanState.RepairRange and hands them to AbsorbRepair. The returned
// dirty-node mask (nil when nothing to do) is the one the collection scans
// consume.
func (t *Tracker) PatchAndDrop(dirty []int, rowsOnly bool) []bool {
	n := t.st.N()
	if n < 3 || len(dirty) == 0 {
		return nil
	}
	t.st.PatchRows(dirty, rowsOnly)
	mask := DirtyMask(n, dirty)
	t.set = dropDirtyBand(t.set, mask)
	return mask
}

// AbsorbRepair merges an externally collected dirty-incident band into the
// candidate set and re-derives the tracked value. needRescan reports the
// drained-band case — the maximum fell below the floor — in which the
// caller must run a full two-phase scan (max + band) and Reseed; the
// tracked value is not valid until then.
func (t *Tracker) AbsorbRepair(band []BandTriplet) (value float64, needRescan bool) {
	t.set = append(t.set, band...)
	return t.settle()
}

// settle re-derives the tracked value from the candidate set, or reports
// the drained band (see AbsorbRepair).
func (t *Tracker) settle() (value float64, needRescan bool) {
	universal := t.Param().Floor()
	if len(t.set) == 0 && t.floor > universal {
		return t.value, true
	}
	t.set, t.floor = trim(t.set, t.floor)
	t.value = maxBand(t.set, universal)
	return t.value, false
}

// Reseed installs the results of a full external rescan (see
// NewTrackerFrom): the exact maximum and the band above its BandFloor.
func (t *Tracker) Reseed(max float64, band []BandTriplet) {
	t.value = max
	t.set, t.floor = trim(band, t.Param().BandFloor(max))
}

// Repair re-establishes the tracked value after the underlying matrix
// mutated on the rows and columns of the given nodes, and returns it.
// rowsOnly declares that only the dirty *rows* changed (SetRows /
// SetDecay mutations; node moves also rewrite columns): the clean rows'
// entries and extrema are then provably unchanged and skipped. Only
// triplets incident to a dirty node are re-scanned, on the shared pool; a
// drained candidate set triggers the full rescan fallback.
func (t *Tracker) Repair(dirty []int, rowsOnly bool) float64 {
	mask := t.PatchAndDrop(dirty, rowsOnly)
	if mask == nil {
		return t.value
	}
	floor := t.floor
	// A dense state's range scans fail only on cancellation, which
	// Background rules out.
	t.set, _ = t.gather(context.Background(), t.set, func(ctx context.Context, lo, hi int) ([]BandTriplet, error) {
		return t.st.RepairRange(ctx, lo, hi, dirty, mask, floor)
	})
	if v, needRescan := t.settle(); !needRescan {
		return v
	}
	t.rescan(context.Background())
	return t.value
}

// rescan runs the full-matrix pass: an exact maximum scan followed by a
// collection pass a margin below it.
func (t *Tracker) rescan(ctx context.Context) error {
	max, err := t.st.FullMax(ctx)
	if err != nil {
		return err
	}
	var band []BandTriplet
	if p := t.Param(); max > p.Floor() {
		floor := p.BandFloor(max)
		band, err = t.gather(ctx, t.set[:0], func(ctx context.Context, lo, hi int) ([]BandTriplet, error) {
			return t.st.CollectRange(ctx, lo, hi, floor)
		})
		if err != nil {
			return err
		}
	}
	t.Reseed(max, band)
	return ctx.Err()
}

// gather runs a row-range collection phase over [0, n) in chunks on the
// shared pool and appends the chunks' bands to band.
func (t *Tracker) gather(ctx context.Context, band []BandTriplet, phase func(ctx context.Context, lo, hi int) ([]BandTriplet, error)) ([]BandTriplet, error) {
	var (
		mu       sync.Mutex
		phaseErr error
	)
	err := par.ForChunkedCtx(ctx, t.st.N(), func(lo, hi int) {
		local, err := phase(ctx, lo, hi)
		mu.Lock()
		defer mu.Unlock()
		if err != nil {
			phaseErr = err
		}
		band = append(band, local...)
	})
	if phaseErr != nil {
		return nil, phaseErr
	}
	return band, err
}

// colMinima returns the smallest off-diagonal entry of each column of an
// n×n row-major matrix — the column-side pruning bound of the partial
// repair scans. Row chunks reduce into per-chunk minima merged under a
// lock, keeping the traversal row-major.
func colMinima(vals []float64, n int) []float64 {
	mins := make([]float64, n)
	for j := range mins {
		mins[j] = math.Inf(1)
	}
	var mu sync.Mutex
	par.ForChunked(n, func(lo, hi int) {
		local := make([]float64, n)
		for j := range local {
			local[j] = math.Inf(1)
		}
		for i := lo; i < hi; i++ {
			row := vals[i*n : (i+1)*n]
			for j, v := range row {
				if j != i && v < local[j] {
					local[j] = v
				}
			}
		}
		mu.Lock()
		for j, v := range local {
			if v < mins[j] {
				mins[j] = v
			}
		}
		mu.Unlock()
	})
	return mins
}

// refreshColMinima recomputes mins[j] for the given columns only — one
// strided pass per column, O(|cols|·n) against colMinima's O(n²).
func refreshColMinima(mins, vals []float64, n int, cols []int) {
	for _, j := range cols {
		mn := math.Inf(1)
		for i := 0; i < n; i++ {
			if i == j {
				continue
			}
			if v := vals[i*n+j]; v < mn {
				mn = v
			}
		}
		mins[j] = mn
	}
}
