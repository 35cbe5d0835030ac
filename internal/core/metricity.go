package core

import (
	"context"
	"errors"
	"math"

	"decaynet/internal/par"
)

// DefaultZetaFloor is the value Zeta reports for spaces in which every
// triplet satisfies the triangle inequality at all exponents (e.g. n < 3).
// Any ζ > 0 would do; 1 makes the induced quasi-distance equal the decay.
const DefaultZetaFloor = 1.0

// Zeta computes the metricity ζ(D) of Def 2.2: the smallest ζ such that
//
//	f(x,y)^(1/ζ) ≤ f(x,z)^(1/ζ) + f(z,y)^(1/ζ)
//
// for every ordered triplet of distinct nodes. Exact up to bisection
// tolerance; O(n³) triplets. The result is never below DefaultZetaFloor.
func Zeta(d Space) float64 {
	return ZetaTol(d, 1e-12)
}

// ZetaTol is Zeta with an explicit relative bisection tolerance (used by the
// bisection-tolerance ablation).
//
// The scan is batch-first and cache-blocked: the log-decay matrix and its
// per-row extrema are materialized once via the RowSpace contract (no
// per-element interface calls) and the O(n³) triplet loop runs as (x,z)
// tiles of the shared ζ kernel (zetaTile) on the worker pool, so each
// decay row is streamed O(n/tile) times instead of O(n). The kernel keeps
// almost every triplet out of the bisection with one prune chain, each
// test checked against the running maximum: an AM-GM bound and then the
// exact inequality on the strongest triplet an (x,z) pair can field
// (largest ln f(x,y), smallest ln f(z,y)) discharge the whole y-loop; a
// per-y AM-GM cut on ln f(x,y) alone, an AM-GM bound on the full triplet
// and the exact inequality then screen the survivors one by one. Spaces
// certifying exact symmetry through the Symmetric marker scan only
// ordered pairs x < y, halving the triplet set (ζ is invariant under
// swapping the endpoints when f is symmetric). The result equals the
// per-pair reference up to bisection tolerance.
func ZetaTol(d Space, tol float64) float64 {
	z, _ := ZetaTolCtx(context.Background(), d, tol)
	return z
}

// ZetaTolCtx is ZetaTol with cooperative cancellation: the tile kernels
// poll ctx between x-rows (a row is O(tile·n) work, microseconds even at
// n ≫ 10³), so a cancelled scan returns promptly with ctx.Err() and no
// partial value.
func ZetaTolCtx(ctx context.Context, d Space, tol float64) (float64, error) {
	n := d.N()
	if n < 3 {
		return DefaultZetaFloor, ctx.Err()
	}
	logs := logMatrix(d)
	rowMax, rowMin := rowExtrema(logs, n)
	s := newMaxScan(denseRows(logs, n), rowMax, rowMin, KnownSymmetric(d), tol, DefaultZetaFloor)
	return s.parallel(ctx, (*maxScan).zetaTile)
}

// tripletTile returns the (x,z) tile edge for an n-node triplet scan: small
// enough that the ~2·tile decay rows a tile touches stay cache-resident,
// large enough that (n/tile)² tiles amortize pool dispatch. Sub-64-node
// scans run as a single inline block.
func tripletTile(n int) int {
	switch {
	case n >= 256:
		return 64
	case n >= 64:
		return 16
	default:
		return 0
	}
}

// rowExtrema returns, for each row i of an n×n row-major matrix (log
// decays for ZetaTol, raw decays for Varphi), the largest and smallest
// off-diagonal entry. The triplet kernels use them to discharge whole
// row pairs without touching the inner loop. Diagonal entries (ln 0 or 0)
// are skipped.
func rowExtrema(vals []float64, n int) (rowMax, rowMin []float64) {
	rowMax = make([]float64, n)
	rowMin = make([]float64, n)
	par.ForChunked(n, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			row := vals[i*n : (i+1)*n]
			mx, mn := math.Inf(-1), math.Inf(1)
			for j, v := range row {
				if j == i {
					continue
				}
				if v > mx {
					mx = v
				}
				if v < mn {
					mn = v
				}
			}
			rowMax[i], rowMin[i] = mx, mn
		}
	})
	return rowMax, rowMin
}

// ZetaPerPair is the pre-batching reference implementation of ZetaTol: one
// virtual F call per matrix element, serial, no pruning. Kept as the
// ground-truth oracle for equivalence tests and as the baseline op in
// cmd/decaybench's perf trajectory.
func ZetaPerPair(d Space, tol float64) float64 {
	n := d.N()
	best := DefaultZetaFloor
	for x := 0; x < n; x++ {
		for y := 0; y < n; y++ {
			if y == x {
				continue
			}
			a := math.Log(d.F(x, y))
			for z := 0; z < n; z++ {
				if z == x || z == y {
					continue
				}
				zt := zetaTriplet(a, math.Log(d.F(x, z)), math.Log(d.F(z, y)), tol)
				if zt > best {
					best = zt
				}
			}
		}
	}
	return best
}

// logMatrix returns the dense matrix of ln f(i,j), filled row-wise through
// the batch contract in parallel. Diagonal entries are ln 0 = -Inf and are
// skipped by all consumers.
func logMatrix(d Space) []float64 {
	rs := Rows(d)
	n := rs.N()
	logs := make([]float64, n*n)
	par.ForChunked(n, func(lo, hi int) {
		buf := make([]float64, n)
		for i := lo; i < hi; i++ {
			rs.Row(i, buf)
			out := logs[i*n : (i+1)*n]
			for j, v := range buf {
				out[j] = math.Log(v)
			}
		}
	})
	return logs
}

// ZetaTriplet returns the smallest ζ at which the triplet with decays
// (fxy, fxz, fzy) satisfies the relaxed triangle inequality, or
// DefaultZetaFloor when every positive ζ works.
func ZetaTriplet(fxy, fxz, fzy float64) float64 {
	return zetaTriplet(math.Log(fxy), math.Log(fxz), math.Log(fzy), 1e-12)
}

// zetaTriplet works on logarithms a = ln f(x,y), b = ln f(x,z),
// c = ln f(z,y). When a ≤ max(b, c) the inequality holds for every ζ > 0
// (the largest term on the right already dominates). Otherwise the
// normalized slack
//
//	g(t) = e^((b−a)t) + e^((c−a)t),  t = 1/ζ
//
// is strictly decreasing and convex from g(0) = 2 towards 0, so the
// constraint g(t) ≥ 1 holds exactly for t ≤ t*, i.e. ζ ≥ 1/t*, with the
// unique root t* found by bracketed Newton iteration (bisecting whenever a
// Newton step would leave the bracket or stops halving it). Quadratic
// convergence makes the root a handful of exp-pair evaluations — this
// function dominates every triplet scan, from the exact tiled kernels to
// the incremental session repairs.
func zetaTriplet(a, b, c float64, tol float64) float64 {
	if a <= b || a <= c {
		return DefaultZetaFloor
	}
	db, dc := b-a, c-a // both strictly negative
	// Bracket the root: g(0) = 2 > 1; at tHi the larger term is 1/2 so
	// g(tHi) ≤ 1.
	worst := db
	if dc > db {
		worst = dc
	}
	tHi := math.Ln2 / -worst
	tLo := 0.0
	t := 0.5 * tHi
	dtOld := tHi
	dt := dtOld
	e1, e2 := math.Exp(db*t), math.Exp(dc*t)
	g := e1 + e2 - 1
	dg := db*e1 + dc*e2
	for i := 0; i < 100; i++ {
		if ((t-tHi)*dg-g)*((t-tLo)*dg-g) > 0 || math.Abs(2*g) > math.Abs(dtOld*dg) {
			dtOld = dt
			dt = 0.5 * (tHi - tLo)
			t = tLo + dt
		} else {
			dtOld = dt
			dt = g / dg
			t -= dt
		}
		if math.Abs(dt) <= tol*t {
			break
		}
		e1, e2 = math.Exp(db*t), math.Exp(dc*t)
		g = e1 + e2 - 1
		dg = db*e1 + dc*e2
		if g > 0 {
			tLo = t
		} else {
			tHi = t
		}
	}
	z := 1 / t
	if z < DefaultZetaFloor {
		return DefaultZetaFloor
	}
	return z
}

// SatisfiesZeta reports whether the space satisfies the relaxed triangle
// inequality at exponent zeta on all ordered triplets, within relative
// tolerance tol. Used as the ground-truth check in tests.
func SatisfiesZeta(d Space, zeta, tol float64) bool {
	if zeta <= 0 {
		return false
	}
	n := d.N()
	for x := 0; x < n; x++ {
		for y := 0; y < n; y++ {
			if y == x {
				continue
			}
			lhs := math.Pow(d.F(x, y), 1/zeta)
			for z := 0; z < n; z++ {
				if z == x || z == y {
					continue
				}
				rhs := math.Pow(d.F(x, z), 1/zeta) + math.Pow(d.F(z, y), 1/zeta)
				if lhs > rhs*(1+tol) {
					return false
				}
			}
		}
	}
	return true
}

// Varphi computes the variant parameter ϕ of Sec 4.2: the smallest value
// such that f(x,z) ≤ ϕ·(f(x,y) + f(y,z)) for every triplet, i.e.
// max over triplets of f(x,z)/(f(x,y)+f(y,z)). Returns at least 1/2
// (attained when all decays are equal). Requires n ≥ 3; smaller spaces
// return 1/2.
//
// Like ZetaTol, the scan runs (x,y) tiles of the shared ϕ kernel
// (varphiTile) on the worker pool: per-row decay extrema discharge whole
// (x,y) pairs whose best possible ratio max_z f(x,z)/(f(x,y)+min_z f(y,z))
// cannot beat the running maximum, and exactly symmetric spaces scan only
// x < z (the ratio is invariant under swapping the endpoints).
func Varphi(d Space) float64 {
	v, _ := VarphiCtx(context.Background(), d)
	return v
}

// VarphiCtx is Varphi with cooperative cancellation (see ZetaTolCtx): ctx
// is polled between x-rows and a cancelled scan returns ctx.Err() with no
// partial value.
func VarphiCtx(ctx context.Context, d Space) (float64, error) {
	n := d.N()
	if n < 3 {
		return 0.5, ctx.Err()
	}
	m := Dense(d)
	rowMaxF, rowMinF := rowExtrema(m.f, n)
	s := newMaxScan(denseRows(m.f, n), rowMaxF, rowMinF, m.Symmetric(), 0, VarphiFloor)
	return s.parallel(ctx, (*maxScan).varphiTile)
}

// VarphiPerPair is the serial, per-element reference implementation of
// Varphi: one virtual F call per decay access, no pruning. Kept as the
// ground-truth oracle for equivalence tests and as a baseline op in
// cmd/decaybench's perf trajectory.
func VarphiPerPair(d Space) float64 {
	n := d.N()
	best := 0.5
	for x := 0; x < n; x++ {
		for y := 0; y < n; y++ {
			if y == x {
				continue
			}
			fxy := d.F(x, y)
			for z := 0; z < n; z++ {
				if z == x || z == y {
					continue
				}
				if r := d.F(x, z) / (fxy + d.F(y, z)); r > best {
					best = r
				}
			}
		}
	}
	return best
}

// Phi returns φ = lg ϕ, the logarithmic form of the variant metricity
// parameter used in the approximability bounds of Sec 4.2. When ϕ < 1
// (very metric-like spaces) Phi is negative; the hardness statements use
// max(φ, 0).
func Phi(d Space) float64 {
	return math.Log2(Varphi(d))
}

// ZetaUpperBound returns the a-priori bound ζ₀ = lg(max f / min f) that the
// paper uses to show ζ is well-defined. It returns an error when the space
// has fewer than two nodes.
func ZetaUpperBound(d Space) (float64, error) {
	if d.N() < 2 {
		return 0, errors.New("core: need at least two nodes")
	}
	lo, hi := DecayRange(d)
	if lo <= 0 {
		return 0, errors.New("core: invalid decays")
	}
	b := math.Log2(hi / lo)
	if b < DefaultZetaFloor {
		return DefaultZetaFloor, nil
	}
	return b, nil
}
