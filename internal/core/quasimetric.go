package core

import (
	"math"
	"sync"
	"sync/atomic"

	"decaynet/internal/par"
)

// QuasiMetric is the quasi-distance structure D' = (V, d) induced by a decay
// space: d(p, q) = f(p, q)^(1/ζ) (Sec 2.2). It satisfies the triangle
// inequality by construction of ζ, and is a metric iff the decay space is
// symmetric. Proposition 1's theory transfer consists of running
// metric-space algorithms on this structure with path-loss constant ζ.
type QuasiMetric struct {
	space Space
	zeta  float64
	n     int

	denseOnce    sync.Once
	dense        []float64   // d(i,j) row-major, once materialized
	materialized atomic.Bool // dense is set; D reads it from then on
}

// InduceQuasiMetric computes ζ(D) and returns the induced quasi-metric.
func InduceQuasiMetric(d Space) *QuasiMetric {
	return NewQuasiMetric(d, Zeta(d))
}

// NewQuasiMetric wraps a decay space with an explicit exponent (useful when
// ζ is already known, e.g. geometric spaces where ζ = α). Non-positive zeta
// values are clamped to DefaultZetaFloor.
func NewQuasiMetric(d Space, zeta float64) *QuasiMetric {
	if zeta <= 0 {
		zeta = DefaultZetaFloor
	}
	return &QuasiMetric{space: d, zeta: zeta, n: d.N()}
}

// N returns the number of nodes.
func (q *QuasiMetric) N() int {
	return q.n
}

// Zeta returns the exponent in use.
func (q *QuasiMetric) Zeta() float64 {
	return q.zeta
}

// Space returns the underlying decay space.
func (q *QuasiMetric) Space() Space {
	return q.space
}

// maxDenseQuasiNodes bounds the spaces Freeze materializes (8192²
// float64 = 512 MiB). Larger spaces keep the O(1)-memory per-call Pow; an
// explicit Dense() call still materializes regardless.
const maxDenseQuasiNodes = 8192

// D returns the quasi-distance d(i, j) = f(i, j)^(1/ζ): a flat load once
// the matrix is materialized (Dense, Freeze, a patched copy), else one Pow
// over the decay, bitwise equal to the materialized entry. D never
// materializes on its own: link-level callers (Algorithm 1's separation
// tests, scheduling) read O(links²) distances, not the n² a matrix costs;
// callers that read most pairs, many times, call Freeze first.
func (q *QuasiMetric) D(i, j int) float64 {
	if q.materialized.Load() {
		return q.dense[i*q.n+j]
	}
	if i == j {
		return 0
	}
	return math.Pow(q.space.F(i, j), 1/q.zeta)
}

// ensureDense materializes the full quasi-distance matrix once: rows are
// fetched through the batch contract and exponentiated in parallel.
func (q *QuasiMetric) ensureDense() {
	q.denseOnce.Do(func() {
		rs := Rows(q.space)
		n := rs.N()
		inv := 1 / q.zeta
		dense := make([]float64, n*n)
		par.ForChunked(n, func(lo, hi int) {
			buf := make([]float64, n)
			for i := lo; i < hi; i++ {
				rs.Row(i, buf)
				out := dense[i*n : (i+1)*n]
				for j, v := range buf {
					if j == i {
						out[j] = 0
						continue
					}
					out[j] = math.Pow(v, inv)
				}
			}
		})
		q.dense = dense
		q.materialized.Store(true)
	})
}

// PatchedCopy returns a new QuasiMetric at the same exponent over the same
// (since-mutated) space whose materialized distance matrix is copied from
// the receiver with the rows — and, unless rowsOnly, the columns — of the
// given nodes recomputed: the incremental-session repair path when a
// mutation left ζ unchanged. rowsOnly declares that only the nodes' decay
// rows changed (node moves also rewrite columns). When the receiver never
// materialized its matrix, the copy is lazy too (nothing to patch: a later
// materialization reads the mutated space). The receiver is left
// untouched, so snapshots handed to earlier callers stay valid.
func (q *QuasiMetric) PatchedCopy(nodes []int, rowsOnly bool) *QuasiMetric {
	out := &QuasiMetric{space: q.space, zeta: q.zeta, n: q.n}
	if !q.materialized.Load() {
		return out
	}
	dense := append([]float64(nil), q.dense...) // alloc without redundant zeroing
	inv := 1 / q.zeta
	n := q.n
	rs := Rows(q.space)
	buf := make([]float64, n)
	for _, i := range nodes {
		rs.Row(i, buf)
		row := dense[i*n : (i+1)*n]
		for j, v := range buf {
			if j == i {
				row[j] = 0
				continue
			}
			row[j] = math.Pow(v, inv)
		}
		if rowsOnly {
			continue
		}
		for x := 0; x < n; x++ {
			if x == i {
				continue
			}
			dense[x*n+i] = math.Pow(q.space.F(x, i), inv)
		}
	}
	out.dense = dense
	out.denseOnce.Do(func() {}) // the copy is already materialized
	out.materialized.Store(true)
	return out
}

// Freeze materializes the distance matrix now (for spaces within the
// dense bound), after which the structure never reads its source space
// again — the session layer calls it before handing a quasi-metric out of
// its lock, making the returned value a true immutable snapshot across
// later mutations. Spaces beyond maxDenseQuasiNodes stay live-reading
// (per-call Pow over the current decays); a holder of one across
// mutations sees current decays at the frozen exponent.
func (q *QuasiMetric) Freeze() {
	if q.n <= maxDenseQuasiNodes {
		q.ensureDense()
	}
}

// Dense returns the materialized quasi-distance matrix as a row-major
// slice (length N²). The slice is shared — callers must not modify it.
func (q *QuasiMetric) Dense() []float64 {
	q.ensureDense()
	return q.dense
}

// TriangleViolation returns the largest relative violation of the triangle
// inequality d(x,y) ≤ d(x,z) + d(z,y) over all ordered triplets (0 when the
// quasi-metric is valid). Used to verify that ζ was computed correctly.
func (q *QuasiMetric) TriangleViolation() float64 {
	q.ensureDense()
	n := q.N()
	d := q.dense
	worst := 0.0
	for x := 0; x < n; x++ {
		rowX := d[x*n : (x+1)*n]
		for z := 0; z < n; z++ {
			if z == x {
				continue
			}
			dxz := rowX[z]
			rowZ := d[z*n : (z+1)*n]
			for y := 0; y < n; y++ {
				if y == x || y == z {
					continue
				}
				rhs := dxz + rowZ[y]
				if rhs <= 0 {
					continue
				}
				if v := rowX[y]/rhs - 1; v > worst {
					worst = v
				}
			}
		}
	}
	return worst
}

// AsDecaySpace returns the quasi-metric itself as a decay space (decay =
// quasi-distance), which is the form metric-space algorithms consume under
// Proposition 1.
func (q *QuasiMetric) AsDecaySpace() *Matrix {
	q.ensureDense()
	n := q.N()
	m := &Matrix{n: n, f: make([]float64, n*n)}
	copy(m.f, q.dense)
	return m
}
