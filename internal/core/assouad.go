package core

import (
	"math"
	"sort"
)

// AssouadOptions controls the packing-profile estimators. Zero values select
// sensible defaults.
type AssouadOptions struct {
	// Qs are the scale ratios q at which the packing profile g(q) is probed.
	// Default: {2, 4, 8, 16}.
	Qs []float64
	// MaxRadii caps how many distinct ball radii are probed per center
	// (radii are decay values to the center; subsampled evenly when more).
	// Default: 32.
	MaxRadii int
	// ExactLimit is the ball size up to which packing numbers are computed
	// exactly rather than greedily. Default: 22.
	ExactLimit int
	// C, when positive, selects the paper-literal estimate
	// max_q log_q(g(q)/C) with that constant. When zero (the default),
	// AssouadDimension instead fits the power law g(q) ≈ C·q^A across the
	// probed scales and reports the exponent A — the constant is absorbed
	// by the fit rather than assumed.
	C float64
}

func (o AssouadOptions) withDefaults() AssouadOptions {
	if len(o.Qs) == 0 {
		o.Qs = []float64{2, 4, 8, 16, 32}
	}
	if o.MaxRadii <= 0 {
		o.MaxRadii = 32
	}
	if o.ExactLimit <= 0 {
		o.ExactLimit = 22
	}
	return o
}

// PackingProfile estimates g_D(q) of Def 3.2: the largest (r/q)-packing that
// fits into any ball B(x, r), maximized over centers x and radii r. Radii
// are probed at the decay values observed towards each center (the profile
// is piecewise constant between them). The result is a lower-bound
// estimator of the true profile; on the spaces with known structure used in
// tests it is exact for small n.
func PackingProfile(d Space, q float64, opts AssouadOptions) int {
	opts = opts.withDefaults()
	n := d.N()
	best := 0
	for x := 0; x < n; x++ {
		radii := radiiTowards(d, x, opts.MaxRadii)
		for _, r := range radii {
			ball := Ball(d, x, r)
			if len(ball) <= best {
				continue // cannot beat current best
			}
			p := PackingNumber(d, ball, r/q, opts.ExactLimit)
			if p > best {
				best = p
			}
		}
	}
	return best
}

// radiiTowards returns up to maxRadii ball radii that realize distinct balls
// around center x: just above each distinct decay value into x.
func radiiTowards(d Space, x int, maxRadii int) []float64 {
	n := d.N()
	vals := make([]float64, 0, n-1)
	for y := 0; y < n; y++ {
		if y != x {
			vals = append(vals, d.F(y, x))
		}
	}
	sort.Float64s(vals)
	// Deduplicate.
	uniq := vals[:0]
	for i, v := range vals {
		if i == 0 || v != vals[i-1] {
			uniq = append(uniq, v)
		}
	}
	// Nudge above each value so the (strict) ball includes it.
	out := make([]float64, 0, len(uniq))
	for _, v := range uniq {
		out = append(out, v*(1+1e-9)+1e-300)
	}
	if len(out) <= maxRadii {
		return out
	}
	// Evenly subsample, always keeping the largest radius.
	sampled := make([]float64, 0, maxRadii)
	step := float64(len(out)-1) / float64(maxRadii-1)
	for i := 0; i < maxRadii; i++ {
		sampled = append(sampled, out[int(math.Round(float64(i)*step))])
	}
	return sampled
}

// AssouadDimension estimates the Assouad dimension of Def 3.2,
//
//	A(D) = max_q log_q( g(q) / C ),
//
// A decay space is a *fading space* when A < 1 (Def 3.3). For geometric
// decay f = d^α on the plane, A = 2/α, so fading ⇔ α > 2 — recovering the
// fading-metrics condition.
//
// When opts.C > 0 the paper-literal maximum above is evaluated with that
// constant (clamped at 0). By default (C == 0) the constant is not assumed:
// the packing profile g(q) is measured at each probed scale and the power
// law g(q) ≈ C·q^A is fitted in log-log space, reporting the exponent.
func AssouadDimension(d Space, opts AssouadOptions) float64 {
	opts = opts.withDefaults()
	if opts.C > 0 {
		best := 0.0
		for _, q := range opts.Qs {
			if q <= 1 {
				continue
			}
			g := PackingProfile(d, q, opts)
			if g <= 0 {
				continue
			}
			if a := math.Log(float64(g)/opts.C) / math.Log(q); a > best {
				best = a
			}
		}
		return best
	}
	var lq, lg []float64
	for _, q := range opts.Qs {
		if q <= 1 {
			continue
		}
		g := PackingProfile(d, q, opts)
		if g <= 0 {
			continue
		}
		lq = append(lq, math.Log(q))
		lg = append(lg, math.Log(float64(g)))
	}
	if len(lq) < 2 {
		return 0
	}
	// Least-squares slope of log g(q) on log q.
	mq, mg := mean(lq), mean(lg)
	var sxx, sxy float64
	for i := range lq {
		dx := lq[i] - mq
		sxx += dx * dx
		sxy += dx * (lg[i] - mg)
	}
	if sxx == 0 {
		return 0
	}
	slope := sxy / sxx
	if slope < 0 {
		return 0
	}
	return slope
}

func mean(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// IsFadingSpace reports whether the estimated Assouad dimension (with
// constant C) is strictly below 1.
func IsFadingSpace(d Space, opts AssouadOptions) bool {
	return AssouadDimension(d, opts) < 1
}

// DoublingConstant estimates the doubling constant of a quasi-metric: the
// maximum over centers x and radii r of the number of radius-(r/2) balls
// needed to cover the quasi-distance ball of radius r around x, via a
// greedy cover. The doubling dimension is lg of the constant.
func DoublingConstant(q *QuasiMetric, maxRadii int) int {
	if maxRadii <= 0 {
		maxRadii = 32
	}
	q.Freeze() // every distance is read many times
	n := q.N()
	worst := 1
	for x := 0; x < n; x++ {
		// Distinct quasi-distances to x as candidate radii.
		vals := make([]float64, 0, n-1)
		for y := 0; y < n; y++ {
			if y != x {
				vals = append(vals, q.D(y, x))
			}
		}
		sort.Float64s(vals)
		step := 1
		if len(vals) > maxRadii {
			step = len(vals) / maxRadii
		}
		for i := 0; i < len(vals); i += step {
			r := vals[i] * (1 + 1e-9)
			// Quasi-distance ball: members within r of x.
			var ball []int
			for y := 0; y < n; y++ {
				if q.D(y, x) <= r {
					ball = append(ball, y)
				}
			}
			c := greedyCoverCount(q, ball, r/2)
			if c > worst {
				worst = c
			}
		}
	}
	return worst
}

// greedyCoverCount covers the node set with balls of radius rHalf centered
// at member nodes, greedily choosing the center covering the most uncovered
// members.
func greedyCoverCount(q *QuasiMetric, set []int, rHalf float64) int {
	uncovered := make(map[int]bool, len(set))
	for _, v := range set {
		uncovered[v] = true
	}
	count := 0
	for len(uncovered) > 0 {
		bestCenter, bestGain := -1, -1
		for _, c := range set {
			gain := 0
			for v := range uncovered {
				if q.D(v, c) <= rHalf {
					gain++
				}
			}
			if gain > bestGain {
				bestCenter, bestGain = c, gain
			}
		}
		if bestGain <= 0 {
			// Isolated leftovers each need their own ball.
			count += len(uncovered)
			break
		}
		for v := range uncovered {
			if q.D(v, bestCenter) <= rHalf {
				delete(uncovered, v)
			}
		}
		count++
	}
	return count
}

// DoublingDimension returns lg of the estimated doubling constant of the
// quasi-metric (the A′ parameter of Lemmas B.3 and 4.1).
func DoublingDimension(q *QuasiMetric, maxRadii int) float64 {
	return math.Log2(float64(DoublingConstant(q, maxRadii)))
}
