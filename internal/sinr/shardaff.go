package sinr

import (
	"context"

	"decaynet/internal/shard"
)

// ComputeAffectancesSharded builds the dense affectance matrix through a
// row-range sharding coordinator: the per-link vectors (factor, receiver,
// sender, power) are computed once and shipped to every shard, each worker
// computes a contiguous block of link rows against its replica of the
// decay space, and the blocks assemble into the dense matrix. Each row
// evaluates exactly the expression ComputeAffectances evaluates, so the
// assembled matrix is bit-identical to an unsharded build.
func ComputeAffectancesSharded(ctx context.Context, s *System, p Power, c *shard.Coordinator) (*Affectances, error) {
	n := s.Len()
	a := &Affectances{n: n, raw: make([]float64, n*n)}
	if n == 0 {
		return a, ctx.Err()
	}
	factor, recv := linkVectors(s, p)
	send := make([]int, n)
	for v := range send {
		send[v] = s.links[v].Sender
	}
	err := c.AffectanceBlocks(ctx, n, factor, p, recv, send, func(blk shard.AffectanceBlock) {
		copy(a.raw[blk.Lo*n:], blk.Rows)
	})
	if err != nil {
		return nil, err
	}
	return a, nil
}
