package main

import (
	"context"
	"fmt"
	"math"
	"math/rand/v2"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"decaynet"
	"decaynet/internal/capacity"
	"decaynet/internal/core"
	"decaynet/internal/rng"
	"decaynet/internal/scenario"
	"decaynet/internal/schedule"
	"decaynet/internal/shard"
	"decaynet/internal/shard/remote"
	"decaynet/internal/sinr"
	"decaynet/internal/tier"
)

const (
	sessionNoise = 1e-9
	// scanTol is the ζ bisection tolerance the Engine gives its exact and
	// remote scans.
	scanTol = 1e-12
	// approxSeed is the seed the Engine gives its sampled ζ estimator (ϕ
	// uses approxSeed+1). The traced urban-city path calls the estimators
	// directly and must reproduce the Engine's output digests.
	approxSeed = 0xdeca95eed
	tierK      = 32
)

// closedWorkload is one closed-loop, single-client workload: a cold session
// per seed, run back to back.
type closedWorkload struct {
	name string
	// pool is the fixed session-seed list; expected digests exist for
	// every entry. A run walks a seed-derived permutation of it, cyclically.
	pool []uint64
	// cfg is the scenario config of a session (warm = the set-up warm-up
	// session, a smaller instance through the same code path).
	cfg func(seed uint64, warm bool) scenario.Config
	// tiered sessions use model-tail tiered storage; remote ones fan out
	// to two loopback workers; approx > 0 routes ζ/ϕ to the sampled
	// estimators at or above that node count.
	tiered bool
	remote bool
	approx int
}

const remoteWorkers = 2

var (
	exactDense = &closedWorkload{
		name: "exact-dense",
		pool: seedRange(1, 8),
		cfg:  denseConfig,
	}
	urbanCity = &closedWorkload{
		name:   "urban-city",
		pool:   seedRange(1, 3),
		tiered: true,
		approx: 8192,
		cfg: func(seed uint64, warm bool) scenario.Config {
			// The city profile of the n=10⁵ acceptance wall (σ = 2 dB,
			// corner = 6 dB) at that wall's node density.
			c := scenario.Config{Nodes: 16384, Links: 1024, Side: 4150, SigmaDB: 2, Seed: seed,
				Params: map[string]float64{"corner": 6}}
			if warm {
				c.Nodes, c.Links, c.Side = 1024, 256, 1037.5
			}
			return c
		},
	}
	remoteTiered = &closedWorkload{
		name:   "remote-tiered",
		pool:   seedRange(1, 8),
		tiered: true,
		remote: true,
		cfg:    denseConfig,
	}
)

func denseConfig(seed uint64, warm bool) scenario.Config {
	c := scenario.Config{Nodes: 1024, Links: 256, Side: 1024, Seed: seed}
	if warm {
		c.Nodes, c.Links, c.Side = 512, 128, 724
	}
	return c
}

func seedRange(lo, hi uint64) []uint64 {
	var s []uint64
	for v := lo; v <= hi; v++ {
		s = append(s, v)
	}
	return s
}

// warmSeed is the scenario seed of set-up warm-up sessions, outside every
// pool.
const warmSeed = 1000

// approxAt is the sampled-estimator threshold for a session of n nodes:
// warm-up sessions are below the workload's threshold but must take the
// same route.
func (w *closedWorkload) approxAt(n int) int {
	if w.approx == 0 {
		return 0
	}
	return min(w.approx, n)
}

// remoteRig runs in-process remote.Serve workers on loopback listeners
// and counts the bytes crossing them.
type remoteRig struct {
	addrs  []string
	toWkr  atomic.Int64 // bytes coordinators sent to workers
	fromWk atomic.Int64 // bytes workers sent back
	cancel context.CancelFunc
	wg     sync.WaitGroup
}

func startRemote(n int) (*remoteRig, error) {
	ctx, cancel := context.WithCancel(context.Background())
	r := &remoteRig{cancel: cancel}
	for i := 0; i < n; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			r.stop()
			return nil, err
		}
		r.addrs = append(r.addrs, ln.Addr().String())
		r.wg.Add(1)
		go func() {
			defer r.wg.Done()
			remote.Serve(ctx, &countingListener{Listener: ln, in: &r.toWkr, out: &r.fromWk}, remote.ServerOptions{})
		}()
	}
	return r, nil
}

// stop cancels every worker and waits for them (and their connections)
// to end.
func (r *remoteRig) stop() {
	r.cancel()
	r.wg.Wait()
}

// countingListener counts bytes read from (in) and written to (out) every
// accepted connection.
type countingListener struct {
	net.Listener
	in, out *atomic.Int64
}

func (l *countingListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return &countingConn{Conn: c, in: l.in, out: l.out}, nil
}

type countingConn struct {
	net.Conn
	in, out *atomic.Int64
}

func (c *countingConn) Read(b []byte) (int, error) {
	n, err := c.Conn.Read(b)
	c.in.Add(int64(n))
	return n, err
}

func (c *countingConn) Write(b []byte) (int, error) {
	n, err := c.Conn.Write(b)
	c.out.Add(int64(n))
	return n, err
}

// engineOptions are the public-API options of a session.
func (w *closedWorkload) engineOptions(cfg scenario.Config, rig *remoteRig) []decaynet.EngineOption {
	opts := []decaynet.EngineOption{decaynet.UsingScenario("urban", cfg), decaynet.Noise(sessionNoise)}
	if w.tiered {
		opts = append(opts, decaynet.WithTieredStorage(decaynet.TierOptions{
			Config: decaynet.TierConfig{K: tierK, Tail: decaynet.TailModel}}))
	}
	if t := w.approxAt(cfg.Nodes); t > 0 {
		opts = append(opts, decaynet.WithApproxMetricity(t, 4096))
	}
	if w.remote {
		opts = append(opts, decaynet.WithRemoteWorkers(rig.addrs...))
	}
	return opts
}

// callNames label runSession's timed calls, in order.
var callNames = []string{"NewEngine", "ZetaCtx", "PhiCtx", "AffectancesCtx", "CapacityCtx", "ScheduleCtx", "ValidateSchedule", "Close"}

// runSession is the untraced session: the public Engine pipeline, each
// call timed. It returns the session output and the per-call latencies in
// seconds (in callNames order).
func (w *closedWorkload) runSession(ctx context.Context, cfg scenario.Config, rig *remoteRig) (sessionOutput, []float64, error) {
	var (
		out   sessionOutput
		calls []float64
		eng   *decaynet.Engine
		p     decaynet.Power
	)
	step := func(fn func() error) error {
		t0 := time.Now()
		err := fn()
		calls = append(calls, time.Since(t0).Seconds())
		return err
	}
	err := step(func() (err error) { eng, err = decaynet.NewEngine(w.engineOptions(cfg, rig)...); return })
	if err != nil {
		return out, calls, err
	}
	defer eng.Close()
	steps := []func() error{
		func() (err error) { out.Zeta, err = eng.ZetaCtx(ctx); return },
		func() (err error) { out.Phi, err = eng.PhiCtx(ctx); return },
		func() (err error) { p = eng.LinearPower(1); _, err = eng.AffectancesCtx(ctx, p); return },
		func() (err error) { out.Capacity, err = eng.CapacityCtx(ctx, p, nil); return },
		func() (err error) { out.Slots, err = eng.ScheduleCtx(ctx, p, nil); return },
		func() error { return eng.ValidateSchedule(p, nil, out.Slots) },
		eng.Close,
	}
	for _, s := range steps {
		if err := step(s); err != nil {
			return out, calls, err
		}
	}
	return out, calls, nil
}

// layerSample holds one traced session's per-layer counters.
type layerSample struct {
	triplets float64
	tier     tier.Accounting
	retries  float64
	bytesOut float64
	bytesIn  float64
	pairNs   float64
}

// runTracedSession reproduces runSession through the layers' exported
// functions, one span per layer call, so that a call spanning several
// layers in the Engine (NewEngine = scenario build + dense/tier build +
// replica + Sync) is split at the layer boundaries.
func (w *closedWorkload) runTracedSession(ctx context.Context, cfg scenario.Config, rig *remoteRig, tr *tracer, sid int) (sessionOutput, layerSample, error) {
	var (
		out  sessionOutput
		ls   layerSample
		inst *scenario.Instance
	)
	var to0, from0 int64
	if rig != nil {
		to0, from0 = rig.toWkr.Load(), rig.fromWk.Load()
	}

	root := tr.begin("session", 0, sid)
	do := func(name string, fn func() error) error { return tr.do(name, root, sid, fn) }
	err := do("scenario.build", func() (err error) { inst, err = scenario.Build("urban", cfg); return })
	if err == nil {
		if w.tiered {
			err = w.tracedTiered(ctx, cfg, inst, rig, do, &out, &ls)
		} else {
			err = tracedDense(ctx, inst, do, &out)
		}
	}
	tr.end(root)
	if err != nil {
		return out, ls, err
	}

	if rig != nil {
		ls.bytesOut = float64(rig.toWkr.Load() - to0)
		ls.bytesIn = float64(rig.fromWk.Load() - from0)
	}
	ls.pairNs = pairSweepNs(inst.Space)
	return out, ls, nil
}

// tracedDense is the exact dense pipeline: the dense materialization is
// its own span, then the Engine's public calls over the matrix.
func tracedDense(ctx context.Context, inst *scenario.Instance, do func(string, func() error) error, out *sessionOutput) error {
	var (
		dense *core.Matrix
		eng   *decaynet.Engine
		p     decaynet.Power
	)
	steps := []struct {
		name string
		fn   func() error
	}{
		{"core.dense", func() error { dense = core.Dense(inst.Space); return nil }},
		{"decaynet.new_engine", func() (err error) {
			eng, err = decaynet.NewEngine(decaynet.UsingSpace(dense), decaynet.UsingLinks(inst.Links...), decaynet.Noise(sessionNoise))
			return
		}},
		{"core.zeta", func() (err error) { out.Zeta, err = eng.ZetaCtx(ctx); return }},
		{"core.phi", func() (err error) { out.Phi, err = eng.PhiCtx(ctx); return }},
		{"sinr.affectance", func() (err error) { p = eng.LinearPower(1); _, err = eng.AffectancesCtx(ctx, p); return }},
		{"capacity.algorithm1", func() (err error) { out.Capacity, err = eng.CapacityCtx(ctx, p, nil); return }},
		{"schedule.by_capacity", func() (err error) { out.Slots, err = eng.ScheduleCtx(ctx, p, nil); return }},
		{"sinr.validate", func() error { return eng.ValidateSchedule(p, nil, out.Slots) }},
	}
	for _, s := range steps {
		if err := do(s.name, s.fn); err != nil {
			return err
		}
	}
	return nil
}

// tracedTiered is the tiered pipeline below the Engine: tier build, then
// either the sampled estimators (urban-city) or the remote replica, pool
// and coordinator (remote-tiered), then the SINR layers over a System
// wired the way the Engine wires it.
func (w *closedWorkload) tracedTiered(ctx context.Context, cfg scenario.Config, inst *scenario.Instance, rig *remoteRig,
	do func(string, func() error) error, out *sessionOutput, ls *layerSample) error {
	var ts *tier.Space
	err := do("tier.build", func() (err error) {
		ts, err = tier.Build(inst.Space, tier.Options{Config: tier.Config{K: tierK, Tail: tier.TailModel}, Points: inst.Points})
		return
	})
	if err != nil {
		return err
	}
	ls.tier = ts.Accounting()

	var (
		sys   *sinr.System
		coord *shard.Coordinator
		pool  *remote.Pool
	)
	sysOpts := []sinr.Option{sinr.WithBeta(1), sinr.WithNoise(sessionNoise)}
	if samples := 4096; w.approxAt(cfg.Nodes) > 0 {
		var zest, pest core.SampledEstimate
		err = do("core.zeta_sampled", func() (err error) {
			zest, err = core.ZetaSampledEstimateCtx(ctx, ts, samples, rng.New(approxSeed))
			if err != nil {
				return err
			}
			sys, err = sinr.NewSystem(ts, inst.Links, append(sysOpts, sinr.WithZetaCtxFunc(func(context.Context) (float64, error) {
				return zest.Value, nil
			}))...)
			if err != nil {
				return err
			}
			out.Zeta, err = sys.ZetaCtx(ctx)
			return err
		})
		if err != nil {
			return err
		}
		err = do("core.phi_sampled", func() (err error) {
			pest, err = core.VarphiSampledEstimateCtx(ctx, ts, samples, rng.New(approxSeed+1))
			out.Phi = math.Log2(pest.Value)
			return err
		})
		if err != nil {
			return err
		}
		ls.triplets = float64(zest.Evaluated + pest.Evaluated)
	} else {
		var rep *shard.Replica
		steps := []struct {
			name string
			fn   func() error
		}{
			{"shard.replica", func() (err error) { rep, err = shard.NewStreamedReplica(ctx, ts, scanTol, 0, 0); return }},
			{"remote.sync", func() (err error) { pool, err = remote.NewTieredPool(remote.PoolConfig{Addrs: rig.addrs}, rep); return }},
			{"shard.coordinator", func() (err error) {
				coord, err = shard.NewWithWorkers(pool.Replica(), pool.Workers())
				if err != nil {
					return err
				}
				sys, err = sinr.NewSystem(ts, inst.Links, append(sysOpts,
					sinr.WithZetaCtxFunc(coord.Zeta),
					sinr.WithAffectanceCtxFunc(func(ctx context.Context, s *sinr.System, p sinr.Power) (*sinr.Affectances, error) {
						return sinr.ComputeAffectancesSharded(ctx, s, p, coord)
					}))...)
				return err
			}},
			{"remote.zeta", func() (err error) { out.Zeta, err = sys.ZetaCtx(ctx); return }},
			{"remote.phi", func() error {
				v, err := coord.Varphi(ctx)
				out.Phi = math.Log2(v)
				return err
			}},
		}
		for _, s := range steps {
			if err := do(s.name, s.fn); err != nil {
				if pool != nil {
					pool.Close()
				}
				return err
			}
		}
	}

	all := capacity.AllLinks(sys)
	var p sinr.Power
	steps := []struct {
		name string
		fn   func() error
	}{
		{"sinr.affectance", func() (err error) { p = sinr.LinearPower(sys, 1); _, err = sys.AffectancesCtx(ctx, p); return }},
		{"capacity.algorithm1", func() (err error) { out.Capacity, err = capacity.Algorithm1Ctx(ctx, sys, p, all); return }},
		{"schedule.by_capacity", func() (err error) {
			out.Slots, err = schedule.ByCapacityCtx(ctx, sys, p, all, capacity.Algorithm1)
			return
		}},
		{"sinr.validate", func() error { return schedule.Validate(sys, p, all, out.Slots) }},
	}
	for _, s := range steps {
		if err = do(s.name, s.fn); err != nil {
			break
		}
	}
	if pool != nil {
		st := pool.Stats()
		ls.retries = float64(st.Deaths + st.Revivals + st.Resyncs + st.Reassigned + st.LocalFallbacks)
		if cerr := do("remote.close", pool.Close); err == nil {
			err = cerr
		}
	}
	return err
}

// pairSweepRows is the fixed row sample of the scenario pair-cost probe.
const pairSweepRows = 16

// pairSweepNs times Row over a fixed, evenly spaced row sample of the
// scenario's lazy space and returns nanoseconds per decay evaluated.
func pairSweepNs(sp core.Space) float64 {
	rs, ok := sp.(core.RowSpace)
	if !ok {
		return 0
	}
	n := sp.N()
	dst := make([]float64, n)
	t0 := time.Now()
	for k := 0; k < pairSweepRows; k++ {
		rs.Row(k*n/pairSweepRows, dst)
	}
	return float64(time.Since(t0).Nanoseconds()) / float64(pairSweepRows*n)
}

// loop adapts the workload to the closed-loop runner. Remote workloads
// start their loopback workers in set-up; the sessions of the measured
// phase use the last set-up's workers.
func (w *closedWorkload) loop() *closedLoop {
	var rig *remoteRig
	return &closedLoop{
		name: w.name,
		pool: w.pool,
		setUp: func(ctx context.Context, _ runOpts) (func(), error) {
			rig = nil
			if w.remote {
				r, err := startRemote(remoteWorkers)
				if err != nil {
					return nil, err
				}
				rig = r
			}
			stop := func() {}
			if rig != nil {
				stop = rig.stop
			}
			if _, _, err := w.runSession(ctx, w.cfg(warmSeed, true), rig); err != nil {
				stop()
				return nil, fmt.Errorf("warm-up session: %w", err)
			}
			return stop, nil
		},
		session: func(ctx context.Context, seed uint64, tr *tracer, sid int) (sessionResult, error) {
			cfg := w.cfg(seed, false)
			if tr != nil {
				out, ls, err := w.runTracedSession(ctx, cfg, rig, tr, sid)
				return sessionResult{out: out, layers: ls}, err
			}
			out, calls, err := w.runSession(ctx, cfg, rig)
			return sessionResult{out: out, calls: calls}, err
		},
		layers: func(rep *report, _ []span, traced []sessionResult, outs []sessionOutput) {
			closedLayerCounters(rep, traced, outs, w.cfg(0, false).Links)
		},
	}
}

// seedOrder is a run's walk over a session-seed pool: a permutation
// derived from the workload seed.
func seedOrder(pool []uint64, seed uint64) []uint64 {
	perm := append([]uint64(nil), pool...)
	src := rand.New(rand.NewPCG(seed, 0x5e55_1015))
	src.Shuffle(len(perm), func(i, j int) { perm[i], perm[j] = perm[j], perm[i] })
	return perm
}
