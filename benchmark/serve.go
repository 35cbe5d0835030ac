package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand/v2"
	"net"
	"net/http"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"decaynet"
	"decaynet/internal/core"
	"decaynet/internal/scenario"
	"decaynet/internal/server"
)

// The serve-churn workload: decaynetd's HTTP surface under an open-loop
// Poisson request stream. A pool of tracked sessions takes re-measurement
// edits (office) and churn batches (churn) beside ζ/ϕ, capacity and
// schedule reads, small create→ζ→schedule→delete lifecycles and rare
// short simulations.
const (
	officeSessions = 3
	officeLinks    = 128
	churnSessions  = 3
	churnLinks     = 256
	lifeLinks      = 16
	// lifeSeeds is how many distinct small offices lifecycles create.
	lifeSeeds = 8
	// churnStreamLen per churn session is more than the highest ladder rate
	// can consume in one run.
	churnStreamLen = 1500
	// maxConns is the client's keep-alive connection cap.
	maxConns = 2

	// refRate is the reference rate req_p50_ms and req_p99_ms are
	// measured at; refShare of the measuring time goes to it.
	refRate  = 150.0
	refShare = 0.5
	// The ladder starts one ladderStep above refRate and multiplies by
	// ladderStep until a step fails, then bisects between the last pass
	// and the first failure while the measuring time lasts. Each step runs
	// stepDur. Its goodput is the requests it completed within the step
	// per second: the offered rate while the server keeps up, less when a
	// backlog grows. A step passes when no request failed, its p99
	// latency from due time is at most p99Limit and its goodput is at
	// least keepUp of the offered rate. max_rps is the highest goodput of
	// a passing step.
	ladderStep = 1.5
	stepDur    = 1500 * time.Millisecond
	p99Limit   = 500 * time.Millisecond
	keepUp     = 0.9
	// drainLimit bounds how long a step may take to finish its queue.
	drainLimit = 2 * time.Second
)

// Request ops. opDeck is the mix: each phase deals ops from shuffled
// decks holding exactly these counts, so every phase carries the mix
// exactly.
const (
	opMutate = iota
	opZeta
	opPhi
	opCapacity
	opSchedule
	opLifecycle
	opSimulate
	nOps
)

var opNames = [nOps]string{"mutate", "zeta", "phi", "capacity", "schedule", "lifecycle", "simulate"}

var opDeck = [nOps]int{opMutate: 22, opZeta: 25, opPhi: 20, opCapacity: 15, opSchedule: 10, opLifecycle: 6, opSimulate: 2}

// pooled is one pool session and the benchmark's record of what it has
// applied to it.
type pooled struct {
	scenario string
	cfg      server.ScenarioParams
	id       string
	// n and decays are the office session's current decay matrix, edited
	// only by the benchmark's own successful batches.
	n      int
	decays []float64
	// batches is a churn session's stream; next is the next batch to send.
	batches []scenario.Mutation
	next    int
	// applied lists every batch the server acknowledged, in order.
	applied []scenario.Mutation
	links   int
}

// serveRig is the running server, its client and the session pool.
type serveRig struct {
	srv     *http.Server
	done    chan struct{}
	base    string
	client  *http.Client
	rx, tx  atomic.Int64 // bytes the server read and wrote
	httpReq atomic.Int64
	pool    []*pooled
	seed    uint64
	// Traced runs only: the tracer (nil while spans are off) and the
	// timing decorator's per-queue state.
	tr    atomic.Pointer[tracer]
	slots []*slot
	// creating is the queue whose create request is in flight (creates
	// are serialized: set-up is sequential and only the lifecycle queue
	// creates afterwards).
	creating atomic.Int64
	// requestIDs numbers traced open-loop requests (their span session id).
	requestIDs atomic.Int64
	// heap, while measuring, takes one live-heap peak per phase.
	heap *heapWatch
}

// slot ties a queue to the span its in-flight request is in, so the
// session decorator can parent the spans of the calls it times.
type slot struct {
	cur     atomic.Int64 // current server.request span id
	session atomic.Int64 // root span's session id
}

// startServe starts the server on a loopback listener and creates the
// pool. A traced rig serves through server.New with the timing session
// decorator; its spans stay off until setTracer.
func startServe(seed uint64, traced bool, prepared []*pooled) (*serveRig, error) {
	r := &serveRig{seed: seed, done: make(chan struct{})}
	var h http.Handler
	if !traced {
		s, err := decaynet.NewServer(decaynet.ServeConfig{})
		if err != nil {
			return nil, err
		}
		h = s
	} else {
		for i := 0; i <= officeSessions+churnSessions; i++ {
			r.slots = append(r.slots, &slot{})
		}
		s, err := server.New(server.Config{Build: r.buildTracedSession})
		if err != nil {
			return nil, err
		}
		h = s
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	r.base = "http://" + ln.Addr().String()
	r.srv = &http.Server{Handler: h}
	go func() {
		defer close(r.done)
		r.srv.Serve(&countingListener{Listener: ln, in: &r.rx, out: &r.tx})
	}()
	r.client = &http.Client{Transport: &http.Transport{
		MaxConnsPerHost:     maxConns,
		MaxIdleConnsPerHost: maxConns,
		DisableCompression:  true,
	}}
	if err := r.createPool(prepared); err != nil {
		r.stop()
		return nil, err
	}
	return r, nil
}

// stop closes the server and its connections and waits for Serve to
// return. Handlers still running finish on their own goroutines; callers
// stop only after their requests completed.
func (r *serveRig) stop() {
	r.srv.Close()
	<-r.done
	r.client.CloseIdleConnections()
}

// newPool prepares the benchmark's records of the pool sessions: the
// office sessions' decay matrices and the churn sessions' batch streams.
// The pool's instances are fixed; the workload seed drives the request
// stream.
func newPool() ([]*pooled, error) {
	var pool []*pooled
	for i := 0; i < officeSessions+churnSessions; i++ {
		p := &pooled{scenario: "office", cfg: server.ScenarioParams{Links: officeLinks, Seed: uint64(i) + 1}}
		if i >= officeSessions {
			p.scenario = "churn"
			p.cfg = server.ScenarioParams{Links: churnLinks, Seed: uint64(i) + 1}
		}
		if p.scenario == "office" {
			inst, err := scenario.Build("office", p.cfg.ScenarioConfig())
			if err != nil {
				return nil, err
			}
			m := core.Dense(inst.Space)
			p.n = m.N()
			p.decays = make([]float64, p.n*p.n)
			for a := 0; a < p.n; a++ {
				m.Row(a, p.decays[a*p.n:(a+1)*p.n])
			}
			p.links = len(inst.Links)
		} else {
			var err error
			if p.batches, err = decaynet.ChurnStream(p.cfg.ScenarioConfig(), churnStreamLen); err != nil {
				return nil, err
			}
			p.links = churnLinks
		}
		pool = append(pool, p)
	}
	return pool, nil
}

// clone copies the records so a set-up repetition starts from the
// prepared state.
func (p *pooled) clone() *pooled {
	c := *p
	c.decays = append([]float64(nil), p.decays...)
	c.applied = nil
	return &c
}

// createPool creates the pool sessions on the server and warms them (ζ,
// ϕ, capacity and schedule computed once, so the measured phases see
// tracked sessions).
func (r *serveRig) createPool(prepared []*pooled) error {
	for i, pp := range prepared {
		p := pp.clone()
		r.creating.Store(int64(i))
		var info server.SessionInfo
		if err := r.do("POST", "/v1/sessions", server.CreateRequest{Scenario: p.scenario, Config: p.cfg, Tracking: true}, &info, i); err != nil {
			return fmt.Errorf("create %s session: %w", p.scenario, err)
		}
		p.id = info.ID
		for _, q := range []string{"/zeta", "/phi", "/capacity?power=linear", "/schedule?power=linear"} {
			if err := r.do("GET", "/v1/sessions/"+p.id+q, nil, nil, i); err != nil {
				return fmt.Errorf("warm %s session: %w", p.scenario, err)
			}
		}
		r.pool = append(r.pool, p)
	}
	return nil
}

// do sends one request and decodes a 2xx JSON answer into out (when
// non-nil). Any other status is an error. In traced runs the request,
// from encoding its body to decoding the answer, is a server.request span
// under queue q's current request.
func (r *serveRig) do(method, path string, body, out any, q int) error {
	if tr := r.tracer(); tr != nil {
		s := r.slots[q]
		sp := tr.begin("server.request", int(s.cur.Load()), int(s.session.Load()))
		prev := s.cur.Swap(int64(sp))
		defer func() { tr.end(sp); s.cur.Store(prev) }()
	}
	var rd io.Reader
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			return err
		}
		rd = bytes.NewReader(b)
	}
	req, err := http.NewRequest(method, r.base+path, rd)
	if err != nil {
		return err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	r.httpReq.Add(1)
	resp, err := r.client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode/100 != 2 {
		return fmt.Errorf("%s %s: %d %s", method, path, resp.StatusCode, bytes.TrimSpace(data))
	}
	if out != nil {
		return json.Unmarshal(data, out)
	}
	return nil
}

// exec performs one planned request; q is its queue.
func (r *serveRig) exec(a arrival, st *serveStats) bool {
	if a.Op == opLifecycle {
		err := r.lifecycle(a)
		if err != nil {
			st.fail(err)
		}
		return err == nil
	}
	p := r.pool[a.Queue]
	path := "/v1/sessions/" + p.id
	var err error
	switch a.Op {
	case opMutate:
		err = r.mutate(p, a)
	case opZeta:
		err = r.do("GET", path+"/zeta", nil, nil, a.Queue)
	case opPhi:
		err = r.do("GET", path+"/phi", nil, nil, a.Queue)
	case opCapacity:
		var res struct{ Size int }
		if err = r.do("GET", path+"/capacity?power=linear", nil, &res, a.Queue); err == nil {
			st.add(&st.chosen, float64(res.Size)/float64(p.links))
		}
	case opSchedule:
		var res struct{ Slots [][]int }
		if err = r.do("GET", path+"/schedule?power=linear", nil, &res, a.Queue); err == nil {
			st.add(&st.slots, float64(len(res.Slots)))
		}
	case opSimulate:
		spec := fmt.Sprintf(`{"horizon":0.02,"seed":%d,"classes":[{"arrival":{"dist":"poisson","rate":500}}]}`, a.R%1000+1)
		err = r.do("POST", path+"/simulate", json.RawMessage(spec), nil, a.Queue)
	}
	if err != nil {
		st.fail(err)
	}
	return err == nil
}

// lifecycleSteps is how many HTTP requests one lifecycle makes.
const lifecycleSteps = 4

// lifecycle creates a small office session, reads ζ and a schedule, and
// deletes it.
func (r *serveRig) lifecycle(a arrival) error {
	q := len(r.pool)
	r.creating.Store(int64(q))
	var info server.SessionInfo
	req := server.CreateRequest{Scenario: "office", Config: server.ScenarioParams{Links: lifeLinks, Seed: a.R%lifeSeeds + 1}, Tracking: true}
	if err := r.do("POST", "/v1/sessions", req, &info, q); err != nil {
		return err
	}
	path := "/v1/sessions/" + info.ID
	err := r.do("GET", path+"/zeta", nil, nil, q)
	if err == nil {
		err = r.do("GET", path+"/schedule?power=linear", nil, nil, q)
	}
	if derr := r.do("DELETE", path, nil, nil, q); err == nil {
		err = derr
	}
	return err
}

// remeasureSigma is the log-scale spread of a re-measurement factor; the
// factor is bounded to exp(±2σ) so an edit never makes a link infeasible
// on its own.
const remeasureSigma = 0.1

func remeasure(r *rand.Rand) float64 {
	z := max(-2, min(2, r.NormFloat64()))
	return math.Exp(remeasureSigma * z)
}

// mutate sends p's next batch: an office re-measurement (four single
// decays, or one whole row) scaled from the current decays, or the churn
// session's next stream batch. Acknowledged batches are recorded for the
// mirror.
func (r *serveRig) mutate(p *pooled, a arrival) error {
	var (
		m   scenario.Mutation
		req server.MutationRequest
	)
	rr := rand.New(rand.NewPCG(a.R, 0x3ea5))
	switch {
	case p.scenario == "churn":
		if p.next >= len(p.batches) {
			return errors.New("churn stream exhausted")
		}
		m = p.batches[p.next]
		req = wireMutation(m)
	case rr.Float64() < 0.7:
		for k := 0; k < 4; k++ {
			i := rr.IntN(p.n)
			j := (i + 1 + rr.IntN(p.n-1)) % p.n
			f := p.decays[i*p.n+j] * remeasure(rr)
			m.SetDecays = append(m.SetDecays, scenario.DecayEdit{I: i, J: j, F: f})
			req.SetDecays = append(req.SetDecays, server.DecayEditSpec{I: i, J: j, F: f})
		}
	default:
		i := rr.IntN(p.n)
		row := make([]float64, p.n)
		for j := range row {
			if j != i {
				row[j] = p.decays[i*p.n+j] * remeasure(rr)
			}
		}
		m.SetRows = map[int][]float64{i: row}
		req.SetRows = []server.RowEdit{{Row: i, Values: row}}
	}
	if err := r.do("POST", "/v1/sessions/"+p.id+"/mutations", req, nil, a.Queue); err != nil {
		return err
	}
	p.applied = append(p.applied, m)
	if p.scenario == "churn" {
		p.next++
		return nil
	}
	for _, ed := range m.SetDecays {
		p.decays[ed.I*p.n+ed.J] = ed.F
	}
	for i, row := range m.SetRows {
		copy(p.decays[i*p.n:(i+1)*p.n], row)
	}
	return nil
}

func wireMutation(m scenario.Mutation) server.MutationRequest {
	var req server.MutationRequest
	for i, row := range m.SetRows {
		req.SetRows = append(req.SetRows, server.RowEdit{Row: i, Values: row})
	}
	for _, ed := range m.SetDecays {
		req.SetDecays = append(req.SetDecays, server.DecayEditSpec{I: ed.I, J: ed.J, F: ed.F})
	}
	for _, mv := range m.Moves {
		req.Moves = append(req.Moves, server.NodeMoveSpec{Node: mv.Node, X: mv.To.X, Y: mv.To.Y})
	}
	req.RemoveLinks = m.RemoveLinks
	for _, l := range m.AddLinks {
		req.AddLinks = append(req.AddLinks, server.LinkSpec{Sender: l.Sender, Receiver: l.Receiver})
	}
	return req
}

// verify checks each pool session's final ζ, ϕ, capacity set and version
// over HTTP against a library Engine that applied the same acknowledged
// batches in the same order.
func (r *serveRig) verify(ctx context.Context, p *pooled, q int) error {
	var z, ph struct {
		Zeta, Phi float64
		Version   uint64
	}
	var capRes struct{ Links []int }
	path := "/v1/sessions/" + p.id
	if err := r.do("GET", path+"/zeta", nil, &z, q); err != nil {
		return err
	}
	if err := r.do("GET", path+"/phi", nil, &ph, q); err != nil {
		return err
	}
	if err := r.do("GET", path+"/capacity?power=linear", nil, &capRes, q); err != nil {
		return err
	}
	mirror, err := decaynet.NewEngine(decaynet.UsingScenario(p.scenario, p.cfg.ScenarioConfig()), decaynet.WithMutationTracking())
	if err != nil {
		return err
	}
	for _, m := range p.applied {
		if err := mirror.Update(m); err != nil {
			return fmt.Errorf("mirror update: %w", err)
		}
	}
	wz, err := mirror.ZetaCtx(ctx)
	if err != nil {
		return err
	}
	wph, err := mirror.PhiCtx(ctx)
	if err != nil {
		return err
	}
	wcap, err := mirror.CapacityCtx(ctx, mirror.LinearPower(1), nil)
	if err != nil {
		return err
	}
	switch {
	case z.Version != uint64(len(p.applied)) || z.Version != mirror.Version():
		return fmt.Errorf("%s %s: version %d, mirror %d after %d batches", p.scenario, p.id, z.Version, mirror.Version(), len(p.applied))
	case math.Float64bits(z.Zeta) != math.Float64bits(wz):
		return fmt.Errorf("%s %s: ζ %v over HTTP, mirror %v", p.scenario, p.id, z.Zeta, wz)
	case math.Float64bits(ph.Phi) != math.Float64bits(wph):
		return fmt.Errorf("%s %s: ϕ %v over HTTP, mirror %v", p.scenario, p.id, ph.Phi, wph)
	case fmt.Sprint(capRes.Links) != fmt.Sprint(wcap):
		return fmt.Errorf("%s %s: capacity %v over HTTP, mirror %v", p.scenario, p.id, capRes.Links, wcap)
	}
	return nil
}

// serveStats collects per-request facts from the queue workers.
type serveStats struct {
	mu     sync.Mutex
	chosen []float64
	slots  []float64
	errs   []string
}

func (s *serveStats) add(xs *[]float64, v float64) {
	s.mu.Lock()
	*xs = append(*xs, v)
	s.mu.Unlock()
}

func (s *serveStats) fail(err error) {
	s.mu.Lock()
	if len(s.errs) < 20 {
		s.errs = append(s.errs, err.Error())
	}
	s.mu.Unlock()
}

// phase is one open-loop step's outcome.
type phase struct {
	rate      float64
	samples   []sample
	plan      []arrival
	dur       time.Duration // the scheduled window
	backlog   int
	failed    int
	dropped   int
	p99       time.Duration
	completed int
}

func (ph phase) pass() bool {
	return ph.failed == 0 && ph.dropped == 0 && ph.p99 <= p99Limit && ph.goodput() >= keepUp*ph.rate
}

// goodput is the phase's completions within its scheduled window per
// second.
func (ph phase) goodput() float64 {
	return float64(ph.completed-ph.backlog) / ph.dur.Seconds()
}

// runPhase runs one open-loop step at rate for dur.
func (r *serveRig) runPhase(rate float64, dur time.Duration, st *serveStats) phase {
	arrivals := dealPlan(r.seed, rate, dur, len(r.pool))
	start := time.Now().Add(5 * time.Millisecond)
	end := start.Add(dur)
	exec := func(a arrival) bool { return r.exec(a, st) }
	if r.tracer() != nil {
		exec = r.tracedExec(start, st)
	}
	samples := openLoop(start, arrivals, len(r.pool)+1, end.Add(drainLimit), exec)
	if r.heap != nil {
		r.heap.endUnit()
	}
	ph := phase{rate: rate, samples: samples, plan: arrivals, dur: dur}
	var lat []float64
	for _, s := range samples {
		switch {
		case s.Dropped:
			ph.dropped++
			continue
		case !s.OK:
			ph.failed++
		}
		if s.Done.After(end) {
			ph.backlog++
		}
		ph.completed++
		lat = append(lat, s.latency().Seconds())
	}
	if len(lat) > 0 {
		ph.p99 = time.Duration(quantile(lat, 0.99) * float64(time.Second))
	}
	return ph
}

// dealPlan deals a step's Poisson arrivals their ops from shuffled decks
// and their queues: lifecycles go to the lifecycle queue (index pool),
// everything else to a uniformly chosen pool session.
func dealPlan(seed uint64, rate float64, dur time.Duration, pool int) []arrival {
	var deck []int
	for op, n := range opDeck {
		for i := 0; i < n; i++ {
			deck = append(deck, op)
		}
	}
	times := poissonTimes(seed, rate, dur)
	dr := rand.New(rand.NewPCG(seed, math.Float64bits(rate)^0xdec4))
	arrivals := make([]arrival, len(times))
	for i, at := range times {
		if i%len(deck) == 0 {
			dr.Shuffle(len(deck), func(a, b int) { deck[a], deck[b] = deck[b], deck[a] })
		}
		a := arrival{At: at, Op: deck[i%len(deck)], Queue: pool, R: dr.Uint64()}
		if a.Op != opLifecycle {
			a.Queue = dr.IntN(pool)
		}
		arrivals[i] = a
	}
	return arrivals
}

// runServeChurn is the serve-churn workload: set-up, the reference rate,
// the rate ladder, then the mirror check. The traced run replaces the
// ladder by a second reference phase with spans on, so that tracing
// overhead is the difference between two phases at the same rate.
func runServeChurn(ctx context.Context, o runOpts) (*report, error) {
	rep := newReport()
	var tr *tracer
	if o.trace {
		tr = newTracer()
		rep.tr = tr
	}
	prepared, err := newPool()
	if err != nil {
		return nil, err
	}
	var (
		rig    *serveRig
		setups []float64
	)
	for i := 0; i < setupReps; i++ {
		t0 := time.Now()
		if rig, err = startServe(o.seed, o.trace, prepared); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
		if i < setupReps-1 {
			rig.stop()
		}
	}
	defer rig.stop()

	st := &serveStats{}
	heap := watchHeap()
	rig.heap = heap
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	gc0, pause0 := ms.NumGC, ms.PauseTotalNs
	rx0, tx0, req0 := rig.rx.Load(), rig.tx.Load(), rig.httpReq.Load()

	refDur := time.Duration(refShare * float64(o.seconds))
	var phases []phase
	if o.trace {
		// Untraced first: nothing records spans while the tracer is unset.
		phases = append(phases, rig.runPhase(refRate, o.seconds/2, st))
		rig.setTracer(tr)
		phases = append(phases, rig.runPhase(refRate, o.seconds/2, st))
	} else {
		phases = append(phases, rig.runPhase(refRate, refDur, st))
		phases = append(phases, rig.ladder(ctx, o.seconds-refDur, st)...)
	}
	peak, alloc := heap.finish()
	runtime.ReadMemStats(&ms)

	rig.setTracer(nil) // the mirror check is not part of any traced request
	for _, ph := range phases {
		rep.attempted += len(ph.samples) - ph.dropped
		rep.failed += ph.failed
	}
	rep.errors = append(rep.errors, st.errs...)
	for i, p := range rig.pool {
		rep.attempted++
		if err := rig.verify(ctx, p, i); err != nil {
			rep.fail("mirror check: %v", err)
		}
	}
	var stepNotes []string
	for _, ph := range phases {
		stepNotes = append(stepNotes, fmt.Sprintf("%.0f/s: goodput %.0f/s p99 %.1fms backlog %d failed %d dropped %d pass %v",
			ph.rate, ph.goodput(), ph.p99.Seconds()*1e3, ph.backlog, ph.failed, ph.dropped, ph.pass()))
	}
	rep.notes["phases"] = stepNotes
	opP50 := make(map[string]string)
	for op, name := range opNames {
		if l := latencies(phases[0], op); len(l) > 0 {
			opP50[name] = fmt.Sprintf("%.2f/%.2fms", 1e3*median(l), 1e3*maxOf(l))
		}
	}
	rep.notes["reference_op_p50"] = opP50
	ref := phases[0]
	arrivals := float64(len(ref.samples))

	if o.trace {
		spans := tr.snapshot()
		fillPerLayer(rep, spans, false)
		serveLayerMetrics(rep, spans, &phases[1], st)
		n := float64(rep.attempted)
		rep.metrics["runtime.gc_cycles_per_session"] = float64(ms.NumGC-gc0) / n
		rep.metrics["runtime.gc_pause_ms_per_session"] = float64(ms.PauseTotalNs-pause0) / 1e6 / n
		rep.metrics["server.bytes_per_req"] = float64(rig.rx.Load()-rx0+rig.tx.Load()-tx0) / float64(rig.httpReq.Load()-req0)
		rep.metrics["trace.session_p50_s"] = median(latencies(phases[1], -1))
		rep.metrics["trace.overhead_s"] = median(latencies(phases[1], -1)) - median(latencies(phases[0], -1))
		return rep, nil
	}

	lat := latencies(ref, -1)
	life := latencies(ref, opLifecycle)
	rep.metrics["setup_s"] = median(setups)
	rep.metrics["session_p50_s"] = median(life)
	tv, tp, beyond := tail(life)
	rep.metrics["session_tail_s"] = tv
	rep.notes["session_tail"] = fmt.Sprintf("p%.1f of %d lifecycle sessions (%d beyond)", tp, len(life), beyond)
	rep.metrics["sessions_per_s"] = float64(len(life)) / ref.dur.Seconds()
	rep.metrics["alloc_mib_per_session"] = alloc / float64(rep.attempted)
	rep.metrics["peak_heap_mib"] = peak
	rep.metrics["req_p50_ms"] = 1e3 * median(lat)
	rep.metrics["req_p99_ms"] = 1e3 * quantile(lat, 0.99)
	maxRPS := 0.0
	for _, ph := range phases {
		if ph.pass() {
			maxRPS = max(maxRPS, ph.goodput())
		}
	}
	if maxRPS == 0 {
		rep.fail("the reference rate %.0f/s missed the %v p99 limit", refRate, p99Limit)
	}
	rep.metrics["max_rps"] = maxRPS
	rep.notes["setup_s_reps"] = setups
	rep.notes["reference_requests"] = arrivals
	return rep, nil
}

// ladder raises the rate geometrically from above the reference rate
// until a step fails, then bisects between the last passing and the first
// failing rate, for as long as budget allows.
func (r *serveRig) ladder(ctx context.Context, budget time.Duration, st *serveStats) []phase {
	deadline := time.Now().Add(budget)
	var phases []phase
	lo, hi := refRate, 0.0
	for time.Now().Add(stepDur).Before(deadline) && ctx.Err() == nil {
		rate := lo * ladderStep
		if hi > 0 {
			rate = math.Sqrt(lo * hi)
		}
		ph := r.runPhase(rate, stepDur, st)
		phases = append(phases, ph)
		if ph.pass() {
			lo = rate
		} else {
			hi = rate
		}
	}
	return phases
}

// latencies returns the due-time latencies of a phase's completed
// requests of one op (-1 = all), in seconds.
func latencies(ph phase, op int) []float64 {
	var out []float64
	for i, s := range ph.samples {
		if !s.Dropped && (op < 0 || ph.plan[i].Op == op) {
			out = append(out, s.latency().Seconds())
		}
	}
	return out
}
