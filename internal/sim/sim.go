package sim

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"slices"

	"decaynet/internal/rng"
	"decaynet/internal/scenario"
	"decaynet/internal/sinr"
)

// Session is the slice of the Engine the simulator drives: enough to read
// the current topology, build power assignments, and apply churn batches.
// The public decaynet.Engine satisfies it directly.
type Session interface {
	Len() int
	Version() uint64
	System() *sinr.System
	Update(scenario.Mutation) error
	UniformPower(level float64) sinr.Power
	LinearPower(scale float64) sinr.Power
	MeanPower(scale float64) sinr.Power
}

// Config configures one simulation run beyond the wire-format Spec.
type Config struct {
	// Spec is the workload specification. Required.
	Spec *Spec
	// Trace, when set, receives the JSONL event trace as the run executes.
	Trace io.Writer
	// Replay, when set, re-executes a recorded trace instead of drawing
	// fresh randomness: the input events (arrivals, churn batches) come
	// from the trace, every scheduling decision is recomputed, and the
	// regenerated trace and Result are byte-identical to the live run's.
	Replay []Event
	// Mutations, when set, is an explicit churn stream overriding the one
	// Spec.Churn would generate; Spec.Churn must still be set to supply
	// the batch interval.
	Mutations []scenario.Mutation
}

// Event kinds on the internal clock, in tie-break priority order: at equal
// timestamps a round closes before churn applies, and churn applies before
// new arrivals enter.
const (
	evRoundEnd = iota
	evChurn
	evArrival
)

// ev is one pending occurrence on the shared event clock. The ordering key
// (t, kind, class, ord) is intrinsic to the event — never push order — so
// live and replay runs process identical sequences.
type ev struct {
	t    float64
	kind int8
	// class is the traffic class (arrivals); 0 otherwise.
	class int
	// ord breaks remaining ties: the per-class arrival ordinal, or the
	// churn step index.
	ord int64

	// Replay payloads. link is -2 for live arrivals (draw fresh), else the
	// recorded routing (-1 = unroutable).
	link     int
	units    int
	deadline float64
	mut      *scenario.Mutation
}

func evLess(a, b ev) bool {
	if a.t != b.t {
		return a.t < b.t
	}
	if a.kind != b.kind {
		return a.kind < b.kind
	}
	if a.class != b.class {
		return a.class < b.class
	}
	return a.ord < b.ord
}

// request is one unit of offered traffic queued on a link.
type request struct {
	id        int64
	class     int
	arrived   float64
	deadline  float64 // absolute; +Inf when none
	units     int
	remaining int
}

// classStats accumulates one class's counters during the run.
type classStats struct {
	arrivals, completions, dropped, expired int64
	served                                  int64 // units served, incl. partial
	completedUnits                          int64 // units of fully-completed requests
	sojourns                                []float64
}

// Simulator is the deterministic shared-clock discrete-event loop. Create
// one with New, drive it with Step or Run. A Simulator is single-use and
// not safe for concurrent use; it mutates its Session through Update when
// the spec carries churn.
type Simulator struct {
	sess      Session
	spec      *Spec
	policy    Policy
	power     sinr.Power
	horizon   float64
	roundTime float64
	replay    bool

	now    float64
	heap   []ev
	queues [][]*request
	// targets[c] lists class c's explicit link set under the current link
	// numbering; nil means "all links, whatever they currently are".
	targets  [][]int
	arrOrd   []int64 // per-class arrival ordinals (heap tie-break)
	arrSrc   []rng.Source
	demSrc   []rng.Source
	linkSrc  []rng.Source
	hasDeads bool

	mutations  []scenario.Mutation
	churnEvery float64

	roundOpen bool
	round     []int
	rounds    int

	reqSeq int64
	stats  []classStats

	trace    io.Writer
	traceSeq int64
	traceErr error

	done bool
	err  error
}

// minGap floors interarrival draws so a pathological all-zeros stream
// cannot freeze the clock.
const minGap = 1e-12

// defaultRoundTime is the slot duration when the spec leaves RoundTime 0.
const defaultRoundTime = 1e-3

// New validates the config against the session and builds a ready-to-run
// simulator with the initial arrival (or replay) events enqueued.
func New(sess Session, cfg Config) (*Simulator, error) {
	if sess == nil {
		return nil, errors.New("sim: nil session")
	}
	if cfg.Spec == nil {
		return nil, errors.New("sim: nil spec")
	}
	if err := cfg.Spec.Validate(); err != nil {
		return nil, err
	}
	sp := cfg.Spec
	s := &Simulator{
		sess:      sess,
		spec:      sp,
		horizon:   sp.Horizon,
		roundTime: sp.RoundTime,
		trace:     cfg.Trace,
		replay:    cfg.Replay != nil,
	}
	if s.roundTime == 0 {
		s.roundTime = defaultRoundTime
	}
	name := sp.Policy
	if name == "" {
		name = "capacity"
	}
	pol, ok := policyByName(name)
	if !ok {
		return nil, fmt.Errorf("sim: unknown policy %q", name)
	}
	s.policy = pol

	n := sess.Len()
	s.queues = make([][]*request, n)
	s.targets = make([][]int, len(sp.Classes))
	s.arrOrd = make([]int64, len(sp.Classes))
	s.stats = make([]classStats, len(sp.Classes))
	for c := range sp.Classes {
		cl := &sp.Classes[c]
		if cl.Deadline > 0 {
			s.hasDeads = true
		}
		if len(cl.Links) > 0 {
			for _, l := range cl.Links {
				if l >= n {
					return nil, fmt.Errorf("sim: class %d targets link %d, session has %d", c, l, n)
				}
			}
			s.targets[c] = slices.Clone(cl.Links)
		}
	}
	s.rebuildPower()

	if cfg.Mutations != nil {
		if sp.Churn == nil {
			return nil, errors.New("sim: Config.Mutations requires Spec.Churn for the batch interval")
		}
		s.mutations = cfg.Mutations
		s.churnEvery = sp.Churn.Every
	} else if sp.Churn != nil {
		steps := sp.Churn.Steps
		if steps == 0 {
			steps = int(sp.Horizon / sp.Churn.Every)
		}
		muts, err := sp.Churn.Stream(steps)
		if err != nil {
			return nil, fmt.Errorf("sim: churn stream: %w", err)
		}
		s.mutations = muts
		s.churnEvery = sp.Churn.Every
	}

	if s.replay {
		if err := s.loadReplay(cfg.Replay); err != nil {
			return nil, err
		}
		return s, nil
	}

	// Live mode: derive per-class streams from the spec seed and enqueue
	// each class's first arrival and the first churn batch.
	s.arrSrc = make([]rng.Source, len(sp.Classes))
	s.demSrc = make([]rng.Source, len(sp.Classes))
	s.linkSrc = make([]rng.Source, len(sp.Classes))
	for c := range sp.Classes {
		s.arrSrc[c] = rng.PairStream(sp.Seed, c, 1)
		s.demSrc[c] = rng.PairStream(sp.Seed, c, 2)
		s.linkSrc[c] = rng.PairStream(sp.Seed, c, 3)
		s.pushArrival(c, 0)
	}
	if len(s.mutations) > 0 {
		s.push(ev{t: s.churnEvery, kind: evChurn, ord: 0, mut: &s.mutations[0]})
	}
	return s, nil
}

// loadReplay enqueues the input events of a recorded trace.
func (s *Simulator) loadReplay(events []Event) error {
	for i := range events {
		rec := &events[i]
		switch rec.Kind {
		case KindArrive:
			dl := rec.Deadline
			if dl == 0 {
				dl = math.Inf(1)
			}
			if rec.Class < 0 || rec.Class >= len(s.spec.Classes) {
				return fmt.Errorf("sim: replay event %d: class %d out of range", i, rec.Class)
			}
			s.arrOrd[rec.Class]++
			s.push(ev{
				t: rec.T, kind: evArrival, class: rec.Class, ord: s.arrOrd[rec.Class],
				link: rec.Link, units: rec.Units, deadline: dl,
			})
		case KindChurn:
			if rec.Mutation == nil {
				return fmt.Errorf("sim: replay event %d: churn without mutation payload", i)
			}
			s.push(ev{t: rec.T, kind: evChurn, ord: int64(rec.Step), mut: rec.Mutation})
		}
	}
	return nil
}

// rebuildPower rebuilds the power assignment for the current topology; it
// runs at construction and after every churn batch (link count and decays
// both change under churn).
func (s *Simulator) rebuildPower() {
	scale := s.spec.Scale
	if scale == 0 {
		scale = 1
	}
	switch s.spec.Power {
	case "", "uniform":
		s.power = s.sess.UniformPower(scale)
	case "linear":
		s.power = s.sess.LinearPower(scale)
	case "mean":
		s.power = s.sess.MeanPower(scale)
	}
}

// push inserts an event into the binary heap.
func (s *Simulator) push(e ev) {
	s.heap = append(s.heap, e)
	i := len(s.heap) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !evLess(s.heap[i], s.heap[parent]) {
			break
		}
		s.heap[i], s.heap[parent] = s.heap[parent], s.heap[i]
		i = parent
	}
}

// pop removes the minimum event. It panics on an empty heap.
func (s *Simulator) pop() ev {
	top := s.heap[0]
	last := len(s.heap) - 1
	s.heap[0] = s.heap[last]
	s.heap = s.heap[:last]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		min := i
		if l < len(s.heap) && evLess(s.heap[l], s.heap[min]) {
			min = l
		}
		if r < len(s.heap) && evLess(s.heap[r], s.heap[min]) {
			min = r
		}
		if min == i {
			break
		}
		s.heap[i], s.heap[min] = s.heap[min], s.heap[i]
		i = min
	}
	return top
}

// pushArrival samples class c's next interarrival gap after t and enqueues
// the arrival if it lands within the horizon.
func (s *Simulator) pushArrival(c int, t float64) {
	gap := s.spec.Classes[c].Arrival.sample(&s.arrSrc[c])
	if gap < minGap {
		gap = minGap
	}
	at := t + gap
	if at > s.horizon {
		return
	}
	s.arrOrd[c]++
	s.push(ev{t: at, kind: evArrival, class: c, ord: s.arrOrd[c], link: -2})
}

// emit appends one event to the trace.
func (s *Simulator) emit(e Event) {
	if s.trace == nil || s.traceErr != nil {
		return
	}
	s.traceSeq++
	e.Seq = s.traceSeq
	b, err := json.Marshal(&e)
	if err != nil {
		s.traceErr = fmt.Errorf("sim: marshal trace event: %w", err)
		return
	}
	b = append(b, '\n')
	if _, err := s.trace.Write(b); err != nil {
		s.traceErr = fmt.Errorf("sim: write trace: %w", err)
	}
}

// Step processes the next event. It returns false when the run is over
// (horizon reached or events exhausted); the error, if any, is terminal.
func (s *Simulator) Step() (bool, error) {
	if s.done {
		return false, s.err
	}
	if len(s.heap) == 0 {
		s.done = true
		return false, nil
	}
	e := s.pop()
	if e.t > s.horizon {
		// Everything still queued is later yet: the run is over, whatever
		// is unfinished stays in flight.
		s.done = true
		return false, nil
	}
	s.now = e.t
	switch e.kind {
	case evRoundEnd:
		s.closeRound()
	case evChurn:
		if err := s.applyChurn(e); err != nil {
			s.done = true
			s.err = err
			return false, err
		}
	case evArrival:
		s.processArrival(e)
	}
	if !s.roundOpen {
		s.tryStartRound()
	}
	if s.traceErr != nil {
		s.done = true
		s.err = s.traceErr
		return false, s.err
	}
	return true, nil
}

// processArrival admits one request: route it (live draws from the class
// streams; replay uses the recorded payload), size it, and enqueue it.
func (s *Simulator) processArrival(e ev) {
	c := e.class
	st := &s.stats[c]
	st.arrivals++
	cl := &s.spec.Classes[c]

	link, units, deadline := e.link, e.units, e.deadline
	if link == -2 { // live: draw routing, size and deadline
		if s.targets[c] != nil {
			if len(s.targets[c]) == 0 {
				link = -1 // every explicit target churned away
			} else {
				link = s.targets[c][s.linkSrc[c].Intn(len(s.targets[c]))]
			}
		} else if n := s.sess.Len(); n == 0 {
			link = -1
		} else {
			link = s.linkSrc[c].Intn(n)
		}
		units = 0
		if link >= 0 {
			units = cl.Demand.sample(&s.demSrc[c])
		}
		deadline = math.Inf(1)
		if cl.Deadline > 0 {
			deadline = s.now + cl.Deadline
		}
		s.pushArrival(c, s.now)
	}

	s.reqSeq++
	id := s.reqSeq
	wireDeadline := 0.0
	if !math.IsInf(deadline, 1) {
		wireDeadline = deadline
	}
	s.emit(Event{T: s.now, Kind: KindArrive, Class: c, Req: id, Link: link, Units: units, Deadline: wireDeadline})

	if link < 0 || link >= len(s.queues) {
		// Unroutable, or the recorded link no longer exists (cannot happen
		// on a faithful replay; counts as a drop rather than corrupting).
		st.dropped++
		s.emit(Event{T: s.now, Kind: KindDrop, Class: c, Req: id, Link: link})
		return
	}
	if s.spec.MaxQueue > 0 && len(s.queues[link]) >= s.spec.MaxQueue {
		st.dropped++
		s.emit(Event{T: s.now, Kind: KindDrop, Class: c, Req: id, Link: link})
		return
	}
	s.queues[link] = append(s.queues[link], &request{
		id: id, class: c, arrived: s.now, deadline: deadline, units: units, remaining: units,
	})
}

// tryStartRound expires overdue requests, consults the policy over the
// backlogged links and, if it picks a non-empty feasible set, opens a
// round ending roundTime later.
func (s *Simulator) tryStartRound() {
	if s.hasDeads {
		s.expireOverdue()
	}
	var cands []Candidate
	for link, q := range s.queues {
		if len(q) == 0 {
			continue
		}
		backlog := 0
		for _, r := range q {
			backlog += r.remaining
		}
		head := q[0]
		cands = append(cands, Candidate{
			Link: link, Queued: len(q), Backlog: backlog,
			Waiting: head.arrived, Deadline: head.deadline,
		})
	}
	if len(cands) == 0 {
		return
	}
	pick := s.policy(s.sess.System(), s.power, cands)
	// Guard against misbehaving custom policies: keep only backlogged,
	// not-yet-seen links, preserving the policy's order.
	backlogged := make(map[int]bool, len(cands))
	for _, c := range cands {
		backlogged[c.Link] = true
	}
	round := make([]int, 0, len(pick))
	for _, l := range pick {
		if backlogged[l] {
			backlogged[l] = false
			round = append(round, l)
		}
	}
	if len(round) == 0 {
		return
	}
	s.rounds++
	s.roundOpen = true
	s.round = round
	s.emit(Event{T: s.now, Kind: KindRound, Links: round})
	s.push(ev{t: s.now + s.roundTime, kind: evRoundEnd})
}

// closeRound serves one unit on every link of the closing round.
func (s *Simulator) closeRound() {
	for _, link := range s.round {
		if link >= len(s.queues) || len(s.queues[link]) == 0 {
			continue // emptied or remapped away by a mid-round churn batch
		}
		head := s.queues[link][0]
		head.remaining--
		s.stats[head.class].served++
		if head.remaining > 0 {
			continue
		}
		s.queues[link] = s.queues[link][1:]
		st := &s.stats[head.class]
		st.completions++
		st.completedUnits += int64(head.units)
		st.sojourns = append(st.sojourns, s.now-head.arrived)
		s.emit(Event{T: s.now, Kind: KindComplete, Class: head.class, Req: head.id, Link: link})
	}
	s.roundOpen = false
	s.round = nil
}

// expireOverdue drops every queued request whose deadline has passed,
// scanning links and queue positions in order for determinism.
func (s *Simulator) expireOverdue() {
	for link, q := range s.queues {
		kept := q[:0]
		for _, r := range q {
			if r.deadline <= s.now {
				st := &s.stats[r.class]
				st.expired++
				s.emit(Event{T: s.now, Kind: KindExpire, Class: r.class, Req: r.id, Link: link})
				continue
			}
			kept = append(kept, r)
		}
		s.queues[link] = kept
	}
}

// applyChurn applies one mutation batch to the session and remaps the
// simulator's link-indexed state exactly the way Engine.Update compacts
// the link list: removals (pre-mutation indices) shift later links down,
// additions append.
func (s *Simulator) applyChurn(e ev) error {
	if err := s.sess.Update(*e.mut); err != nil {
		return fmt.Errorf("sim: churn step %d: %w", e.ord, err)
	}

	if len(e.mut.RemoveLinks) > 0 || len(e.mut.AddLinks) > 0 {
		removes := slices.Clone(e.mut.RemoveLinks)
		slices.Sort(removes)
		removes = slices.Compact(removes)

		// Queued work on a removed link has nowhere to go: count it
		// dropped, in (link, queue position) order.
		for _, idx := range removes {
			if idx >= len(s.queues) {
				continue
			}
			for _, r := range s.queues[idx] {
				st := &s.stats[r.class]
				st.dropped++
				s.emit(Event{T: s.now, Kind: KindDrop, Class: r.class, Req: r.id, Link: idx})
			}
		}

		// remap[old] is the post-mutation index, -1 for removed links.
		oldN := len(s.queues)
		remap := make([]int, oldN)
		shift, ri := 0, 0
		for old := 0; old < oldN; old++ {
			if ri < len(removes) && removes[ri] == old {
				remap[old] = -1
				shift++
				ri++
				continue
			}
			remap[old] = old - shift
		}

		queues := make([][]*request, 0, oldN-shift+len(e.mut.AddLinks))
		for old, q := range s.queues {
			if remap[old] >= 0 {
				queues = append(queues, q)
			}
		}
		for range e.mut.AddLinks {
			queues = append(queues, nil)
		}
		s.queues = queues

		for c, tg := range s.targets {
			if tg == nil {
				continue // "all links" classes follow the session
			}
			kept := tg[:0]
			for _, l := range tg {
				if l < oldN && remap[l] >= 0 {
					kept = append(kept, remap[l])
				}
			}
			s.targets[c] = kept
		}

		if s.roundOpen {
			kept := s.round[:0]
			for _, l := range s.round {
				if l < oldN && remap[l] >= 0 {
					kept = append(kept, remap[l])
				}
			}
			s.round = kept
		}
	}

	s.rebuildPower()
	s.emit(Event{T: s.now, Kind: KindChurn, Step: int(e.ord), Version: s.sess.Version(), Mutation: e.mut})

	if !s.replay {
		next := int(e.ord) + 1
		if next < len(s.mutations) {
			s.push(ev{t: s.churnEvery * float64(next+1), kind: evChurn, ord: int64(next), mut: &s.mutations[next]})
		}
	}
	return nil
}

// Run drives the simulator to completion (or ctx cancellation) and
// returns the metrics.
func (s *Simulator) Run(ctx context.Context) (*Result, error) {
	for {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		ok, err := s.Step()
		if err != nil {
			return nil, err
		}
		if !ok {
			break
		}
	}
	return s.Result()
}

// Result folds the accumulators into the structured metrics. It errors
// until the run has finished.
func (s *Simulator) Result() (*Result, error) {
	if !s.done {
		return nil, errors.New("sim: run not finished")
	}
	if s.err != nil {
		return nil, s.err
	}
	res := &Result{
		Horizon:      s.horizon,
		Rounds:       s.rounds,
		FinalVersion: s.sess.Version(),
		Classes:      make([]ClassResult, len(s.spec.Classes)),
	}
	goodputs := make([]float64, len(s.spec.Classes))
	for c := range s.spec.Classes {
		name := s.spec.Classes[c].Name
		if name == "" {
			name = fmt.Sprintf("class%d", c)
		}
		cr := classResult(name, &s.stats[c], s.horizon)
		res.Classes[c] = cr
		res.Arrivals += cr.Arrivals
		res.Completions += cr.Completions
		res.Dropped += cr.Dropped
		res.Expired += cr.Expired
		res.InFlight += cr.InFlight
		res.ServedUnits += cr.ServedUnits
		res.Goodput += cr.Goodput
		goodputs[c] = cr.Goodput
	}
	res.JainIndex = jain(goodputs)
	return res, nil
}
