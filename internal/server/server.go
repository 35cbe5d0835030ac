package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"decaynet/internal/core"
	"decaynet/internal/scenario"
	"decaynet/internal/sim"
	"decaynet/internal/sinr"
)

// TenantHeader names the request header carrying the tenant id. Absent or
// empty means the "default" tenant.
const TenantHeader = "X-Decaynet-Tenant"

// DefaultTenant is the tenant of requests without a TenantHeader.
const DefaultTenant = "default"

// Session is the server's view of one live engine session — exactly the
// slice of the public Engine surface the wire API serves. The public
// decaynet package's *Engine satisfies it directly; tests substitute
// stubs.
type Session interface {
	N() int
	Len() int
	Version() uint64
	Scenario() string
	Update(scenario.Mutation) error
	ZetaCtx(context.Context) (float64, error)
	PhiCtx(context.Context) (float64, error)
	AffectancesCtx(context.Context, sinr.Power) (*sinr.Affectances, error)
	CapacityCtx(context.Context, sinr.Power, []int) ([]int, error)
	ScheduleCtx(context.Context, sinr.Power, []int) ([][]int, error)
	UniformPower(float64) sinr.Power
	LinearPower(float64) sinr.Power
	MeanPower(float64) sinr.Power
	Simulate(context.Context, sim.Config) (*sim.Result, error)
	MetricityApproximate() (bool, int)
	ZetaEstimate() (core.SampledEstimate, bool)
	PhiEstimate() (core.SampledEstimate, bool)
}

// SessionBuilder turns a validated CreateRequest into a live session. The
// public decaynet package injects the Engine-backed builder; it runs under
// the request context, so an abandoned create is cancelled cooperatively.
type SessionBuilder func(context.Context, *CreateRequest) (Session, error)

// QuotaPolicy selects what happens when a tenant at its session quota
// creates another session.
type QuotaPolicy string

const (
	// EvictLRU silently closes the tenant's least-recently-used session to
	// make room (the default).
	EvictLRU QuotaPolicy = "evict"
	// Reject sheds the create with 429 instead.
	Reject QuotaPolicy = "reject"
)

// Config parameterizes a Server.
type Config struct {
	// Build constructs sessions (required).
	Build SessionBuilder
	// RatePerSec and Burst parameterize token-bucket admission control
	// over all API routes; RatePerSec <= 0 disables it.
	RatePerSec float64
	Burst      int
	// TenantQuota caps live sessions per tenant (0 = unlimited);
	// QuotaPolicy picks evict-LRU (default) or reject at the cap.
	TenantQuota int
	QuotaPolicy QuotaPolicy
	// Logf, when non-nil, receives one line per lifecycle event.
	Logf func(format string, args ...any)
}

// Checkpoint is one session's drain record: enough to identify what was
// live and at which version when the daemon went down.
type Checkpoint struct {
	Tenant   string `json:"tenant"`
	ID       string `json:"id"`
	Scenario string `json:"scenario,omitempty"`
	N        int    `json:"n"`
	Links    int    `json:"links"`
	Version  uint64 `json:"version"`
}

// Server is the multi-tenant session daemon. It implements http.Handler;
// bind it to an http.Server (cmd/decaynetd) or drive it in-process through
// httptest (the test wall and decaybench's serve op do).
type Server struct {
	cfg    Config
	mux    *http.ServeMux
	bucket *TokenBucket
	met    *metrics

	mu       sync.Mutex
	draining bool
	inflight sync.WaitGroup
	sessions map[string]*liveSession            // id → session
	tenants  map[string]map[string]*liveSession // tenant → id → session
	nextID   uint64
	clock    uint64 // logical LRU clock: bumped on every session touch
}

// liveSession couples a Session with its server-side bookkeeping.
type liveSession struct {
	id     string
	tenant string
	sess   Session
	// mu serializes version-fenced mutation batches (check-then-apply
	// must be atomic against other writers; reads go straight to the
	// session's own RW serialization).
	mu sync.Mutex
	// lastUsed is the server's logical LRU stamp, guarded by Server.mu.
	lastUsed uint64
}

// New builds a Server. Config.Build is required.
func New(cfg Config) (*Server, error) {
	if cfg.Build == nil {
		return nil, errors.New("server: Config.Build is required")
	}
	switch cfg.QuotaPolicy {
	case "", EvictLRU:
		cfg.QuotaPolicy = EvictLRU
	case Reject:
	default:
		return nil, fmt.Errorf("server: unknown quota policy %q (want %q or %q)", cfg.QuotaPolicy, EvictLRU, Reject)
	}
	s := &Server{
		cfg:      cfg,
		mux:      http.NewServeMux(),
		bucket:   NewTokenBucket(cfg.RatePerSec, cfg.Burst),
		met:      newMetrics(),
		sessions: make(map[string]*liveSession),
		tenants:  make(map[string]map[string]*liveSession),
	}
	s.routes()
	return s, nil
}

func (s *Server) routes() {
	api := func(route string, h func(http.ResponseWriter, *http.Request)) http.HandlerFunc {
		return s.instrument(route, h)
	}
	s.mux.HandleFunc("POST /v1/sessions", api("create_session", s.handleCreate))
	s.mux.HandleFunc("GET /v1/sessions", api("list_sessions", s.handleList))
	s.mux.HandleFunc("GET /v1/sessions/{id}", api("session_info", s.handleInfo))
	s.mux.HandleFunc("DELETE /v1/sessions/{id}", api("delete_session", s.handleDelete))
	s.mux.HandleFunc("POST /v1/sessions/{id}/mutations", api("mutate", s.handleMutate))
	s.mux.HandleFunc("GET /v1/sessions/{id}/zeta", api("zeta", s.metricityHandler("zeta", Session.ZetaCtx, Session.ZetaEstimate)))
	s.mux.HandleFunc("GET /v1/sessions/{id}/phi", api("phi", s.metricityHandler("phi", Session.PhiCtx, Session.PhiEstimate)))
	s.mux.HandleFunc("GET /v1/sessions/{id}/affectance", api("affectance", s.handleAffectance))
	s.mux.HandleFunc("GET /v1/sessions/{id}/capacity", api("capacity", s.handleCapacity))
	s.mux.HandleFunc("GET /v1/sessions/{id}/schedule", api("schedule", s.handleSchedule))
	s.mux.HandleFunc("POST /v1/sessions/{id}/simulate", api("simulate", s.handleSimulate))
	// Probes and metrics bypass admission control and drain shedding: a
	// draining daemon must keep answering its orchestrator.
	s.mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, _ *http.Request) {
		w.WriteHeader(http.StatusOK)
		io.WriteString(w, "ok\n")
	})
	s.mux.HandleFunc("GET /readyz", func(w http.ResponseWriter, _ *http.Request) {
		if s.Draining() {
			w.WriteHeader(http.StatusServiceUnavailable)
			io.WriteString(w, "draining\n")
			return
		}
		w.WriteHeader(http.StatusOK)
		io.WriteString(w, "ready\n")
	})
	s.mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, _ *http.Request) {
		var sb strings.Builder
		s.met.render(&sb)
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		io.WriteString(w, sb.String())
	})
	s.mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		writeError(w, http.StatusNotFound, fmt.Sprintf("no route %s %s", r.Method, r.URL.Path))
	})
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// instrument wraps an API handler with the serving trimmings, in shedding
// order: drain (503 before any work), admission (429), in-flight tracking
// for drain, status capture and metrics.
func (s *Server) instrument(route string, h func(http.ResponseWriter, *http.Request)) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		// The draining check and the in-flight Add are one critical
		// section: Drain flips the flag under the same lock, so after it
		// releases, no new request can slip into the wait group.
		s.mu.Lock()
		if s.draining {
			s.mu.Unlock()
			s.met.incDrainRejected()
			s.met.observe(route, http.StatusServiceUnavailable, 0)
			writeError(w, http.StatusServiceUnavailable, "draining")
			return
		}
		s.inflight.Add(1)
		s.mu.Unlock()
		defer s.inflight.Done()

		if !s.bucket.Allow() {
			s.met.incAdmissionRejected()
			s.met.observe(route, http.StatusTooManyRequests, 0)
			writeError(w, http.StatusTooManyRequests, "admission control: rate limit exceeded")
			return
		}
		sw := &statusWriter{ResponseWriter: w, code: http.StatusOK}
		start := time.Now()
		defer func() {
			// Panic recovery: a handler panic must cost one 500, a log
			// line and a metric — not the connection and the daemon's
			// crash-loop budget. Re-panicking would let net/http kill the
			// connection with no response at all.
			if rec := recover(); rec != nil {
				s.met.incPanics()
				s.logf("panic in %s %s: %v\n%s", r.Method, r.URL.Path, rec, debug.Stack())
				if !sw.wrote {
					writeError(sw, http.StatusInternalServerError, "internal error")
				}
				sw.code = http.StatusInternalServerError
			}
			s.met.observe(route, sw.code, time.Since(start).Seconds())
		}()
		h(sw, r)
	}
}

type statusWriter struct {
	http.ResponseWriter
	code  int
	wrote bool // headers sent: a recovered panic can no longer write a 500
}

func (w *statusWriter) WriteHeader(code int) {
	w.code = code
	w.wrote = true
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(b []byte) (int, error) {
	w.wrote = true
	return w.ResponseWriter.Write(b)
}

// Draining reports whether graceful drain has begun.
func (s *Server) Draining() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.draining
}

// Live returns the number of live sessions across all tenants.
func (s *Server) Live() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.sessions)
}

// Drain begins graceful shutdown: from the moment it is called, new API
// requests are shed with 503 (probes and /metrics keep answering), then
// Drain blocks until every in-flight request has finished — or ctx
// expires, which abandons the wait and returns ctx.Err(). On a clean
// drain it returns one Checkpoint per live session (sorted by id), each
// carrying the session's final version.
func (s *Server) Drain(ctx context.Context) ([]Checkpoint, error) {
	s.mu.Lock()
	if !s.draining {
		s.draining = true
		s.met.setDraining()
		s.logf("drain: shedding new requests, waiting for in-flight")
	}
	s.mu.Unlock()

	done := make(chan struct{})
	go func() {
		s.inflight.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-ctx.Done():
		return nil, ctx.Err()
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	cps := make([]Checkpoint, 0, len(s.sessions))
	for _, ls := range s.sessions {
		cps = append(cps, Checkpoint{
			Tenant:   ls.tenant,
			ID:       ls.id,
			Scenario: ls.sess.Scenario(),
			N:        ls.sess.N(),
			Links:    ls.sess.Len(),
			Version:  ls.sess.Version(),
		})
	}
	sort.Slice(cps, func(i, j int) bool { return cps[i].ID < cps[j].ID })
	s.logf("drain: complete, %d sessions checkpointed", len(cps))
	return cps, nil
}

func (s *Server) logf(format string, args ...any) {
	if s.cfg.Logf != nil {
		s.cfg.Logf(format, args...)
	}
}

// tenantOf extracts the request's tenant.
func tenantOf(r *http.Request) string {
	if t := r.Header.Get(TenantHeader); t != "" {
		return t
	}
	return DefaultTenant
}

// register adds a freshly built session under the tenant, enforcing the
// quota: at the cap, EvictLRU closes the tenant's least-recently-used
// session (deterministically — the LRU order is a logical clock, not wall
// time) and Reject returns errQuota.
var errQuota = errors.New("tenant session quota reached")

func (s *Server) register(tenant string, sess Session) (*liveSession, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	t := s.tenants[tenant]
	if t == nil {
		t = make(map[string]*liveSession)
		s.tenants[tenant] = t
	}
	if s.cfg.TenantQuota > 0 && len(t) >= s.cfg.TenantQuota {
		if s.cfg.QuotaPolicy == Reject {
			return nil, errQuota
		}
		var lru *liveSession
		for _, ls := range t {
			if lru == nil || ls.lastUsed < lru.lastUsed {
				lru = ls
			}
		}
		delete(t, lru.id)
		delete(s.sessions, lru.id)
		s.met.incEvicted()
		s.met.addSessions(-1)
		s.logf("evict: tenant=%s id=%s version=%d", tenant, lru.id, lru.sess.Version())
	}
	s.nextID++
	ls := &liveSession{
		id:     fmt.Sprintf("s-%d", s.nextID),
		tenant: tenant,
		sess:   sess,
	}
	s.clock++
	ls.lastUsed = s.clock
	t[ls.id] = ls
	s.sessions[ls.id] = ls
	s.met.addSessions(1)
	return ls, nil
}

// lookup resolves a session id within the tenant's scope, touching its
// LRU stamp. Another tenant's session is indistinguishable from a missing
// one.
func (s *Server) lookup(tenant, id string) *liveSession {
	s.mu.Lock()
	defer s.mu.Unlock()
	ls := s.sessions[id]
	if ls == nil || ls.tenant != tenant {
		return nil
	}
	s.clock++
	ls.lastUsed = s.clock
	return ls
}

// drop removes a session.
func (s *Server) drop(tenant, id string) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	ls := s.sessions[id]
	if ls == nil || ls.tenant != tenant {
		return false
	}
	delete(s.sessions, id)
	delete(s.tenants[tenant], id)
	s.met.addSessions(-1)
	return true
}

// --- Handlers ---

// SessionInfo is the wire representation of one live session.
type SessionInfo struct {
	ID       string `json:"id"`
	Tenant   string `json:"tenant"`
	Scenario string `json:"scenario,omitempty"`
	N        int    `json:"n"`
	Links    int    `json:"links"`
	Version  uint64 `json:"version"`
}

func (s *Server) info(ls *liveSession) SessionInfo {
	return SessionInfo{
		ID:       ls.id,
		Tenant:   ls.tenant,
		Scenario: ls.sess.Scenario(),
		N:        ls.sess.N(),
		Links:    ls.sess.Len(),
		Version:  ls.sess.Version(),
	}
}

func (s *Server) handleCreate(w http.ResponseWriter, r *http.Request) {
	body, err := readBody(w, r)
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	req, err := DecodeCreateRequest(body)
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	sess, err := s.cfg.Build(r.Context(), req)
	if err != nil {
		code := http.StatusBadRequest
		if errors.Is(err, r.Context().Err()) && r.Context().Err() != nil {
			code = http.StatusServiceUnavailable
		}
		writeError(w, code, err.Error())
		return
	}
	tenant := tenantOf(r)
	ls, err := s.register(tenant, sess)
	if err != nil {
		writeError(w, http.StatusTooManyRequests, err.Error())
		return
	}
	s.logf("create: tenant=%s id=%s scenario=%q n=%d links=%d", tenant, ls.id, sess.Scenario(), sess.N(), sess.Len())
	writeJSON(w, http.StatusCreated, s.info(ls))
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	tenant := tenantOf(r)
	s.mu.Lock()
	infos := make([]SessionInfo, 0, len(s.tenants[tenant]))
	for _, ls := range s.tenants[tenant] {
		infos = append(infos, s.info(ls))
	}
	s.mu.Unlock()
	sort.Slice(infos, func(i, j int) bool { return infos[i].ID < infos[j].ID })
	writeJSON(w, http.StatusOK, map[string]any{"sessions": infos})
}

// session resolves the {id} path segment, writing the 404 itself when the
// session is missing (or belongs to another tenant).
func (s *Server) session(w http.ResponseWriter, r *http.Request) *liveSession {
	id := r.PathValue("id")
	ls := s.lookup(tenantOf(r), id)
	if ls == nil {
		writeError(w, http.StatusNotFound, fmt.Sprintf("no session %q", id))
	}
	return ls
}

func (s *Server) handleInfo(w http.ResponseWriter, r *http.Request) {
	ls := s.session(w, r)
	if ls == nil {
		return
	}
	writeJSON(w, http.StatusOK, s.info(ls))
}

func (s *Server) handleDelete(w http.ResponseWriter, r *http.Request) {
	if !s.drop(tenantOf(r), r.PathValue("id")) {
		writeError(w, http.StatusNotFound, fmt.Sprintf("no session %q", r.PathValue("id")))
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

func (s *Server) handleMutate(w http.ResponseWriter, r *http.Request) {
	ls := s.session(w, r)
	if ls == nil {
		return
	}
	body, err := readBody(w, r)
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	req, err := DecodeMutationRequest(body)
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	// The version fence and the apply are one atomic step against other
	// writers; readers never block on ls.mu — they serialize inside the
	// session itself.
	ls.mu.Lock()
	if req.BaseVersion != nil && *req.BaseVersion != ls.sess.Version() {
		cur := ls.sess.Version()
		ls.mu.Unlock()
		writeJSON(w, http.StatusConflict, map[string]any{
			"error":   fmt.Sprintf("version fence: batch built on %d, session at %d", *req.BaseVersion, cur),
			"version": cur,
		})
		return
	}
	err = ls.sess.Update(req.Mutation())
	ver := ls.sess.Version()
	ls.mu.Unlock()
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"version": ver})
}

func (s *Server) handleSimulate(w http.ResponseWriter, r *http.Request) {
	ls := s.session(w, r)
	if ls == nil {
		return
	}
	body, err := readBody(w, r)
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	spec, err := sim.DecodeSpec(body)
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	// The simulator is the session's single writer for the whole run (a
	// churned spec applies mutation batches through Update), so hold the
	// writer lock end to end: concurrent mutation batches would otherwise
	// interleave with the simulated churn stream. Readers stay unblocked —
	// they serialize inside the session itself.
	ls.mu.Lock()
	res, err := ls.sess.Simulate(r.Context(), sim.Config{Spec: spec})
	ver := ls.sess.Version()
	ls.mu.Unlock()
	if err != nil {
		writeComputeError(w, r, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"result": res, "version": ver})
}

// estimateJSON is the wire form of a sampled ζ/ϕ concentration summary.
type estimateJSON struct {
	Value          float64 `json:"value"`
	Evaluated      int     `json:"evaluated"`
	Strata         int     `json:"strata"`
	MeanStratumMax float64 `json:"mean_stratum_max"`
	HalfWidth95    float64 `json:"half_width95"`
}

func toEstimateJSON(e core.SampledEstimate) *estimateJSON {
	return &estimateJSON{
		Value:          e.Value,
		Evaluated:      e.Evaluated,
		Strata:         e.Strata,
		MeanStratumMax: e.MeanStratumMax,
		HalfWidth95:    e.HalfWidth95,
	}
}

// metricityHandler serves one triplet parameter of a session — ζ, or
// φ = lg ϕ — under key, with the sampled estimate's concentration summary
// when the session has one.
func (s *Server) metricityHandler(key string, value func(Session, context.Context) (float64, error),
	estimate func(Session) (core.SampledEstimate, bool)) func(http.ResponseWriter, *http.Request) {
	return func(w http.ResponseWriter, r *http.Request) {
		ls := s.session(w, r)
		if ls == nil {
			return
		}
		v, err := value(ls.sess, r.Context())
		if err != nil {
			writeComputeError(w, r, err)
			return
		}
		approx, _ := ls.sess.MetricityApproximate()
		resp := map[string]any{key: v, "version": ls.sess.Version(), "approximate": approx}
		if est, ok := estimate(ls.sess); ok {
			resp["estimate"] = toEstimateJSON(est)
		}
		writeJSON(w, http.StatusOK, resp)
	}
}

// powerOf builds the request's power vector from the query: power =
// uniform (default) | linear | mean, scale = positive float (default 1).
func powerOf(r *http.Request, sess Session) (sinr.Power, error) {
	scale := 1.0
	if v := r.URL.Query().Get("scale"); v != "" {
		f, err := strconv.ParseFloat(v, 64)
		if err != nil || !finite(f) || f <= 0 {
			return nil, fmt.Errorf("scale %q: want a positive finite float", v)
		}
		scale = f
	}
	switch p := r.URL.Query().Get("power"); p {
	case "", "uniform":
		return sess.UniformPower(scale), nil
	case "linear":
		return sess.LinearPower(scale), nil
	case "mean":
		return sess.MeanPower(scale), nil
	default:
		return nil, fmt.Errorf("power %q: want uniform, linear or mean", p)
	}
}

// jsonRow marshals a float row exactly (shortest round-trip float syntax);
// +Inf entries — a dead link's affectance — become the JSON string "Inf",
// which plain JSON cannot carry as a number.
type jsonRow []float64

func (row jsonRow) MarshalJSON() ([]byte, error) {
	var sb strings.Builder
	sb.WriteByte('[')
	for i, v := range row {
		if i > 0 {
			sb.WriteByte(',')
		}
		if math.IsInf(v, 1) {
			sb.WriteString(`"Inf"`)
			continue
		}
		sb.WriteString(strconv.FormatFloat(v, 'g', -1, 64))
	}
	sb.WriteByte(']')
	return []byte(sb.String()), nil
}

func (s *Server) handleAffectance(w http.ResponseWriter, r *http.Request) {
	ls := s.session(w, r)
	if ls == nil {
		return
	}
	lv := r.URL.Query().Get("link")
	link, err := strconv.Atoi(lv)
	if err != nil {
		writeError(w, http.StatusBadRequest, fmt.Sprintf("link %q: want an integer link index", lv))
		return
	}
	p, err := powerOf(r, ls.sess)
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	aff, err := ls.sess.AffectancesCtx(r.Context(), p)
	if err != nil {
		writeComputeError(w, r, err)
		return
	}
	if link < 0 || link >= aff.N() {
		writeError(w, http.StatusBadRequest, fmt.Sprintf("link %d outside [0,%d)", link, aff.N()))
		return
	}
	row := make(jsonRow, aff.N())
	for v := range row {
		row[v] = aff.Raw(link, v)
	}
	writeJSON(w, http.StatusOK, map[string]any{"link": link, "row": row, "version": ls.sess.Version()})
}

func (s *Server) handleCapacity(w http.ResponseWriter, r *http.Request) {
	ls := s.session(w, r)
	if ls == nil {
		return
	}
	p, err := powerOf(r, ls.sess)
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	set, err := ls.sess.CapacityCtx(r.Context(), p, nil)
	if err != nil {
		writeComputeError(w, r, err)
		return
	}
	if set == nil {
		set = []int{}
	}
	writeJSON(w, http.StatusOK, map[string]any{"links": set, "size": len(set), "version": ls.sess.Version()})
}

func (s *Server) handleSchedule(w http.ResponseWriter, r *http.Request) {
	ls := s.session(w, r)
	if ls == nil {
		return
	}
	p, err := powerOf(r, ls.sess)
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	slots, err := ls.sess.ScheduleCtx(r.Context(), p, nil)
	if err != nil {
		writeComputeError(w, r, err)
		return
	}
	if slots == nil {
		slots = [][]int{}
	}
	writeJSON(w, http.StatusOK, map[string]any{"slots": slots, "version": ls.sess.Version()})
}

// --- Plumbing ---

func readBody(w http.ResponseWriter, r *http.Request) ([]byte, error) {
	return io.ReadAll(http.MaxBytesReader(w, r.Body, MaxRequestBytes))
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	// An encode failure after the header is written truncates the body,
	// which fails the client's decode — the correct failure mode here.
	_ = json.NewEncoder(w).Encode(v)
}

func writeError(w http.ResponseWriter, code int, msg string) {
	writeJSON(w, code, map[string]string{"error": msg})
}

// writeComputeError maps a failed session computation: a cancelled or
// abandoned request is load shedding (503), anything else is a bad
// request against this session (400).
func writeComputeError(w http.ResponseWriter, r *http.Request, err error) {
	if r.Context().Err() != nil {
		writeError(w, http.StatusServiceUnavailable, err.Error())
		return
	}
	writeError(w, http.StatusBadRequest, err.Error())
}
