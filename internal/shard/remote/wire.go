// Package remote is the cross-machine shard transport: a length-prefixed
// JSON-over-TCP protocol carrying the shard.Worker job/result structs
// between a coordinator and remote worker processes, each holding its own
// replica of the session's dense decay space.
//
// The package has three layers:
//
//   - the wire protocol (this file + client.go + server.go): framed
//     request/response exchanges multiplexed over one TCP connection, with
//     a Sync handshake shipping a full-space snapshot to a (re)joining
//     worker and version-stamped Mutate batches keeping replicas current —
//     every scan request carries the coordinator's replica version and a
//     worker whose replica is behind answers with a typed stale-version
//     error instead of scanning stale state;
//
//   - the fault-tolerance layer (pool.go): a Pool of remote workers whose
//     per-slot robust workers enforce per-job deadlines, retry transient
//     failures with capped exponential backoff plus jitter, declare a
//     worker dead after repeated failures and reassign its row-range job
//     to surviving workers — or compute it locally on the coordinator's
//     own replica as graceful degradation — and re-admit a rejoining
//     worker only after a fresh Sync has caught it up past the version
//     fence. Results stay bit-identical under every failure because all
//     replicas hold the same space and the coordinator merges partials by
//     row range, not arrival order;
//
//   - the fault-injection harness (fault.go): a deterministic seeded
//     Transport wrapper injecting drops, delays, error returns,
//     stale-version replies and mid-job connection crashes, driving the
//     remote equivalence wall.
//
// Float arrays on the wire (space snapshots, mutation rows, affectance
// inputs/blocks) are encoded as base64 of their little-endian IEEE-754
// bits rather than decimal JSON numbers: bit-exact round-trips by
// construction (the equivalence wall's contract), ±Inf-safe (affectance
// factors of dead links), and about half the bytes of shortest-decimal
// encoding.
package remote

import (
	"encoding/base64"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"

	"decaynet/internal/shard"
)

// Protocol methods. The scan methods mirror shard.Worker one-to-one; each
// scan job names its core.Param.
const (
	methodSync   = "sync"
	methodMutate = "mutate"
	methodPing   = "ping"
	methodCancel = "cancel"

	methodMax     = "max"
	methodBand    = "band"
	methodRepair  = "repair"
	methodAffRows = "aff_rows"
)

// Error kinds a worker can answer with. The pool maps them to recovery
// actions: stale_version and no_replica trigger a Sync and a retry, the
// rest count as job failures toward declaring the worker dead.
const (
	// KindStale: the worker's replica version doesn't match the version
	// stamped on the request — it missed a mutation batch (or the
	// coordinator restarted). The worker must be re-synced past the fence
	// before it may serve scans again.
	KindStale = "stale_version"
	// KindNoReplica: the worker has no replica yet (a late joiner that
	// never completed the Sync handshake).
	KindNoReplica = "no_replica"
	// KindBadRequest: the request was malformed (undecodable job, unknown
	// method or parameter, rows or nodes outside the replica).
	KindBadRequest = "bad_request"
	// KindCancelled: the job's context was cancelled server-side.
	KindCancelled = "cancelled"
	// KindInternal: the scan itself failed.
	KindInternal = "internal"
)

// Error is a typed worker-side failure carried over the wire.
type Error struct {
	Kind string
	Msg  string
}

func (e *Error) Error() string { return "remote: " + e.Kind + ": " + e.Msg }

// NeedsSync reports whether err is a worker-side answer that a fresh Sync
// handshake would cure: a stale replica or no replica at all.
func NeedsSync(err error) bool {
	var re *Error
	if errors.As(err, &re) {
		return re.Kind == KindStale || re.Kind == KindNoReplica
	}
	return false
}

// request is one framed call. ID 0 is reserved for fire-and-forget frames
// (cancel), which get no response.
type request struct {
	ID      uint64          `json:"id"`
	Method  string          `json:"method"`
	Version uint64          `json:"v,omitempty"`
	Job     json.RawMessage `json:"job,omitempty"`
}

// response answers the request with the matching ID.
type response struct {
	ID     uint64          `json:"id"`
	Kind   string          `json:"kind,omitempty"`
	Err    string          `json:"err,omitempty"`
	Result json.RawMessage `json:"result,omitempty"`
}

// Floats is a []float64 that marshals as base64 little-endian IEEE-754
// bits: bit-exact (no decimal round-trip), ±Inf/NaN-safe, and compact.
type Floats []float64

// MarshalJSON implements json.Marshaler.
func (f Floats) MarshalJSON() ([]byte, error) {
	raw := make([]byte, 8*len(f))
	for i, v := range f {
		binary.LittleEndian.PutUint64(raw[8*i:], math.Float64bits(v))
	}
	return wrapBase64(raw), nil
}

// UnmarshalJSON implements json.Unmarshaler.
func (f *Floats) UnmarshalJSON(data []byte) error {
	raw, err := unwrapBase64(data, 8)
	if err != nil {
		return err
	}
	vals := make([]float64, len(raw)/8)
	for i := range vals {
		vals[i] = math.Float64frombits(binary.LittleEndian.Uint64(raw[8*i:]))
	}
	*f = vals
	return nil
}

// Int32s is a []int32 that marshals as base64 little-endian bytes — the
// column-index and row-start arrays of a tiered snapshot (same reasoning
// as Floats: bit-exact, compact).
type Int32s []int32

// MarshalJSON implements json.Marshaler.
func (f Int32s) MarshalJSON() ([]byte, error) {
	raw := make([]byte, 4*len(f))
	for i, v := range f {
		binary.LittleEndian.PutUint32(raw[4*i:], uint32(v))
	}
	return wrapBase64(raw), nil
}

// UnmarshalJSON implements json.Unmarshaler.
func (f *Int32s) UnmarshalJSON(data []byte) error {
	raw, err := unwrapBase64(data, 4)
	if err != nil {
		return err
	}
	vals := make([]int32, len(raw)/4)
	for i := range vals {
		vals[i] = int32(binary.LittleEndian.Uint32(raw[4*i:]))
	}
	*f = vals
	return nil
}

// Float32s is a []float32 that marshals as base64 little-endian IEEE-754
// bits — the float32 tail pages of a tiered snapshot.
type Float32s []float32

// MarshalJSON implements json.Marshaler.
func (f Float32s) MarshalJSON() ([]byte, error) {
	raw := make([]byte, 4*len(f))
	for i, v := range f {
		binary.LittleEndian.PutUint32(raw[4*i:], math.Float32bits(v))
	}
	return wrapBase64(raw), nil
}

// UnmarshalJSON implements json.Unmarshaler.
func (f *Float32s) UnmarshalJSON(data []byte) error {
	raw, err := unwrapBase64(data, 4)
	if err != nil {
		return err
	}
	vals := make([]float32, len(raw)/4)
	for i := range vals {
		vals[i] = math.Float32frombits(binary.LittleEndian.Uint32(raw[4*i:]))
	}
	*f = vals
	return nil
}

// wrapBase64 encodes raw bytes as a quoted base64 JSON string.
func wrapBase64(raw []byte) []byte {
	out := make([]byte, 2+base64.StdEncoding.EncodedLen(len(raw)))
	out[0] = '"'
	base64.StdEncoding.Encode(out[1:], raw)
	out[len(out)-1] = '"'
	return out
}

// unwrapBase64 decodes a quoted base64 JSON string, requiring the payload
// length to be a multiple of stride.
func unwrapBase64(data []byte, stride int) ([]byte, error) {
	var s string
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("remote: packed array is not a base64 string: %w", err)
	}
	raw, err := base64.StdEncoding.DecodeString(s)
	if err != nil {
		return nil, fmt.Errorf("remote: packed array base64: %w", err)
	}
	if len(raw)%stride != 0 {
		return nil, fmt.Errorf("remote: packed array payload is %d bytes, not a multiple of %d", len(raw), stride)
	}
	return raw, nil
}

// TieredSnap is the tiered-session alternative to a dense Flat snapshot:
// the CSR near field, the tail payload (model + flattened point pairs, or
// float32 pages), and the streamed-scan pruning extrema — O(K·n) on the
// wire for a model tail instead of O(n²). The worker rebuilds a
// tier.Space via tier.FromSnapshot and a streamed replica via
// shard.NewStreamedReplicaFrom, so its row-range scans are bit-identical
// to the coordinator's local streamed scans. Tiered sessions are
// immutable, so no Mutate batch ever follows; the version still fences
// scans (a coordinator restart re-Syncs).
type TieredSnap struct {
	Sym       bool            `json:"sym"`
	Cfg       json.RawMessage `json:"cfg"`
	NearStart Int32s          `json:"near_start"`
	NearIdx   Int32s          `json:"near_idx"`
	NearVal   Floats          `json:"near_val"`
	F32       Float32s        `json:"f32,omitempty"`
	Model     json.RawMessage `json:"model,omitempty"`
	Pts       Floats          `json:"pts,omitempty"` // x0,y0,x1,y1,...
	LogMax    Floats          `json:"log_max,omitempty"`
	LogMin    Floats          `json:"log_min,omitempty"`
	FMax      Floats          `json:"f_max,omitempty"`
	FMin      Floats          `json:"f_min,omitempty"`
	TileRows  int             `json:"tile_rows,omitempty"`
	MaxTiles  int             `json:"max_tiles,omitempty"`
}

// SyncJob is the full-space snapshot handshake: the coordinator ships its
// space and replica version to a (re)joining worker, which rebuilds its
// replica from scratch. Dense sessions ship the flat matrix; tiered
// sessions ship the O(K·n) Tiered payload instead. Tol is the ζ bisection
// tolerance the worker's scan states must use (it parameterizes the root
// solve, so differing tolerances would break bit-identity).
type SyncJob struct {
	N       int         `json:"n"`
	Tol     float64     `json:"tol"`
	Version uint64      `json:"version"`
	Flat    Floats      `json:"flat,omitempty"`
	Tiered  *TieredSnap `json:"tiered,omitempty"`
}

// RowEdit carries one updated row (or column) of the dense space.
type RowEdit struct {
	Index int    `json:"i"`
	Vals  Floats `json:"vals"`
}

// MutateJob ships one applied session mutation to a worker replica,
// fenced on the replica version: the worker applies it only when its
// version equals BaseVersion, answering KindStale otherwise (it missed an
// earlier batch and must re-Sync). Rows hold the full post-mutation values
// of every dirty row; Cols the full post-mutation values of every dirty
// column (empty when RowsOnly). After applying, the worker patches its
// scan states exactly as the coordinator-side tracker patches its own.
type MutateJob struct {
	BaseVersion uint64    `json:"base_version"`
	Version     uint64    `json:"version"`
	Rows        []RowEdit `json:"rows,omitempty"`
	Cols        []RowEdit `json:"cols,omitempty"`
	Dirty       []int     `json:"dirty"`
	RowsOnly    bool      `json:"rows_only"`
}

// PingResult answers a heartbeat with the worker's replica version (0 when
// it has no replica yet).
type PingResult struct {
	Version uint64 `json:"version"`
	Synced  bool   `json:"synced"`
}

// cancelJob asks the worker to cancel the in-flight request with ID.
type cancelJob struct {
	ID uint64 `json:"id"`
}

// affJob mirrors shard.AffectanceJob with bit-exact float encoding (the
// noise factors of dead links are +Inf, which encoding/json rejects).
type affJob struct {
	Links  shard.Range `json:"links"`
	Factor Floats      `json:"factor"`
	Power  Floats      `json:"power"`
	Recv   []int       `json:"recv"`
	Send   []int       `json:"send"`
}

// shardJob converts the wire form back to the shard job.
func (j affJob) shardJob() shard.AffectanceJob {
	return shard.AffectanceJob{Links: j.Links, Factor: j.Factor, Power: j.Power, Recv: j.Recv, Send: j.Send}
}

// Validate checks the job against a replica of n nodes (see
// shard.AffectanceJob.Validate).
func (j affJob) Validate(n int) error { return j.shardJob().Validate(n) }

// affBlock mirrors shard.AffectanceBlock (same reasoning).
type affBlock struct {
	Lo   int    `json:"lo"`
	Rows Floats `json:"rows"`
}

// DefaultMaxFrame bounds a single frame (1 GiB): a full-space snapshot at
// n = 8192 is ~720 MB encoded, the largest payload the dense tier ships.
const DefaultMaxFrame = 1 << 30

// writeFrame marshals v and writes it as one length-prefixed frame.
func writeFrame(w io.Writer, v any) error {
	body, err := json.Marshal(v)
	if err != nil {
		return err
	}
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], uint32(len(body)))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	_, err = w.Write(body)
	return err
}

// frameChunk caps what readFrame allocates ahead of the bytes that back
// it: a peer's length header alone can claim up to maxFrame bytes.
const frameChunk = 1 << 20

// readFrame reads one length-prefixed frame body, rejecting frames larger
// than maxFrame. A frame of up to frameChunk bytes is read into one
// exactly sized buffer. A larger one allocates frameChunk only once its
// first body byte has arrived and doubles only as further bytes arrive,
// so a header with no body behind it costs no buffer at all.
func readFrame(r io.Reader, maxFrame int) ([]byte, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, err
	}
	size := binary.BigEndian.Uint32(hdr[:])
	if int64(size) > int64(maxFrame) {
		return nil, fmt.Errorf("remote: frame of %d bytes exceeds the %d-byte limit", size, maxFrame)
	}
	n := int(size)
	if n <= frameChunk {
		body := make([]byte, n)
		if _, err := io.ReadFull(r, body); err != nil {
			return nil, err
		}
		return body, nil
	}
	var first [1]byte
	if _, err := io.ReadFull(r, first[:]); err != nil {
		return nil, err
	}
	body := append(make([]byte, 0, frameChunk), first[0])
	for len(body) < n {
		if len(body) == cap(body) {
			grown := make([]byte, len(body), min(n, 2*cap(body)))
			copy(grown, body)
			body = grown
		}
		k, err := io.ReadFull(r, body[len(body):cap(body)])
		body = body[:len(body)+k]
		if err == io.EOF {
			err = io.ErrUnexpectedEOF // the first byte already arrived
		}
		if err != nil {
			return nil, err
		}
	}
	return body, nil
}
