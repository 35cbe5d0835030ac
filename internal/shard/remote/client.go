package remote

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"decaynet/internal/shard"
)

// Transport is the full coordinator-side view of one remote worker: the
// shard.Worker scan boundary plus the replica-lifecycle exchanges (Sync
// handshake, version-fenced mutation shipping, heartbeat) and connection
// teardown. *Client implements it over one TCP connection; FaultTransport
// wraps any implementation with deterministic fault injection.
type Transport interface {
	shard.Worker
	// Sync ships a full-space snapshot, (re)building the worker's replica
	// at the snapshot's version.
	Sync(ctx context.Context, snap SyncJob) error
	// Mutate ships one applied session mutation, fenced on BaseVersion.
	Mutate(ctx context.Context, mut MutateJob) error
	// Ping heartbeats the worker, returning its replica version.
	Ping(ctx context.Context) (PingResult, error)
	// Close tears the connection down; in-flight calls fail.
	Close() error
}

// ErrClosed is returned by calls on a closed (or broken) client.
var ErrClosed = errors.New("remote: connection closed")

// Client is the coordinator-side endpoint of one worker connection.
// Requests multiplex: any number of calls may be in flight concurrently
// (the pool's heartbeat pings a worker while its scan runs), each matched
// to its response by id. A context cancellation sends a best-effort cancel
// frame so the worker aborts the job instead of scanning on.
type Client struct {
	conn         net.Conn
	maxFrame     int
	writeTimeout time.Duration
	ver          func() uint64

	wmu sync.Mutex // serializes request frames

	mu      sync.Mutex
	nextID  uint64
	pending map[uint64]chan response
	err     error // set once the read loop dies
	closed  chan struct{}
}

// DialOptions parameterizes Dial.
type DialOptions struct {
	// DialTimeout bounds the TCP connect (default 10s).
	DialTimeout time.Duration
	// WriteTimeout bounds each request frame write (default 30s).
	WriteTimeout time.Duration
	// MaxFrame bounds response frames (default DefaultMaxFrame).
	MaxFrame int
	// Version, when non-nil, stamps every scan request with the
	// coordinator's replica version at call time, so the worker serves it
	// only when its replica sits exactly at that fence. Nil stamps 0.
	Version func() uint64
}

// Dial connects to a worker daemon at addr.
func Dial(addr string, opts DialOptions) (*Client, error) {
	dt := opts.DialTimeout
	if dt <= 0 {
		dt = 10 * time.Second
	}
	conn, err := net.DialTimeout("tcp", addr, dt)
	if err != nil {
		return nil, err
	}
	return NewClient(conn, opts), nil
}

// NewClient wraps an established connection (tests use net.Pipe).
func NewClient(conn net.Conn, opts DialOptions) *Client {
	wt := opts.WriteTimeout
	if wt <= 0 {
		wt = 30 * time.Second
	}
	mf := opts.MaxFrame
	if mf <= 0 {
		mf = DefaultMaxFrame
	}
	c := &Client{
		conn:         conn,
		maxFrame:     mf,
		writeTimeout: wt,
		ver:          opts.Version,
		pending:      make(map[uint64]chan response),
		closed:       make(chan struct{}),
	}
	go c.readLoop()
	return c
}

// readLoop dispatches response frames to their waiting calls until the
// connection dies, then fails every pending call.
func (c *Client) readLoop() {
	var rerr error
	for {
		body, err := readFrame(c.conn, c.maxFrame)
		if err != nil {
			rerr = err
			break
		}
		var resp response
		if err := json.Unmarshal(body, &resp); err != nil {
			rerr = fmt.Errorf("remote: undecodable response frame: %w", err)
			break
		}
		c.mu.Lock()
		ch := c.pending[resp.ID]
		delete(c.pending, resp.ID)
		c.mu.Unlock()
		if ch != nil {
			ch <- resp
		}
	}
	c.conn.Close()
	c.mu.Lock()
	if c.err == nil {
		c.err = fmt.Errorf("%w: %v", ErrClosed, rerr)
	}
	c.pending = nil // waiting calls are woken by the closed channel
	c.mu.Unlock()
	close(c.closed)
}

// Close tears the connection down.
func (c *Client) Close() error {
	c.mu.Lock()
	if c.err == nil {
		c.err = ErrClosed
	}
	c.mu.Unlock()
	return c.conn.Close()
}

// call performs one request/response exchange. result, when non-nil, is
// unmarshalled from the response payload.
func (c *Client) call(ctx context.Context, method string, version uint64, job any, result any) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	raw, err := json.Marshal(job)
	if err != nil {
		return err
	}
	ch := make(chan response, 1)
	c.mu.Lock()
	if c.err != nil {
		err := c.err
		c.mu.Unlock()
		return err
	}
	c.nextID++
	id := c.nextID
	c.pending[id] = ch
	c.mu.Unlock()

	if err := c.writeRequest(request{ID: id, Method: method, Version: version, Job: raw}); err != nil {
		c.mu.Lock()
		if c.pending != nil {
			delete(c.pending, id)
		}
		c.mu.Unlock()
		c.conn.Close() // a half-written frame poisons the stream
		return err
	}

	select {
	case resp := <-ch:
		if resp.Kind != "" || resp.Err != "" {
			return &Error{Kind: resp.Kind, Msg: resp.Err}
		}
		if result != nil {
			if err := json.Unmarshal(resp.Result, result); err != nil {
				return fmt.Errorf("remote: undecodable %s result: %w", method, err)
			}
		}
		return nil
	case <-ctx.Done():
		c.mu.Lock()
		if c.pending != nil {
			delete(c.pending, id)
		}
		c.mu.Unlock()
		// Best-effort cancel so the worker aborts the scan; a failed write
		// here means the conn is dying anyway.
		craw, _ := json.Marshal(cancelJob{ID: id})
		c.writeRequest(request{Method: methodCancel, Job: craw})
		return ctx.Err()
	case <-c.closed:
		c.mu.Lock()
		err := c.err
		c.mu.Unlock()
		return err
	}
}

func (c *Client) writeRequest(req request) error {
	c.wmu.Lock()
	defer c.wmu.Unlock()
	c.conn.SetWriteDeadline(time.Now().Add(c.writeTimeout))
	return writeFrame(c.conn, req)
}

// Sync implements Transport.
func (c *Client) Sync(ctx context.Context, snap SyncJob) error {
	return c.call(ctx, methodSync, 0, &snap, nil)
}

// Mutate implements Transport.
func (c *Client) Mutate(ctx context.Context, mut MutateJob) error {
	return c.call(ctx, methodMutate, 0, &mut, nil)
}

// Ping implements Transport.
func (c *Client) Ping(ctx context.Context) (PingResult, error) {
	var pr PingResult
	err := c.call(ctx, methodPing, 0, struct{}{}, &pr)
	return pr, err
}

// version is the fence stamped on every scan request.
func (c *Client) version() uint64 {
	if c.ver == nil {
		return 0
	}
	return c.ver()
}

// scanCall runs one version-fenced scan exchange.
func scanCall[R any](ctx context.Context, c *Client, method string, job any) (R, error) {
	var res R
	err := c.call(ctx, method, c.version(), job, &res)
	return res, err
}

// Max implements shard.Worker.
func (c *Client) Max(ctx context.Context, job shard.ScanJob) (shard.MaxResult, error) {
	return scanCall[shard.MaxResult](ctx, c, methodMax, &job)
}

// Band implements shard.Worker.
func (c *Client) Band(ctx context.Context, job shard.BandJob) (shard.BandResult, error) {
	return scanCall[shard.BandResult](ctx, c, methodBand, &job)
}

// Repair implements shard.Worker.
func (c *Client) Repair(ctx context.Context, job shard.RepairJob) (shard.BandResult, error) {
	return scanCall[shard.BandResult](ctx, c, methodRepair, &job)
}

// AffectanceRows implements shard.Worker.
func (c *Client) AffectanceRows(ctx context.Context, job shard.AffectanceJob) (shard.AffectanceBlock, error) {
	blk, err := scanCall[affBlock](ctx, c, methodAffRows, &affJob{
		Links: job.Links, Factor: job.Factor, Power: job.Power, Recv: job.Recv, Send: job.Send,
	})
	return shard.AffectanceBlock{Lo: blk.Lo, Rows: blk.Rows}, err
}
