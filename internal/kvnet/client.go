package kvnet

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/kverr"
)

// ErrNotFound reports a missing key. It aliases the canonical sentinel in
// internal/kverr — the same value the embedded engine returns — so a Get
// against a remote server and one against a local store fail identically.
var ErrNotFound = kverr.ErrNotFound

// ErrClientClosed reports use of a Client whose connection has been closed
// or poisoned by a cancelled request.
var ErrClientClosed = errors.New("kvnet: client closed")

// Client is a connection to one server. It is safe for concurrent use and
// pipelines: many requests may be in flight on the one connection at
// once, and the server answers them in the order they were sent (as in
// HTTP/1.1 pipelining; the wire format carries no request tags).
//
// A caller encodes its frame, appends it to the connection's write buffer
// under a short write lock and then waits for its own response. The last
// caller queued for the write lock flushes, so frames that arrive
// together share one write syscall; nothing ever waits for more frames to
// arrive. Responses are read by whichever waiting caller holds the read
// lock: it hands the frames before its own to their callers in FIFO order
// and stops at its own, so a lone request costs no goroutine switch.
//
// Cancellation: a caller whose context ends stops waiting at once. If its
// frame has not reached the write buffer, the request simply never
// happens and the connection stays usable. If it has, the frame stream
// can no longer be matched up, so the client closes the connection: the
// other in-flight calls fail with ErrClientClosed, as does every later
// call. Callers that need to survive cancelled requests re-dial — the
// public kv façade and the cluster router do this transparently.
type Client struct {
	conn net.Conn

	// wlock is the write lock, a one-slot semaphore so that a caller
	// queued for it can give up when its context ends. It guards w.
	wlock chan struct{}
	w     *bufio.Writer
	// queued counts callers that have asked for wlock and not yet
	// written their frame. The holder flushes only when it is the last.
	queued atomic.Int32

	// rlock is the read lock, taken by a waiting caller to read
	// responses; it guards r.
	rlock chan struct{}
	r     *bufio.Reader

	// closed is set once the connection is closed or poisoned; done is
	// closed at the same moment, waking every waiting caller.
	closed atomic.Bool
	done   chan struct{}

	mu      sync.Mutex
	pending []*call // calls whose frames were written, oldest first
}

// call is one request awaiting its response. Whoever removes it from
// Client.pending sets payload or err; unless that is the call's own
// caller reading its response, it then signals ready, exactly once.
type call struct {
	ready   chan struct{} // buffered 1
	payload []byte
	err     error
}

// frames recycles the buffers requests are encoded into before they are
// copied into the connection's write buffer.
var frames = sync.Pool{New: func() any { return new([]byte) }}

// maxPooledFrame caps the buffers frames keeps, so one huge request does
// not pin its buffer.
const maxPooledFrame = 64 << 10

// Dial connects to a server at addr.
func Dial(addr string) (*Client, error) {
	conn, err := net.DialTimeout("tcp", addr, 10*time.Second)
	if err != nil {
		return nil, fmt.Errorf("kvnet: dial: %w", err)
	}
	return NewClient(conn), nil
}

// NewClient wraps an established connection (useful with net.Pipe in
// tests).
func NewClient(conn net.Conn) *Client {
	return &Client{
		conn:  conn,
		wlock: make(chan struct{}, 1),
		w:     bufio.NewWriter(conn),
		rlock: make(chan struct{}, 1),
		r:     bufio.NewReader(conn),
		done:  make(chan struct{}),
	}
}

// Close closes the connection and fails every pending call with
// ErrClientClosed. It takes no lock a request can hold across I/O, so it
// also tears down a connection wedged in a blocked write or read.
func (c *Client) Close() error {
	return c.fail(ErrClientClosed)
}

// Healthy reports whether the client's connection is still usable: not
// closed and not poisoned by a cancelled or failed request.
func (c *Client) Healthy() bool {
	return !c.closed.Load()
}

// fail marks the connection unusable, closes it and hands err to every
// pending call. The first failure wins; later ones are no-ops. It returns
// the error of closing the connection, nil when it was already closed.
func (c *Client) fail(err error) error {
	c.mu.Lock()
	if c.closed.Load() {
		c.mu.Unlock()
		return nil
	}
	c.closed.Store(true)
	close(c.done)
	pending := c.pending
	c.pending = nil
	c.mu.Unlock()
	closeErr := c.conn.Close()
	for _, cl := range pending {
		cl.err = err
		cl.ready <- struct{}{}
	}
	return closeErr
}

// roundTrip sends one request and waits for its response; see Client for
// what happens when ctx ends on the way.
func (c *Client) roundTrip(ctx context.Context, req Request) (Response, error) {
	if err := ctx.Err(); err != nil {
		return Response{}, err
	}
	if c.closed.Load() {
		return Response{}, ErrClientClosed
	}
	buf := frames.Get().(*[]byte)
	frame := appendRequest(frameStart((*buf)[:0]), req)
	if err := sealFrame(frame); err != nil {
		return Response{}, err
	}
	cl := &call{ready: make(chan struct{}, 1)}
	stop, err := c.send(ctx, cl, frame)
	if cap(frame) <= maxPooledFrame {
		*buf = frame
		frames.Put(buf)
	}
	if err != nil {
		return Response{}, err
	}
	err = c.await(ctx, cl)
	stop()
	if err != nil {
		return Response{}, err
	}
	resp, err := DecodeResponse(cl.payload)
	if err != nil {
		return Response{}, err
	}
	if resp.Status == StatusError {
		return resp, decodeServerError(resp.Code, resp.Err)
	}
	return resp, nil
}

// send writes frame, cl's request. It queues for the write lock, gives
// up with the connection intact if ctx ends first, and flushes unless
// another caller is queued to write after it. Once the frame is part of
// the stream, abandoning it means closing the connection: send arms a
// watcher that does so when ctx ends, which also releases a write or read
// blocked on a peer that stopped talking. The returned stop disarms it.
func (c *Client) send(ctx context.Context, cl *call, frame []byte) (stop func() bool, err error) {
	c.queued.Add(1)
	select {
	case c.wlock <- struct{}{}:
	case <-ctx.Done():
		c.leaveQueue()
		return nil, aborted(ctx)
	case <-c.done:
		c.leaveQueue()
		return nil, ErrClientClosed
	}
	if ctx.Err() != nil {
		// The lock and the deadline came due together; nothing is written.
		<-c.wlock
		c.leaveQueue()
		return nil, aborted(ctx)
	}
	c.mu.Lock()
	if c.closed.Load() {
		c.mu.Unlock()
		<-c.wlock
		c.queued.Add(-1)
		return nil, ErrClientClosed
	}
	c.pending = append(c.pending, cl)
	c.mu.Unlock()

	stop = func() bool { return true }
	if ctx.Done() != nil {
		stop = context.AfterFunc(ctx, func() { c.fail(ErrClientClosed) })
	}
	_, err = c.w.Write(frame)
	if c.queued.Add(-1) == 0 && err == nil {
		err = c.w.Flush()
	}
	<-c.wlock
	if err != nil {
		stop()
		switch {
		case ctx.Err() != nil:
			c.fail(ErrClientClosed)
			return nil, aborted(ctx)
		case c.closed.Load():
			return nil, ErrClientClosed // Close raced in and failed the write on purpose
		}
		c.fail(err)
		return nil, err
	}
	return stop, nil
}

// await waits until cl is answered, reading responses itself whenever no
// other caller is. If ctx ends first, it abandons the request and closes
// the connection.
func (c *Client) await(ctx context.Context, cl *call) error {
	for {
		select {
		case <-cl.ready:
			if cl.err != nil && ctx.Err() != nil {
				return aborted(ctx) // the watcher closed the connection
			}
			return cl.err
		case c.rlock <- struct{}{}:
			own := c.readFor(cl)
			<-c.rlock
			if own {
				return nil
			}
		case <-ctx.Done():
			select {
			case <-cl.ready: // the response may have won the race
			default:
				c.fail(ErrClientClosed)
				<-cl.ready // fail answered cl, or the reader that took it is about to
			}
			if cl.err != nil {
				return aborted(ctx)
			}
			return nil
		}
	}
}

// readFor reads response frames, handing each to the oldest pending call,
// until it reads cl's own (it reports true). It reports false when the
// connection fails or cl was answered by another reader; cl.ready is
// signalled then. The caller holds rlock.
func (c *Client) readFor(cl *call) bool {
	if len(cl.ready) > 0 || c.closed.Load() {
		return false
	}
	for {
		payload, err := readFrame(c.r)
		if err != nil {
			c.fail(err)
			return false
		}
		c.mu.Lock()
		if len(c.pending) == 0 {
			c.mu.Unlock()
			c.fail(fmt.Errorf("kvnet: response with no request pending: %w", ErrProtocol))
			return false
		}
		// Shift rather than reslice, so the queue reuses one array.
		head := c.pending[0]
		n := copy(c.pending, c.pending[1:])
		c.pending[n] = nil
		c.pending = c.pending[:n]
		c.mu.Unlock()
		head.payload = payload
		if head == cl {
			return true
		}
		head.ready <- struct{}{}
	}
}

// leaveQueue withdraws a caller that will not write after all. If it was
// the last one queued, the holders before it left their frames in the
// buffer for it to flush; a goroutine flushes them once the lock is free.
// It exits after that flush, or at once when the connection fails.
func (c *Client) leaveQueue() {
	if c.queued.Add(-1) == 0 {
		go c.flushStranded()
	}
}

func (c *Client) flushStranded() {
	select {
	case c.wlock <- struct{}{}:
	case <-c.done:
		return
	}
	var err error
	if c.queued.Load() == 0 && c.w.Buffered() > 0 {
		err = c.w.Flush()
	}
	<-c.wlock
	if err != nil {
		c.fail(err)
	}
}

// aborted is the error of a request given up because ctx ended.
func aborted(ctx context.Context) error {
	return fmt.Errorf("kvnet: request aborted: %w", ctx.Err())
}

// decodeServerError maps a wire error code back to the canonical sentinel
// it was encoded from, so remote engine errors compare with errors.Is
// exactly like local ones.
func decodeServerError(code ErrCode, msg string) error {
	switch code {
	case CodeClosed:
		return fmt.Errorf("kvnet: server: %w", kverr.ErrClosed)
	case CodeStalled:
		return fmt.Errorf("kvnet: server: %w", kverr.ErrStalled)
	case CodeBatchTooLarge:
		return fmt.Errorf("kvnet: server: %w", kverr.ErrBatchTooLarge)
	case CodeCorrupt:
		return fmt.Errorf("kvnet: server: %w", kverr.ErrCorrupt)
	case CodeReadOnly:
		return fmt.Errorf("kvnet: server: %w", kverr.ErrReadOnly)
	case CodeCanceled:
		return fmt.Errorf("kvnet: server: %w", context.Canceled)
	case CodeDeadlineExceeded:
		return fmt.Errorf("kvnet: server: %w", context.DeadlineExceeded)
	default:
		return fmt.Errorf("kvnet: server: %s", msg)
	}
}

// Put stores key → value.
func (c *Client) Put(ctx context.Context, key, value []byte) error {
	_, err := c.roundTrip(ctx, Request{Op: OpPut, Key: key, Value: value})
	return err
}

// Get returns the value for key, or ErrNotFound. A stored empty value and
// a missing key are distinct: the former returns an empty slice and nil
// error, the latter ErrNotFound (the wire protocol carries not-found as an
// explicit status, not as an empty value).
func (c *Client) Get(ctx context.Context, key []byte) ([]byte, error) {
	resp, err := c.roundTrip(ctx, Request{Op: OpGet, Key: key})
	if err != nil {
		return nil, err
	}
	if resp.Status == StatusNotFound {
		return nil, ErrNotFound
	}
	return resp.Value, nil
}

// Delete removes key.
func (c *Client) Delete(ctx context.Context, key []byte) error {
	_, err := c.roundTrip(ctx, Request{Op: OpDelete, Key: key})
	return err
}

// Write commits a batch of operations atomically in one round trip: the
// server applies the whole batch through the engine's group-commit
// pipeline, so it becomes durable and visible as a unit. An empty batch is
// a no-op.
func (c *Client) Write(ctx context.Context, batch []BatchOp) error {
	if len(batch) == 0 {
		return nil
	}
	_, err := c.roundTrip(ctx, Request{Op: OpWrite, Batch: batch})
	return err
}

// Scan returns up to limit entries whose keys start with prefix (all keys
// when prefix is empty), in key order.
func (c *Client) Scan(ctx context.Context, prefix []byte, limit int) ([]ScanEntry, error) {
	if limit < 0 {
		limit = 0
	}
	resp, err := c.roundTrip(ctx, Request{Op: OpScan, Prefix: prefix, Limit: uint64(limit)})
	if err != nil {
		return nil, err
	}
	return resp.Entries, nil
}

// Range returns up to limit entries with start <= key < end in key order —
// one page of a range scan. A nil end means no upper bound. Iterating a
// large range means calling Range repeatedly with start advanced past the
// last key of the previous page.
func (c *Client) Range(ctx context.Context, start, end []byte, limit int) ([]ScanEntry, error) {
	if limit < 0 {
		limit = 0
	}
	resp, err := c.roundTrip(ctx, Request{Op: OpRange, Start: start, End: end, Limit: uint64(limit)})
	if err != nil {
		return nil, err
	}
	return resp.Entries, nil
}

// Ping probes the server for liveness without touching the engine. A nil
// return means the peer decoded a frame and answered: the connection is
// live end to end. Health checkers call it on an interval so dead peers
// are demoted before user requests hit them.
func (c *Client) Ping(ctx context.Context) error {
	_, err := c.roundTrip(ctx, Request{Op: OpPing})
	return err
}

// Flush forces a memtable flush on the server.
func (c *Client) Flush(ctx context.Context) error {
	_, err := c.roundTrip(ctx, Request{Op: OpFlush})
	return err
}

// Compact triggers a major compaction scheduled by the named strategy.
func (c *Client) Compact(ctx context.Context, strategy string, k int) (*CompactInfo, error) {
	resp, err := c.roundTrip(ctx, Request{Op: OpCompact, Strategy: strategy, K: uint64(k)})
	if err != nil {
		return nil, err
	}
	if resp.Compact == nil {
		return nil, fmt.Errorf("kvnet: malformed compact response: %w", ErrProtocol)
	}
	return resp.Compact, nil
}

// Stats fetches server statistics.
func (c *Client) Stats(ctx context.Context) (*StatsInfo, error) {
	resp, err := c.roundTrip(ctx, Request{Op: OpStats})
	if err != nil {
		return nil, err
	}
	if resp.Stats == nil {
		return nil, fmt.Errorf("kvnet: malformed stats response: %w", ErrProtocol)
	}
	return resp.Stats, nil
}
