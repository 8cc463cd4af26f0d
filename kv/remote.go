package kv

import (
	"bytes"
	"context"
	"fmt"
	"net"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/kvnet"
)

// remotePageSize is how many entries a remote iterator (or snapshot
// materialization) pulls per round trip.
const remotePageSize = 512

// remoteEngine speaks the kvnet protocol to one server. The underlying
// client pipelines requests over a single connection, and a request
// cancelled after it reached the connection closes it (the response
// stream can no longer be matched up), so the engine transparently
// re-dials on the next operation.
type remoteEngine struct {
	addr   string
	cfg    config
	closed atomic.Bool
	stats  *statsServer // nil unless WithStatsHandler

	mu sync.Mutex
	c  *kvnet.Client
}

func newRemoteEngine(cfg config, addr string) (*remoteEngine, error) {
	e := &remoteEngine{addr: addr, cfg: cfg}
	// Dial eagerly so an unreachable address fails at Dial, not at the
	// first operation.
	if _, err := e.client(); err != nil {
		return nil, err
	}
	return e, nil
}

// client returns the live connection, re-dialing if the previous one was
// closed or poisoned by a cancelled request. The dial happens outside
// e.mu: a slow or timing-out dial must not hold the lock and queue every
// other operation on the engine behind it for up to the dial timeout.
// Concurrent re-dials may race; the losers close their connections and
// adopt the winner's.
func (e *remoteEngine) client() (*kvnet.Client, error) {
	if e.closed.Load() {
		return nil, ErrClosed
	}
	e.mu.Lock()
	if e.c != nil && e.c.Healthy() {
		c := e.c
		e.mu.Unlock()
		return c, nil
	}
	e.mu.Unlock()

	conn, err := net.DialTimeout("tcp", e.addr, e.cfg.dialTimeout)
	if err != nil {
		return nil, fmt.Errorf("kv: dial %s: %w", e.addr, err)
	}
	c := kvnet.NewClient(conn)

	e.mu.Lock()
	defer e.mu.Unlock()
	if e.closed.Load() {
		// Close raced in while the dial was in flight: don't leak the
		// fresh connection and don't resurrect a closed engine.
		c.Close()
		return nil, ErrClosed
	}
	if e.c != nil && e.c.Healthy() {
		// Another goroutine finished its re-dial first; adopt its
		// connection so requests keep sharing one conn.
		c.Close()
		return e.c, nil
	}
	e.c = c
	return c, nil
}

func (e *remoteEngine) Put(ctx context.Context, key, value []byte) error {
	c, err := e.client()
	if err != nil {
		return err
	}
	return c.Put(ctx, key, value)
}

func (e *remoteEngine) Get(ctx context.Context, key []byte) ([]byte, error) {
	c, err := e.client()
	if err != nil {
		return nil, err
	}
	return c.Get(ctx, key)
}

func (e *remoteEngine) Delete(ctx context.Context, key []byte) error {
	c, err := e.client()
	if err != nil {
		return err
	}
	return c.Delete(ctx, key)
}

func (e *remoteEngine) Write(ctx context.Context, b *Batch) error {
	if b == nil || b.Len() == 0 {
		return nil
	}
	// Enforce the batch cap before shipping: the server would reject it
	// anyway, and an over-cap batch can also exceed the wire frame limit.
	if b.SizeBytes() > MaxBatchBytes {
		return fmt.Errorf("%w: %d bytes > %d", ErrBatchTooLarge, b.SizeBytes(), MaxBatchBytes)
	}
	ops := make([]kvnet.BatchOp, b.Len())
	for i := 0; i < b.Len(); i++ {
		key, value, del := b.wb.Op(i)
		ops[i] = kvnet.BatchOp{Delete: del, Key: key, Value: value}
	}
	c, err := e.client()
	if err != nil {
		return err
	}
	return c.Write(ctx, ops)
}

func (e *remoteEngine) NewIterator(ctx context.Context, start, end []byte) (Iterator, error) {
	start, end = normBound(start), normBound(end)
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if e.closed.Load() {
		return nil, ErrClosed
	}
	if start != nil && end != nil && bytes.Compare(start, end) >= 0 {
		return emptyIterator{}, nil
	}
	it := &remoteIterator{e: e, ctx: ctx, end: end, next: start, more: true}
	it.fill()
	return it, nil
}

func (e *remoteEngine) Snapshot(ctx context.Context) (Snapshot, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if e.closed.Load() {
		return nil, ErrClosed
	}
	// Materialize the key space client-side, page by page. The result is
	// isolated from every write after Snapshot returns; writes concurrent
	// with the page pulls may straddle page boundaries (the server holds
	// no cursor state between pages).
	var entries []kvnet.ScanEntry
	var next []byte
	for {
		c, err := e.client()
		if err != nil {
			return nil, err
		}
		page, err := c.Range(ctx, next, nil, remotePageSize)
		if err != nil {
			return nil, err
		}
		entries = append(entries, page...)
		if len(page) < remotePageSize {
			break
		}
		next = keySuccessor(page[len(page)-1].Key)
	}
	return &remoteSnapshot{engineClosed: &e.closed, entries: entries}, nil
}

func (e *remoteEngine) Flush(ctx context.Context) error {
	c, err := e.client()
	if err != nil {
		return err
	}
	return c.Flush(ctx)
}

func (e *remoteEngine) Compact(ctx context.Context, opts *CompactOptions) (*CompactionInfo, error) {
	strategy, k := e.cfg.compactStrategy, e.cfg.compactK
	if opts != nil {
		if opts.Strategy != "" {
			strategy = opts.Strategy
		}
		if opts.K >= 2 {
			k = opts.K
		}
	}
	c, err := e.client()
	if err != nil {
		return nil, err
	}
	info, err := c.Compact(ctx, strategy, k)
	if err != nil {
		return nil, err
	}
	return &CompactionInfo{
		Strategy:     strategy,
		TablesBefore: int(info.TablesBefore),
		Merges:       int(info.Merges),
		BytesRead:    info.BytesRead,
		BytesWritten: info.BytesWritten,
		CostActual:   int(info.CostActual),
		Duration:     time.Duration(info.DurationMicro) * time.Microsecond,
	}, nil
}

func (e *remoteEngine) Stats(ctx context.Context) (Stats, error) {
	c, err := e.client()
	if err != nil {
		return Stats{}, err
	}
	st, err := c.Stats(ctx)
	if err != nil {
		return Stats{}, err
	}
	return Stats{
		Backend:           "remote",
		Tables:            int(st.Tables),
		TableBytes:        st.TableBytes,
		MemtableKeys:      int(st.MemtableKeys),
		Flushes:           int(st.Flushes),
		MinorCompactions:  int(st.MinorCompactions),
		MajorCompactions:  int(st.MajorCompactions),
		WriteStalls:       int(st.WriteStalls),
		GroupCommits:      st.GroupCommits,
		GroupedWrites:     st.GroupedWrites,
		WALSyncs:          st.WALSyncs,
		ReadOnly:          st.ReadOnly != 0,
		QuarantinedTables: int(st.QuarantinedTables),
		CleanupFailures:   st.CleanupFailures,
	}, nil
}

// Close closes the connection. Unlike the embedded backends, closing a
// remote engine does not close the server's store; it is idempotent.
func (e *remoteEngine) Close() error {
	if !e.closed.CompareAndSwap(false, true) {
		return nil
	}
	if e.stats != nil {
		e.stats.Close()
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.c != nil {
		return e.c.Close()
	}
	return nil
}

func (e *remoteEngine) statsListenAddr() string {
	if e.stats == nil {
		return ""
	}
	return e.stats.Addr()
}

// keySuccessor returns the smallest key strictly greater than key: the
// continuation point of a page that ended at key.
func keySuccessor(key []byte) []byte {
	next := make([]byte, len(key)+1)
	copy(next, key)
	return next
}

// remoteIterator pages through a key range one OpRange round trip at a
// time. Each page is a consistent server-side view, but pages are
// independent snapshots — a concurrent writer may be visible in one page
// and not the previous.
type remoteIterator struct {
	e    *remoteEngine
	ctx  context.Context
	end  []byte
	next []byte // continuation key for the next page
	more bool   // server may have more entries past next

	buf    []kvnet.ScanEntry
	pos    int
	err    error
	closed bool
}

// fill pulls the next page into buf; on return either buf has entries,
// the range is exhausted, or err is set.
func (it *remoteIterator) fill() {
	it.buf, it.pos = nil, 0
	for it.more && it.err == nil {
		if it.e.closed.Load() {
			it.err = ErrClosed
			return
		}
		c, err := it.e.client()
		if err != nil {
			it.err = err
			return
		}
		page, err := c.Range(it.ctx, it.next, it.end, remotePageSize)
		if err != nil {
			it.err = err
			return
		}
		if len(page) < remotePageSize {
			it.more = false
		} else {
			it.next = keySuccessor(page[len(page)-1].Key)
		}
		if len(page) > 0 {
			it.buf = page
			return
		}
	}
}

func (it *remoteIterator) Valid() bool {
	return it.err == nil && !it.closed && it.pos < len(it.buf)
}

func (it *remoteIterator) Key() []byte {
	if !it.Valid() {
		return nil
	}
	return it.buf[it.pos].Key
}

func (it *remoteIterator) Value() []byte {
	if !it.Valid() {
		return nil
	}
	return it.buf[it.pos].Value
}

func (it *remoteIterator) Next() {
	if it.closed {
		if it.err == nil {
			it.err = ErrClosed
		}
		return
	}
	if it.err != nil {
		return
	}
	if it.e.closed.Load() {
		it.err = ErrClosed
		return
	}
	it.pos++
	if it.pos >= len(it.buf) {
		it.fill()
	}
}

func (it *remoteIterator) Err() error { return it.err }

func (it *remoteIterator) Close() error {
	it.closed = true
	it.buf = nil
	return nil
}

// remoteSnapshot is a client-side materialized view.
type remoteSnapshot struct {
	engineClosed *atomic.Bool
	released     atomic.Bool
	entries      []kvnet.ScanEntry // sorted by key
}

func (s *remoteSnapshot) Get(ctx context.Context, key []byte) ([]byte, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if s.released.Load() || s.engineClosed.Load() {
		return nil, ErrClosed
	}
	i := sort.Search(len(s.entries), func(i int) bool {
		return bytes.Compare(s.entries[i].Key, key) >= 0
	})
	if i < len(s.entries) && bytes.Equal(s.entries[i].Key, key) {
		return append([]byte(nil), s.entries[i].Value...), nil
	}
	return nil, ErrNotFound
}

func (s *remoteSnapshot) NewIterator(ctx context.Context, start, end []byte) (Iterator, error) {
	start, end = normBound(start), normBound(end)
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if s.released.Load() || s.engineClosed.Load() {
		return nil, ErrClosed
	}
	if start != nil && end != nil && bytes.Compare(start, end) >= 0 {
		return emptyIterator{}, nil
	}
	entries := s.entries
	if start != nil {
		i := sort.Search(len(entries), func(i int) bool {
			return bytes.Compare(entries[i].Key, start) >= 0
		})
		entries = entries[i:]
	}
	if end != nil {
		i := sort.Search(len(entries), func(i int) bool {
			return bytes.Compare(entries[i].Key, end) >= 0
		})
		entries = entries[:i]
	}
	return &sliceIterator{ctx: ctx, entries: entries, engineClosed: s.engineClosed}, nil
}

func (s *remoteSnapshot) Release() { s.released.Store(true) }

// sliceIterator iterates a materialized entry slice.
type sliceIterator struct {
	ctx          context.Context
	entries      []kvnet.ScanEntry
	engineClosed *atomic.Bool
	pos          int
	err          error
	closed       bool
}

func (it *sliceIterator) Valid() bool {
	if it.err != nil || it.closed {
		return false
	}
	if it.engineClosed.Load() {
		it.err = ErrClosed
		return false
	}
	return it.pos < len(it.entries)
}

func (it *sliceIterator) Key() []byte {
	if !it.Valid() {
		return nil
	}
	return it.entries[it.pos].Key
}

func (it *sliceIterator) Value() []byte {
	if !it.Valid() {
		return nil
	}
	return it.entries[it.pos].Value
}

func (it *sliceIterator) Next() {
	if it.closed {
		if it.err == nil {
			it.err = ErrClosed
		}
		return
	}
	if it.err != nil {
		return
	}
	if err := it.ctx.Err(); err != nil {
		it.err = err
		return
	}
	it.pos++
}

func (it *sliceIterator) Err() error { return it.err }

func (it *sliceIterator) Close() error {
	it.closed = true
	return nil
}

var _ Engine = (*remoteEngine)(nil)
