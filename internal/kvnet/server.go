package kvnet

import (
	"bufio"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"time"

	"repro/internal/kverr"
	"repro/internal/lsm"
)

// Engine is the storage surface the server exposes over the wire. Both
// the single-partition engine (*lsm.DB) and the sharded store
// (*store.Store) satisfy it, so a node can serve one shard or many behind
// the same protocol. Context-taking methods let the server abort in-flight
// work — a scan mid-drain, a write parked in the commit queue — when it
// shuts down.
type Engine interface {
	PutContext(ctx context.Context, key, value []byte) error
	GetContext(ctx context.Context, key []byte) ([]byte, error)
	DeleteContext(ctx context.Context, key []byte) error
	WriteContext(ctx context.Context, b *lsm.WriteBatch) error
	RangeContext(ctx context.Context, start, end []byte, fn func(key, value []byte) error) error
	Flush() error
	MajorCompact(strategy string, k int, seed int64) (*lsm.CompactionResult, error)
	Stats() lsm.Stats
}

// Default connection deadlines; see the Server fields of the same names.
const (
	DefaultIdleTimeout  = 5 * time.Minute
	DefaultWriteTimeout = time.Minute
)

// Server serves one storage engine to many concurrent connections.
// Connection handling is one goroutine per connection; the engine provides
// its own synchronization. A connection's requests run one at a time and
// are answered in order, so a client may pipeline them.
type Server struct {
	db Engine

	// IdleTimeout bounds how long a connection may sit between requests
	// (the read deadline while waiting for the next frame); a peer that
	// died without closing its socket is reaped instead of pinning a
	// handler goroutine forever. Zero disables. Set before Serve.
	IdleTimeout time.Duration
	// WriteTimeout bounds writing out the responses a connection owes;
	// a peer that stopped reading cannot wedge a handler in a blocked
	// send. Zero disables. Set before Serve.
	WriteTimeout time.Duration

	// baseCtx is cancelled by Close; every request executes under it, so
	// in-flight scans and parked writes abort at server shutdown.
	baseCtx context.Context
	cancel  context.CancelFunc

	mu     sync.Mutex
	ln     net.Listener
	conns  map[net.Conn]struct{}
	closed bool
	wg     sync.WaitGroup
}

// NewServer wraps db. The caller retains ownership of db and closes it
// after the server shuts down.
func NewServer(db Engine) *Server {
	ctx, cancel := context.WithCancel(context.Background())
	return &Server{
		db:           db,
		IdleTimeout:  DefaultIdleTimeout,
		WriteTimeout: DefaultWriteTimeout,
		baseCtx:      ctx,
		cancel:       cancel,
		conns:        make(map[net.Conn]struct{}),
	}
}

// Serve accepts connections on ln until Close is called. It always returns
// a non-nil error; after Close the error is net.ErrClosed.
func (s *Server) Serve(ln net.Listener) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return net.ErrClosed
	}
	s.ln = ln
	s.mu.Unlock()
	for {
		conn, err := ln.Accept()
		if err != nil {
			return err
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			conn.Close()
			return net.ErrClosed
		}
		s.conns[conn] = struct{}{}
		s.wg.Add(1)
		s.mu.Unlock()
		go func() {
			defer s.wg.Done()
			s.handle(conn)
			s.mu.Lock()
			delete(s.conns, conn)
			s.mu.Unlock()
		}()
	}
}

// Close stops accepting, closes all connections, aborts in-flight requests
// and waits for handlers.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	ln := s.ln
	for conn := range s.conns {
		conn.Close()
	}
	s.mu.Unlock()
	s.cancel()
	var err error
	if ln != nil {
		err = ln.Close()
	}
	s.wg.Wait()
	return err
}

func (s *Server) handle(conn net.Conn) {
	defer conn.Close()
	r := bufio.NewReader(conn)
	w := bufio.NewWriter(conn)
	for {
		if s.IdleTimeout > 0 {
			conn.SetReadDeadline(time.Now().Add(s.IdleTimeout))
		}
		payload, err := readFrame(r)
		if err != nil {
			return // EOF, idle timeout or broken connection: nothing to reply to
		}
		req, err := DecodeRequest(payload)
		var resp Response
		if err != nil {
			resp = Response{Status: StatusError, Err: err.Error()}
		} else {
			resp = s.execute(s.baseCtx, req)
		}
		if s.WriteTimeout > 0 {
			conn.SetWriteDeadline(time.Now().Add(s.WriteTimeout))
		}
		frame := appendResponse(frameStart(w.AvailableBuffer()), resp)
		if err := sealFrame(frame); err != nil {
			return
		}
		if _, err := w.Write(frame); err != nil {
			return
		}
		if nextReady(r) {
			continue // this response goes out with the next one's
		}
		if err := w.Flush(); err != nil {
			return
		}
	}
}

// nextReady reports whether the response just written may wait in the
// buffer for the next one: the next request is already read in full and
// cannot block. A pipelining client sends requests back to back, so
// their responses then share one write syscall; anything that can stall
// (a write under backpressure, a scan, a flush, a compaction) or has not
// fully arrived gets the owed responses flushed ahead of it.
func nextReady(r *bufio.Reader) bool {
	if r.Buffered() < 5 {
		return false
	}
	hdr, _ := r.Peek(5)
	n := int(binary.LittleEndian.Uint32(hdr))
	if n < 1 || r.Buffered() < 4+n {
		return false
	}
	op := Op(hdr[4])
	return op == OpGet || op == OpPing
}

// errResponse maps an engine error onto the wire: not-found becomes its
// own status, the canonical taxonomy travels as an error code (so the
// client can rehydrate the exact sentinel), and anything else is a generic
// error string.
func errResponse(err error) Response {
	if errors.Is(err, kverr.ErrNotFound) {
		return Response{Status: StatusNotFound}
	}
	code := CodeGeneric
	switch {
	case errors.Is(err, kverr.ErrClosed):
		code = CodeClosed
	case errors.Is(err, kverr.ErrStalled):
		code = CodeStalled
	case errors.Is(err, kverr.ErrBatchTooLarge):
		code = CodeBatchTooLarge
	case errors.Is(err, kverr.ErrCorrupt):
		code = CodeCorrupt
	case errors.Is(err, kverr.ErrReadOnly):
		code = CodeReadOnly
	case errors.Is(err, context.Canceled):
		code = CodeCanceled
	case errors.Is(err, context.DeadlineExceeded):
		code = CodeDeadlineExceeded
	}
	return Response{Status: StatusError, Code: code, Err: err.Error()}
}

// prefixSuccessor returns the smallest key greater than every key with the
// given prefix, or nil if no such key exists (an all-0xff prefix). It
// turns a prefix filter into a range bound so a prefix scan touches only
// the matching key range.
func prefixSuccessor(prefix []byte) []byte {
	for i := len(prefix) - 1; i >= 0; i-- {
		if prefix[i] != 0xff {
			succ := append([]byte(nil), prefix[:i+1]...)
			succ[i]++
			return succ
		}
	}
	return nil
}

func (s *Server) execute(ctx context.Context, req Request) Response {
	switch req.Op {
	case OpPut:
		if err := s.db.PutContext(ctx, req.Key, req.Value); err != nil {
			return errResponse(err)
		}
		return Response{Status: StatusOK}
	case OpGet:
		v, err := s.db.GetContext(ctx, req.Key)
		if err != nil {
			return errResponse(err)
		}
		return Response{Status: StatusOK, Value: v}
	case OpDelete:
		if err := s.db.DeleteContext(ctx, req.Key); err != nil {
			return errResponse(err)
		}
		return Response{Status: StatusOK}
	case OpWrite:
		var batch lsm.WriteBatch
		for _, op := range req.Batch {
			if op.Delete {
				batch.Delete(op.Key)
			} else {
				batch.Put(op.Key, op.Value)
			}
		}
		if err := s.db.WriteContext(ctx, &batch); err != nil {
			return errResponse(err)
		}
		return Response{Status: StatusOK}
	case OpScan:
		var start, end []byte
		if len(req.Prefix) > 0 {
			start = req.Prefix
			end = prefixSuccessor(req.Prefix)
		}
		return s.scanRange(ctx, start, end, req.Limit)
	case OpRange:
		var start []byte
		if len(req.Start) > 0 {
			start = req.Start
		}
		return s.scanRange(ctx, start, req.End, req.Limit)
	case OpPing:
		// Liveness only: answer without touching the engine, so a ping
		// stays cheap and meaningful even while the engine is degraded
		// (read-only, compacting, stalled).
		return Response{Status: StatusOK}
	case OpFlush:
		if err := s.db.Flush(); err != nil {
			return errResponse(err)
		}
		return Response{Status: StatusOK}
	case OpCompact:
		k := int(req.K)
		if k < 2 {
			k = 2
		}
		res, err := s.db.MajorCompact(req.Strategy, k, 1)
		if err != nil {
			return errResponse(err)
		}
		return Response{Status: StatusOK, Compact: &CompactInfo{
			TablesBefore:  uint64(res.TablesBefore),
			Merges:        uint64(len(res.StepStats)),
			BytesRead:     res.BytesRead,
			BytesWritten:  res.BytesWritten,
			CostActual:    uint64(res.CostActual),
			DurationMicro: uint64(res.Duration.Microseconds()),
		}}
	case OpStats:
		st := s.db.Stats()
		return Response{Status: StatusOK, Stats: &StatsInfo{
			Tables:            uint64(st.Tables),
			TableBytes:        st.TableBytes,
			MemtableKeys:      uint64(st.MemtableKeys),
			Flushes:           uint64(st.Flushes),
			MinorCompactions:  uint64(st.MinorCompactions),
			MajorCompactions:  uint64(st.MajorCompactions),
			GroupCommits:      st.GroupCommits,
			GroupedWrites:     st.GroupedWrites,
			WALSyncs:          st.WALSyncs,
			WriteStalls:       uint64(st.WriteStalls),
			ReadOnly:          boolWord(st.ReadOnly),
			QuarantinedTables: uint64(st.QuarantinedTables),
			CleanupFailures:   st.CleanupFailures,
		}}
	default:
		return Response{Status: StatusError, Err: fmt.Sprintf("unknown op %d", req.Op)}
	}
}

// boolWord encodes a flag as the wire's 0/1 word.
func boolWord(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

// scanRange serves one bounded, limited page of entries in key order; the
// shared body of OpScan (prefix converted to a range) and OpRange.
func (s *Server) scanRange(ctx context.Context, start, end []byte, limit uint64) Response {
	if limit == 0 || limit > 100000 {
		limit = 100000
	}
	entries := []ScanEntry{}
	stop := errors.New("scan limit")
	err := s.db.RangeContext(ctx, start, end, func(k, v []byte) error {
		entries = append(entries, ScanEntry{
			Key:   append([]byte(nil), k...),
			Value: append([]byte(nil), v...),
		})
		if uint64(len(entries)) >= limit {
			return stop
		}
		return nil
	})
	if err != nil && !errors.Is(err, stop) {
		return errResponse(err)
	}
	return Response{Status: StatusOK, Entries: entries}
}

var _ io.Closer = (*Server)(nil)
