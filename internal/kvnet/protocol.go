// Package kvnet provides the client/server network layer over the LSM
// engine: a compact length-prefixed binary protocol, a Server that serves
// one engine to many concurrent connections, and a Client. This is the
// "NoSQL database server" shape the paper assumes — each server owns its
// keys and runs compaction locally in the background — made concrete
// enough to exercise compaction over the wire.
//
// Wire format: every message (either direction) is a u32 little-endian
// payload length followed by the payload. Requests start with an op byte,
// responses with a status byte; strings and byte fields are uvarint
// length-prefixed.
package kvnet

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
)

// ErrProtocol reports a malformed or truncated frame — wire bytes that do
// not decode as the protocol this package speaks. Every decode failure
// wraps it, so transports can distinguish "the peer speaks garbage" (drop
// the connection) from typed engine errors with errors.Is.
var ErrProtocol = errors.New("kvnet: protocol error")

// Op identifies a request type.
type Op byte

// Request operations.
const (
	OpPut Op = iota + 1
	OpGet
	OpDelete
	OpScan
	OpFlush
	OpCompact
	OpStats
	// OpWrite commits a batch of puts and deletes atomically: the server
	// applies it through the engine's group-commit pipeline, so the whole
	// batch becomes durable and visible as a unit.
	OpWrite
	// OpRange returns up to Limit entries with Start <= key < End in key
	// order — one page of a range scan. A client iterator pages through a
	// range by re-issuing OpRange with Start just past the last key of the
	// previous page.
	OpRange
	// OpPing is a no-op liveness probe: the server answers StatusOK
	// without touching the engine. Failure detectors use it to notice a
	// reaped or dead peer before a user request has to — a poisoned
	// connection is otherwise only discovered by the next real request
	// failing on it.
	OpPing
)

// Status is the first byte of every response.
type Status byte

// Response statuses.
const (
	StatusOK Status = iota
	StatusNotFound
	StatusError
)

// ErrCode classifies a StatusError response so clients can decode typed
// engine errors back to the canonical sentinels (internal/kverr) and
// errors.Is against them across the wire. CodeGeneric carries only the
// message string.
type ErrCode byte

// Error codes carried by StatusError responses.
const (
	CodeGeneric ErrCode = iota
	CodeClosed
	CodeStalled
	CodeBatchTooLarge
	CodeCanceled
	CodeDeadlineExceeded
	// CodeCorrupt and CodeReadOnly travel the durability taxonomy: data
	// failing integrity checks, and an engine that refuses writes after a
	// durability failure. Appended past the original codes so the byte
	// values of the existing ones are unchanged on the wire.
	CodeCorrupt
	CodeReadOnly
)

// MaxMessageSize bounds a single message; larger frames are rejected as
// corrupt rather than allocated.
const MaxMessageSize = 32 << 20

// ErrTooLarge reports a frame exceeding MaxMessageSize.
var ErrTooLarge = errors.New("kvnet: message too large")

// BatchOp is one operation inside an OpWrite batch.
type BatchOp struct {
	Delete bool
	Key    []byte
	Value  []byte // ignored for deletes
}

// Request is a decoded client request.
type Request struct {
	Op       Op
	Key      []byte
	Value    []byte
	Prefix   []byte
	Limit    uint64
	Strategy string
	K        uint64
	Batch    []BatchOp // OpWrite only
	// Start and End bound an OpRange page: Start <= key < End. A nil End
	// means no upper bound (End is encoded with a presence flag, so the
	// open bound survives the round trip).
	Start, End []byte
}

// ScanEntry is one key-value pair in a scan response.
type ScanEntry struct {
	Key, Value []byte
}

// CompactInfo summarizes a major compaction over the wire.
type CompactInfo struct {
	TablesBefore  uint64
	Merges        uint64
	BytesRead     uint64
	BytesWritten  uint64
	CostActual    uint64
	DurationMicro uint64
}

// StatsInfo mirrors lsm.Stats over the wire.
type StatsInfo struct {
	Tables           uint64
	TableBytes       uint64
	MemtableKeys     uint64
	Flushes          uint64
	MinorCompactions uint64
	MajorCompactions uint64
	// GroupCommits, GroupedWrites and WALSyncs describe the commit
	// pipeline: GroupedWrites/GroupCommits is the average group size,
	// WALSyncs/GroupedWrites the fsyncs paid per write.
	GroupCommits  uint64
	GroupedWrites uint64
	WALSyncs      uint64
	WriteStalls   uint64
	// ReadOnly is 1 when the engine has degraded to read-only after a
	// durability failure. QuarantinedTables counts corrupt sstables
	// renamed aside; CleanupFailures counts file removals that failed and
	// left recoverable garbage behind.
	ReadOnly          uint64
	QuarantinedTables uint64
	CleanupFailures   uint64
}

// Response is a decoded server response.
type Response struct {
	Status  Status
	Code    ErrCode // StatusError only
	Value   []byte
	Err     string
	Entries []ScanEntry
	Compact *CompactInfo
	Stats   *StatsInfo
}

// frameStart opens a frame at the end of dst: it appends room for the
// length prefix, after which the caller appends the payload and calls
// sealFrame. Encoding a frame in place this way, into a reused buffer,
// costs no allocation.
func frameStart(dst []byte) []byte { return append(dst, 0, 0, 0, 0) }

// sealFrame fills in the length prefix of the frame that starts at
// frame[0], rejecting a payload over MaxMessageSize.
func sealFrame(frame []byte) error {
	n := len(frame) - 4
	if n > MaxMessageSize {
		return ErrTooLarge
	}
	binary.LittleEndian.PutUint32(frame, uint32(n))
	return nil
}

// readFrame reads one length-prefixed payload.
func readFrame(r io.Reader) ([]byte, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, err
	}
	n := binary.LittleEndian.Uint32(hdr[:])
	if n > MaxMessageSize {
		return nil, ErrTooLarge
	}
	payload := make([]byte, n)
	if _, err := io.ReadFull(r, payload); err != nil {
		return nil, err
	}
	return payload, nil
}

func appendBytes(dst, b []byte) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(b)))
	return append(dst, b...)
}

func readBytes(buf []byte) ([]byte, []byte, error) {
	n, sz := binary.Uvarint(buf)
	if sz <= 0 || uint64(len(buf[sz:])) < n {
		return nil, nil, fmt.Errorf("kvnet: truncated field: %w", ErrProtocol)
	}
	buf = buf[sz:]
	return buf[:n:n], buf[n:], nil
}

func readUvarint(buf []byte) (uint64, []byte, error) {
	v, sz := binary.Uvarint(buf)
	if sz <= 0 {
		return 0, nil, fmt.Errorf("kvnet: truncated uvarint: %w", ErrProtocol)
	}
	return v, buf[sz:], nil
}

// EncodeRequest serializes req into a frame payload.
func EncodeRequest(req Request) []byte { return appendRequest(nil, req) }

// appendRequest appends req's frame payload to out.
func appendRequest(out []byte, req Request) []byte {
	out = append(out, byte(req.Op))
	switch req.Op {
	case OpPut:
		out = appendBytes(out, req.Key)
		out = appendBytes(out, req.Value)
	case OpGet, OpDelete:
		out = appendBytes(out, req.Key)
	case OpScan:
		out = appendBytes(out, req.Prefix)
		out = binary.AppendUvarint(out, req.Limit)
	case OpRange:
		out = appendBytes(out, req.Start)
		if req.End == nil {
			out = append(out, 0)
		} else {
			out = append(out, 1)
			out = appendBytes(out, req.End)
		}
		out = binary.AppendUvarint(out, req.Limit)
	case OpCompact:
		out = appendBytes(out, []byte(req.Strategy))
		out = binary.AppendUvarint(out, req.K)
	case OpWrite:
		out = binary.AppendUvarint(out, uint64(len(req.Batch)))
		for _, op := range req.Batch {
			kind := byte(0)
			if op.Delete {
				kind = 1
			}
			out = append(out, kind)
			out = appendBytes(out, op.Key)
			if !op.Delete {
				out = appendBytes(out, op.Value)
			}
		}
	}
	return out
}

// DecodeRequest parses a frame payload into a Request.
func DecodeRequest(buf []byte) (Request, error) {
	var req Request
	if len(buf) < 1 {
		return req, fmt.Errorf("kvnet: empty request: %w", ErrProtocol)
	}
	req.Op = Op(buf[0])
	buf = buf[1:]
	var err error
	switch req.Op {
	case OpPut:
		if req.Key, buf, err = readBytes(buf); err != nil {
			return req, err
		}
		if req.Value, _, err = readBytes(buf); err != nil {
			return req, err
		}
	case OpGet, OpDelete:
		if req.Key, _, err = readBytes(buf); err != nil {
			return req, err
		}
	case OpScan:
		if req.Prefix, buf, err = readBytes(buf); err != nil {
			return req, err
		}
		if req.Limit, _, err = readUvarint(buf); err != nil {
			return req, err
		}
	case OpRange:
		if req.Start, buf, err = readBytes(buf); err != nil {
			return req, err
		}
		if len(buf) < 1 {
			return req, fmt.Errorf("kvnet: truncated range bound: %w", ErrProtocol)
		}
		bounded := buf[0]
		buf = buf[1:]
		if bounded > 1 {
			return req, fmt.Errorf("kvnet: bad range bound flag %d: %w", bounded, ErrProtocol)
		}
		if bounded == 1 {
			if req.End, buf, err = readBytes(buf); err != nil {
				return req, err
			}
		}
		if req.Limit, _, err = readUvarint(buf); err != nil {
			return req, err
		}
	case OpCompact:
		var s []byte
		if s, buf, err = readBytes(buf); err != nil {
			return req, err
		}
		req.Strategy = string(s)
		if req.K, _, err = readUvarint(buf); err != nil {
			return req, err
		}
	case OpWrite:
		var n uint64
		if n, buf, err = readUvarint(buf); err != nil {
			return req, err
		}
		// Every op consumes at least two payload bytes (kind + key length),
		// so a count above len(buf)/2 is structurally bogus; and the
		// pre-allocation is capped regardless, so a hostile count can never
		// force a large allocation — the slice grows only as ops decode.
		if n > uint64(len(buf))/2 {
			return req, fmt.Errorf("kvnet: batch count %d exceeds payload: %w", n, ErrProtocol)
		}
		req.Batch = make([]BatchOp, 0, min(n, 1024))
		for i := uint64(0); i < n; i++ {
			if len(buf) < 1 {
				return req, fmt.Errorf("kvnet: truncated batch op: %w", ErrProtocol)
			}
			kind := buf[0]
			buf = buf[1:]
			if kind > 1 {
				return req, fmt.Errorf("kvnet: unknown batch op kind %d: %w", kind, ErrProtocol)
			}
			op := BatchOp{Delete: kind == 1}
			if op.Key, buf, err = readBytes(buf); err != nil {
				return req, err
			}
			if !op.Delete {
				if op.Value, buf, err = readBytes(buf); err != nil {
					return req, err
				}
			}
			req.Batch = append(req.Batch, op)
		}
	case OpFlush, OpStats, OpPing:
	default:
		return req, fmt.Errorf("kvnet: unknown op %d: %w", req.Op, ErrProtocol)
	}
	return req, nil
}

// EncodeResponse serializes resp into a frame payload.
func EncodeResponse(resp Response) []byte { return appendResponse(nil, resp) }

// appendResponse appends resp's frame payload to out.
func appendResponse(out []byte, resp Response) []byte {
	out = append(out, byte(resp.Status))
	switch resp.Status {
	case StatusError:
		out = append(out, byte(resp.Code))
		out = appendBytes(out, []byte(resp.Err))
		return out
	case StatusNotFound:
		return out
	}
	switch {
	case resp.Compact != nil:
		out = append(out, 'C')
		c := resp.Compact
		for _, v := range []uint64{c.TablesBefore, c.Merges, c.BytesRead, c.BytesWritten, c.CostActual, c.DurationMicro} {
			out = binary.AppendUvarint(out, v)
		}
	case resp.Stats != nil:
		out = append(out, 'S')
		s := resp.Stats
		for _, v := range []uint64{s.Tables, s.TableBytes, s.MemtableKeys, s.Flushes, s.MinorCompactions,
			s.MajorCompactions, s.GroupCommits, s.GroupedWrites, s.WALSyncs, s.WriteStalls,
			s.ReadOnly, s.QuarantinedTables, s.CleanupFailures} {
			out = binary.AppendUvarint(out, v)
		}
	case resp.Entries != nil:
		out = append(out, 'E')
		out = binary.AppendUvarint(out, uint64(len(resp.Entries)))
		for _, e := range resp.Entries {
			out = appendBytes(out, e.Key)
			out = appendBytes(out, e.Value)
		}
	default:
		out = append(out, 'V')
		out = appendBytes(out, resp.Value)
	}
	return out
}

// DecodeResponse parses a frame payload into a Response.
func DecodeResponse(buf []byte) (Response, error) {
	var resp Response
	if len(buf) < 1 {
		return resp, fmt.Errorf("kvnet: empty response: %w", ErrProtocol)
	}
	resp.Status = Status(buf[0])
	buf = buf[1:]
	var err error
	switch resp.Status {
	case StatusNotFound:
		return resp, nil
	case StatusError:
		if len(buf) < 1 {
			return resp, fmt.Errorf("kvnet: truncated error response: %w", ErrProtocol)
		}
		resp.Code = ErrCode(buf[0])
		buf = buf[1:]
		var msg []byte
		if msg, _, err = readBytes(buf); err != nil {
			return resp, err
		}
		resp.Err = string(msg)
		return resp, nil
	case StatusOK:
	default:
		return resp, fmt.Errorf("kvnet: unknown status %d: %w", resp.Status, ErrProtocol)
	}
	if len(buf) < 1 {
		return resp, fmt.Errorf("kvnet: truncated OK response: %w", ErrProtocol)
	}
	kind := buf[0]
	buf = buf[1:]
	switch kind {
	case 'V':
		if resp.Value, _, err = readBytes(buf); err != nil {
			return resp, err
		}
	case 'E':
		var n uint64
		if n, buf, err = readUvarint(buf); err != nil {
			return resp, err
		}
		resp.Entries = make([]ScanEntry, 0, n)
		for i := uint64(0); i < n; i++ {
			var k, v []byte
			if k, buf, err = readBytes(buf); err != nil {
				return resp, err
			}
			if v, buf, err = readBytes(buf); err != nil {
				return resp, err
			}
			resp.Entries = append(resp.Entries, ScanEntry{Key: k, Value: v})
		}
	case 'C':
		c := &CompactInfo{}
		for _, dst := range []*uint64{&c.TablesBefore, &c.Merges, &c.BytesRead, &c.BytesWritten, &c.CostActual, &c.DurationMicro} {
			if *dst, buf, err = readUvarint(buf); err != nil {
				return resp, err
			}
		}
		resp.Compact = c
	case 'S':
		s := &StatsInfo{}
		for _, dst := range []*uint64{&s.Tables, &s.TableBytes, &s.MemtableKeys, &s.Flushes, &s.MinorCompactions,
			&s.MajorCompactions, &s.GroupCommits, &s.GroupedWrites, &s.WALSyncs, &s.WriteStalls,
			&s.ReadOnly, &s.QuarantinedTables, &s.CleanupFailures} {
			if *dst, buf, err = readUvarint(buf); err != nil {
				return resp, err
			}
		}
		resp.Stats = s
	default:
		return resp, fmt.Errorf("kvnet: unknown response kind %q: %w", kind, ErrProtocol)
	}
	return resp, nil
}
