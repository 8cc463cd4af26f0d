package main

import (
	"bufio"
	"context"
	"fmt"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/kvnet"
	"repro/internal/lsm"
	"repro/internal/vfs"
)

// spanKind names the layer boundary a span was recorded at.
type spanKind uint8

const (
	kindGet       spanKind = iota // client → kv.Engine.Get
	kindPut                       // client → kv.Engine.Put
	kindStats                     // poller → kv.Engine.Stats
	kindEngineGet                 // kvnet.Server → Engine.GetContext
	kindEnginePut                 // kvnet.Server → Engine.PutContext, DeleteContext or WriteContext
	kindIO                        // first of the vfs kinds: kindIO + 3*fileKind + ioOp
)

// File kinds and operations the timing vfs.FS tells apart.
const (
	fileWAL = iota
	fileSST
	fileManifest
	fileOther
	numFileKinds
)

const (
	ioWrite = iota
	ioSync
	ioRead
	numIOOps
)

const (
	numKinds     = int(kindIO) + numFileKinds*numIOOps
	kindWALWrite = kindIO + fileWAL*numIOOps + ioWrite
	kindSSTRead  = kindIO + fileSST*numIOOps + ioRead
)

func ioKind(file, op int) spanKind { return kindIO + spanKind(file*numIOOps+op) }

func (k spanKind) String() string {
	switch k {
	case kindGet:
		return "kv.get"
	case kindPut:
		return "kv.put"
	case kindStats:
		return "kv.stats"
	case kindEngineGet:
		return "kvnet.engine.get"
	case kindEnginePut:
		return "kvnet.engine.put"
	}
	i := int(k - kindIO)
	return "vfs." + [...]string{"wal", "sst", "manifest", "other"}[i/numIOOps] +
		"." + [...]string{"write", "sync", "read"}[i%numIOOps]
}

// keepDurations marks the kinds whose individual durations feed a
// percentile; the others are only counted and summed.
var keepDurations = [numKinds]bool{
	kindStats:     true,
	kindEngineGet: true,
	kindEnginePut: true,
	kindWALWrite:  true,
	kindSSTRead:   true,
}

// span is one timed call across a layer boundary. Times are nanoseconds
// since the recorder's epoch; key is keyHash of the key the call carried,
// zero for calls with no key (vfs calls, Stats).
type span struct {
	start, end int64
	key        uint64
	kind       spanKind
}

// maxSpans caps the span log (32 B a span). Counters and durations keep
// accumulating past the cap; only the log stops growing.
const maxSpans = 1 << 20

// recorder keeps a traced run's spans in memory, together with per-kind
// counts, bytes, busy time and (for keepDurations kinds) durations. It
// records only while on, which is the measured window of the run.
type recorder struct {
	epoch time.Time
	on    atomic.Bool

	mu              sync.Mutex
	spans           []span
	fullAt          int64 // epoch offset of the first span that did not fit
	dropped         int
	count           [numKinds]int64
	bytes           [numKinds]int64
	busy            [numKinds]int64
	durs            [numKinds][]int64
	manifestRenames int64
}

func newRecorder() *recorder {
	return &recorder{epoch: time.Now(), spans: make([]span, 0, maxSpans)}
}

// add records a call of kind that started at start and ended now.
func (r *recorder) add(kind spanKind, key uint64, start time.Time, n int) {
	if !r.on.Load() {
		return
	}
	end := time.Now()
	s := span{start: start.Sub(r.epoch).Nanoseconds(), end: end.Sub(r.epoch).Nanoseconds(), key: key, kind: kind}
	r.mu.Lock()
	r.count[kind]++
	r.bytes[kind] += int64(n)
	r.busy[kind] += s.end - s.start
	if keepDurations[kind] {
		r.durs[kind] = append(r.durs[kind], s.end-s.start)
	}
	if len(r.spans) < maxSpans {
		r.spans = append(r.spans, s)
	} else {
		if r.dropped == 0 {
			r.fullAt = s.start
		}
		r.dropped++
	}
	r.mu.Unlock()
}

func (r *recorder) renamedManifest() {
	if r.on.Load() {
		r.mu.Lock()
		r.manifestRenames++
		r.mu.Unlock()
	}
}

// durationQuantileUS is the q-quantile of kind's durations in µs.
func (r *recorder) durationQuantileUS(kind spanKind, q float64) float64 {
	return quantileOf(r.durs[kind], q) / 1e3
}

// link attributes each server-side engine span to the client operation
// it served and returns the operations' self time: the op span minus the
// union of the engine spans on the same key that start inside it.
// Clients own disjoint keys and run one op at a time, so a span that
// starts inside an op's window on its key comes from that op or is a late
// span of an earlier op on the key (a W=2 straggler, a read repair, a
// hint replay). An op whose window holds more engine spans than there are
// replicas certainly holds such a late span; it is left out of the self
// times and counted in mixed. A late span that stands in for one of the
// op's own that started after it ended is not detected and is charged to
// the op. Ops that ended after the span log filled are skipped, since
// some of their server spans may be missing. cause[i] is the op index
// span i was linked to, or -1. Without servers (replicas 0) there is
// nothing to link and no self time.
func (r *recorder) link(replicas int) (selfGet, selfPut []int64, mixed int, cause []int32) {
	cause = make([]int32, len(r.spans))
	for i := range cause {
		cause[i] = -1
	}
	if replicas == 0 {
		return nil, nil, 0, cause
	}
	byKey := map[uint64][]int32{}
	for i, s := range r.spans {
		if s.kind == kindEngineGet || s.kind == kindEnginePut {
			byKey[s.key] = append(byKey[s.key], int32(i))
		}
	}
	for _, list := range byKey {
		sort.Slice(list, func(a, b int) bool { return r.spans[list[a]].start < r.spans[list[b]].start })
	}
	for i, op := range r.spans {
		if op.kind != kindGet && op.kind != kindPut {
			continue
		}
		if r.dropped > 0 && op.end >= r.fullAt {
			continue
		}
		list := byKey[op.key]
		first := sort.Search(len(list), func(j int) bool { return r.spans[list[j]].start >= op.start })
		j := first
		var covered, curS, curE int64
		curS, curE = -1, -1
		for ; j < len(list) && r.spans[list[j]].start < op.end; j++ {
			s := r.spans[list[j]]
			cause[list[j]] = int32(i)
			e := min(s.end, op.end)
			if s.start > curE {
				if curE > curS {
					covered += curE - curS
				}
				curS, curE = s.start, e
			} else if e > curE {
				curE = e
			}
		}
		if j-first > replicas {
			mixed++
			continue
		}
		if curE > curS {
			covered += curE - curS
		}
		self := op.end - op.start - covered
		if op.kind == kindGet {
			selfGet = append(selfGet, self)
		} else {
			selfPut = append(selfPut, self)
		}
	}
	return selfGet, selfPut, mixed, cause
}

// writeSpans writes the span log as tab-separated lines: id, name,
// start_ns, end_ns, key hash, cause (the id of the op a server span was
// linked to; -1 for client ops, which are roots, and for vfs and Stats
// spans, which carry no request identity and are reported as totals).
func (r *recorder) writeSpans(path string, cause []int32) error {
	f, err := vfs.Default.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "id\tname\tstart_ns\tend_ns\tkey\tcause")
	for i, s := range r.spans {
		fmt.Fprintf(w, "%d\t%s\t%d\t%d\t%x\t%d\n", i, s.kind, s.start, s.end, s.key, cause[i])
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// timedFS is a vfs.FS that times every write, sync and read of the files
// it opens, split by file kind. vfs calls carry no request identity.
type timedFS struct {
	vfs.FS
	rec *recorder
}

func fileKindOf(path string) int {
	base := filepath.Base(path)
	switch {
	case strings.HasPrefix(base, "wal.log"):
		return fileWAL
	case strings.HasSuffix(base, ".sst"):
		return fileSST
	case strings.HasPrefix(base, "MANIFEST"):
		return fileManifest
	}
	return fileOther
}

func (t timedFS) Create(path string) (vfs.File, error) {
	f, err := t.FS.Create(path)
	if err != nil {
		return nil, err
	}
	return timedFile{File: f, kind: fileKindOf(path), rec: t.rec}, nil
}

func (t timedFS) Open(path string) (vfs.File, error) {
	f, err := t.FS.Open(path)
	if err != nil {
		return nil, err
	}
	return timedFile{File: f, kind: fileKindOf(path), rec: t.rec}, nil
}

func (t timedFS) Rename(oldpath, newpath string) error {
	err := t.FS.Rename(oldpath, newpath)
	if err == nil && filepath.Base(newpath) == "MANIFEST" {
		t.rec.renamedManifest()
	}
	return err
}

type timedFile struct {
	vfs.File
	kind int
	rec  *recorder
}

func (f timedFile) Write(p []byte) (int, error) {
	start := time.Now()
	n, err := f.File.Write(p)
	f.rec.add(ioKind(f.kind, ioWrite), 0, start, n)
	return n, err
}

func (f timedFile) Sync() error {
	start := time.Now()
	err := f.File.Sync()
	f.rec.add(ioKind(f.kind, ioSync), 0, start, 0)
	return err
}

func (f timedFile) ReadAt(p []byte, off int64) (int, error) {
	start := time.Now()
	n, err := f.File.ReadAt(p, off)
	f.rec.add(ioKind(f.kind, ioRead), 0, start, n)
	return n, err
}

// timedEngine wraps the engine a kvnet.Server serves and times every
// point call the server makes into it.
type timedEngine struct {
	kvnet.Engine
	rec *recorder
}

func (e timedEngine) GetContext(ctx context.Context, key []byte) ([]byte, error) {
	start := time.Now()
	v, err := e.Engine.GetContext(ctx, key)
	e.rec.add(kindEngineGet, keyHash(key), start, len(v))
	return v, err
}

func (e timedEngine) PutContext(ctx context.Context, key, value []byte) error {
	start := time.Now()
	err := e.Engine.PutContext(ctx, key, value)
	e.rec.add(kindEnginePut, keyHash(key), start, len(value))
	return err
}

func (e timedEngine) DeleteContext(ctx context.Context, key []byte) error {
	start := time.Now()
	err := e.Engine.DeleteContext(ctx, key)
	e.rec.add(kindEnginePut, keyHash(key), start, 0)
	return err
}

// WriteContext spans carry the batch's first key: the router writes a
// replica as a one-op batch, and batches of many ops only replay hints.
func (e timedEngine) WriteContext(ctx context.Context, b *lsm.WriteBatch) error {
	start := time.Now()
	err := e.Engine.WriteContext(ctx, b)
	var key uint64
	if b.Len() > 0 {
		k, _, _ := b.Op(0)
		key = keyHash(k)
	}
	e.rec.add(kindEnginePut, key, start, b.SizeBytes())
	return err
}
