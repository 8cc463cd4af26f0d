package main

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"repro/internal/ycsb"
	"repro/kv"
)

// spec is one workload: its data, engine configuration and operation mix.
type spec struct {
	name, why   string
	records     int    // keys loaded before the run, at version 1
	loadBatch   int    // keys per loader Write
	nodes       int    // 0: one embedded kv.Open partition; n: an n-node cluster
	memtable    int    // kv.WithMemtableBytes; 0 keeps the engine default
	autoCompact string // kv.WithAutoCompact policy; "" keeps none
	rate        int    // open loop at this many ops/s; 0 for a closed loop
	// runMemtable, when set, flushes the loaded engine and reopens it for
	// the run with this memtable and no auto-compaction: the run's writes
	// then never flush, and the table layout the load left stays as it
	// is. write_amp and space_amp are then the load's.
	runMemtable int

	insert, update, read float64 // YCSB operation proportions
	dist                 ycsb.Distribution

	// readBackGets times the post-run read-back and reports it as the
	// workload's Get latency: the run itself issues no Gets.
	readBackGets bool
	// reopen closes the engine after the read-back, reopens the
	// directory and verifies every key again (clean-shutdown recovery).
	reopen bool
}

const (
	clients   = 2 // client goroutines; key k is owned by client k % clients
	windows   = 5 // the run is split into this many equal windows
	setupReps = 3 // set-ups per untraced run; setup_s is their median
)

var workloads = []spec{
	{
		name: "ingest",
		// 60k ops/s is about 37% of the closed-loop capacity (~160k/s on 2
		// vCPUs of an Intel Xeon): the loop drains each flush stall before
		// the next one, so ops_per_s stays at the offered rate.
		why: "open-loop puts at 60k/s, ~37% of closed-loop capacity: commit pipeline, memtable, flush, BT(I) minor compaction and WAL do the work, " +
			"and stalls behind inline flushes show",
		records: 50_000, loadBatch: 1000, memtable: 1 << 20, autoCompact: "BT(I)", rate: 60_000,
		insert: 0.03, update: 0.97, dist: ycsb.Latest,
		readBackGets: true, reopen: true,
	},
	{
		name: "lookup",
		why: "closed-loop YCSB B (95% Get, zipfian) over 500k records in several tables, >7x the block cache: " +
			"the read view, Bloom filters, block cache and decode do the work",
		records: 500_000, loadBatch: 1000, autoCompact: "BT(I)", runMemtable: 256 << 20,
		read: 0.95, update: 0.05, dist: ycsb.Zipfian,
	},
	{
		name: "replicated",
		why: "closed-loop YCSB A (50% Get, zipfian) on 3 loopback nodes, N=3/W=2/R=2, memtable-only storage: " +
			"the kvnet client/server and the cluster router do the work",
		records: 20_000, loadBatch: 500, nodes: 3,
		read: 0.5, update: 0.5, dist: ycsb.Zipfian,
	},
}

func specByName(name string) (spec, bool) {
	for _, sp := range workloads {
		if sp.name == name {
			return sp, true
		}
	}
	return spec{}, false
}

// generator returns the workload's YCSB stream for seed, positioned at
// the start of the run phase: every client walks the same stream and
// executes only the operations on keys it owns.
func (sp spec) generator(seed int64, ops int) (*ycsb.Generator, error) {
	g, err := ycsb.NewGenerator(ycsb.Config{
		RecordCount:      sp.records,
		OperationCount:   ops,
		InsertProportion: sp.insert,
		UpdateProportion: sp.update,
		ReadProportion:   sp.read,
		Distribution:     sp.dist,
		Seed:             seed,
	})
	if err != nil {
		return nil, err
	}
	for _, ok := g.NextLoad(); ok; _, ok = g.NextLoad() {
	}
	return g, nil
}

// loadKeys returns the keys the load phase inserts, in order.
func (sp spec) loadKeys() []uint64 {
	g, _ := ycsb.NewGenerator(ycsb.Config{RecordCount: sp.records})
	keys := make([]uint64, 0, sp.records)
	for op, ok := g.NextLoad(); ok; op, ok = g.NextLoad() {
		keys = append(keys, op.Key)
	}
	return keys
}

func owner(k uint64) int { return int(k % clients) }

// load writes every load key at version 1 from one loader, in batches.
func load(ctx context.Context, eng kv.Engine, keys []uint64, batch int) error {
	var b kv.Batch
	for i, k := range keys {
		b.Put(keyBytes(k), makeValue(k, 1))
		if b.Len() == batch || i == len(keys)-1 {
			if err := eng.Write(ctx, &b); err != nil {
				return fmt.Errorf("load: %w", err)
			}
			b.Reset()
		}
	}
	return nil
}

// client issues the operations on the keys it owns and checks every
// answer. It is the only writer of those keys, so it knows the exact
// value each of them must hold.
type client struct {
	id  int
	eng kv.Engine
	rec *recorder // nil untraced

	ver      map[uint64]uint32 // version last written, for keys written in the run
	unsure   map[uint64]bool   // keys whose last Put failed: it may or may not have applied
	inserted []uint64          // keys inserted in the run, in order

	puts, gets series
	completed  [windows]int  // ops that ended inside each window
	lastEnd    time.Duration // when the client's last op ended, from the start of the run
	lag        []int64       // open loop: how late the pacer issued each op, ns

	attempted, verified, failed int
	errs                        []string
}

// newClient makes client id; expect is how many operations it will
// issue, when that is known in advance (an open loop), else 0.
func newClient(id int, eng kv.Engine, rec *recorder, expect int) *client {
	perWindow := 0
	if expect > 0 {
		perWindow = expect/windows + expect/100 // the keys' split between clients varies by well under 1%
	}
	return &client{id: id, eng: eng, rec: rec, ver: map[uint64]uint32{}, unsure: map[uint64]bool{},
		puts: newSeries(windows, perWindow), gets: newSeries(windows, 0), lag: make([]int64, 0, perWindow*windows)}
}

func (c *client) version(k uint64) uint32 {
	if v, ok := c.ver[k]; ok {
		return v
	}
	return 1 // loaded
}

// matches reports whether got is what key k must hold.
func (c *client) matches(k uint64, got []byte) bool {
	v := c.version(k)
	return valueMatches(got, k, v) || (c.unsure[k] && v > 1 && valueMatches(got, k, v-1))
}

// describe explains a wrong value: a stale or future version of the
// key's own value, or bytes that are no value of this key at all.
func (c *client) describe(k uint64, got []byte) string {
	want := c.version(k)
	if len(got) == valueSize && binary.BigEndian.Uint64(got) == k {
		if v := binary.BigEndian.Uint32(got[8:]); valueMatches(got, k, v) {
			return fmt.Sprintf("wrong value: version %d, want %d", v, want)
		}
	}
	return fmt.Sprintf("wrong value: %d bytes that are no version of the key's value, want version %d", len(got), want)
}

// reread reads key k again after a wrong answer, outside the timed
// span, and says what the second read returned: a right value there
// means the wrong one was transient, as a read racing a write is.
func (c *client) reread(ctx context.Context, k uint64, key []byte) string {
	got, err := c.eng.Get(ctx, key)
	switch {
	case err != nil:
		return fmt.Sprintf("; read again: %v", err)
	case c.matches(k, got):
		return "; read again: the right value"
	}
	return "; read again: " + c.describe(k, got)
}

func (c *client) fail(format string, args ...any) {
	c.failed++
	if len(c.errs) < 5 {
		c.errs = append(c.errs, fmt.Sprintf(format, args...))
	}
}

// request is one operation, ready to issue.
type request struct {
	op    ycsb.Op
	key   []byte
	value []byte // nil for a Get
	ver   uint32 // the version value encodes
}

func (c *client) prepare(op ycsb.Op) request {
	r := request{op: op, key: keyBytes(op.Key)}
	if op.Kind == ycsb.OpInsert || op.Kind == ycsb.OpUpdate {
		r.ver = 1
		if op.Kind == ycsb.OpUpdate {
			r.ver = c.version(op.Key) + 1
		}
		r.value = makeValue(op.Key, r.ver)
	}
	return r
}

// issue runs r, checks its outcome and returns when it started and ended
// and whether it was a Put.
func (c *client) issue(ctx context.Context, r request) (start, end time.Time, put, ok bool) {
	k := r.op.Key
	c.attempted++
	start = time.Now()
	if r.value == nil {
		got, err := c.eng.Get(ctx, r.key)
		end = time.Now()
		c.trace(kindGet, r.key, start)
		switch {
		case err != nil:
			c.fail("get %s: %v", r.key, err)
		case !c.matches(k, got):
			c.fail("get %s: %s%s", r.key, c.describe(k, got), c.reread(ctx, k, r.key))
		default:
			ok = true
		}
		return start, end, false, ok
	}
	err := c.eng.Put(ctx, r.key, r.value)
	end = time.Now()
	c.trace(kindPut, r.key, start)
	if r.op.Kind == ycsb.OpInsert {
		c.inserted = append(c.inserted, k)
	}
	c.ver[k] = r.ver
	if err != nil {
		c.unsure[k] = true
		c.fail("put %s: %v", r.key, err)
		return start, end, true, false
	}
	delete(c.unsure, k)
	return start, end, true, true
}

func (c *client) trace(kind spanKind, key []byte, start time.Time) {
	if c.rec != nil {
		c.rec.add(kind, keyHash(key), start, 0)
	}
}

// record files one finished operation: its latency in the window it
// started in (a failed op counts as missing every percentile), and its
// completion in the window it ended in, if that is inside the run.
func (c *client) record(put, ok bool, lat time.Duration, startOff, endOff, winLen time.Duration) {
	ns := lat.Nanoseconds()
	if !ok {
		ns = math.MaxInt64
	}
	w := windowOf(startOff, winLen, windows)
	if put {
		c.puts.add(w, ns)
	} else {
		c.gets.add(w, ns)
	}
	if endOff < winLen*windows {
		c.completed[windowOf(endOff, winLen, windows)]++
	}
}

// runClosed issues the client's operations back to back until dur has
// passed since t0.
func (c *client) runClosed(ctx context.Context, g *ycsb.Generator, t0 time.Time, dur time.Duration) {
	winLen := dur / windows
	for {
		op, _ := g.NextRun()
		if owner(op.Key) != c.id {
			continue
		}
		if time.Since(t0) >= dur {
			return
		}
		start, end, put, ok := c.issue(ctx, c.prepare(op))
		c.record(put, ok, end.Sub(start), start.Sub(t0), end.Sub(t0), winLen)
	}
}

// spinBefore is how close to an operation's due time the pacer stops
// sleeping and spins: time.Sleep alone overshoots by tens of
// microseconds, which would be charged to the system.
const spinBefore = 200 * time.Microsecond

// waitUntil returns once due has passed since t0.
func waitUntil(t0 time.Time, due time.Duration) {
	for {
		left := due - time.Since(t0)
		if left <= 0 {
			return
		}
		if left > spinBefore {
			time.Sleep(left - spinBefore)
		} else {
			runtime.Gosched()
		}
	}
}

// runOpen issues operation i of the stream at t0 + i/rate, for the
// operations the client owns. Latency runs from the due time, so an
// operation delayed behind a stalled predecessor is charged the wait;
// the pacer's own lateness (issuing after the op was due and the client
// was free) is recorded as lag and not charged.
func (c *client) runOpen(ctx context.Context, g *ycsb.Generator, t0 time.Time, dur time.Duration, rate int) {
	winLen := dur / windows
	total := int(float64(rate) * dur.Seconds())
	var prevEnd time.Duration
	for i := 0; i < total; i++ {
		op, _ := g.NextRun()
		if owner(op.Key) != c.id {
			continue
		}
		r := c.prepare(op)
		due := time.Duration(float64(i) * 1e9 / float64(rate))
		waitUntil(t0, due)
		start, end, put, ok := c.issue(ctx, r)
		startOff, endOff := start.Sub(t0), end.Sub(t0)
		lag := startOff - max(due, prevEnd)
		if lag < 0 {
			lag = 0
		}
		c.lag = append(c.lag, lag.Nanoseconds())
		c.record(put, ok, endOff-due-lag, due, endOff, winLen)
		prevEnd = endOff
		c.lastEnd = endOff
	}
}

// timedPasses is how many times a timed read-back reads every key: one
// pass per window, so that every window reads the same keys. Keys differ
// in how deep a Get must probe, and windows cut from a single pass
// would each time a different share of deep keys.
const timedPasses = windows

// readBack reads every key the client owns and compares it with the value
// its last write stored. With into non-nil the read-back is timed: every
// key is read timedPasses times, pass p filing its latencies in window p
// of into. It returns the number of Gets.
func (c *client) readBack(ctx context.Context, eng kv.Engine, loadKeys []uint64, into series) int {
	var keys []uint64
	for _, k := range loadKeys {
		if owner(k) == c.id {
			keys = append(keys, k)
		}
	}
	keys = append(keys, c.inserted...)
	n := len(keys)
	if into != nil {
		n *= timedPasses
	}
	for i := 0; i < n; i++ {
		k := keys[i%len(keys)]
		key := keyBytes(k)
		start := time.Now()
		got, err := eng.Get(ctx, key)
		lat := time.Since(start).Nanoseconds()
		ok := err == nil && c.matches(k, got)
		switch {
		case err != nil:
			c.fail("read-back %s: %v", key, err)
		case !ok:
			c.fail("read-back %s: %s", key, c.describe(k, got))
		}
		if into != nil {
			c.trace(kindGet, key, start)
			if !ok {
				lat = math.MaxInt64
			}
			into.add(i/len(keys), lat)
		}
	}
	return n
}

// setUp opens a fresh engine at dir and loads it, then flushes it and
// reopens it for the run if sp.runMemtable asks for it. loaded holds the
// storage counters of the engine closed before the reopen, after that
// flush; the reopened engine's counters start again from zero.
func setUp(ctx context.Context, sp spec, dir string, rec *recorder, keys []uint64) (sys *system, loaded kv.Stats, err error) {
	if sys, err = openSystem(sp, dir, rec); err != nil {
		return nil, loaded, err
	}
	if err := load(ctx, sys.eng, keys, sp.loadBatch); err != nil {
		return nil, loaded, errors.Join(err, sys.close())
	}
	if sp.runMemtable == 0 {
		return sys, loaded, nil
	}
	if err := sys.eng.Flush(ctx); err != nil {
		return nil, loaded, errors.Join(fmt.Errorf("flush after load: %w", err), sys.close())
	}
	if loaded, err = sys.storageStats(ctx); err != nil {
		return nil, loaded, errors.Join(err, sys.close())
	}
	if err := sys.close(); err != nil {
		return nil, loaded, err
	}
	sp.memtable, sp.autoCompact = sp.runMemtable, ""
	sys, err = openSystem(sp, dir, rec)
	return sys, loaded, err
}

// runConfig is how one invocation runs a workload.
type runConfig struct {
	seed int64
	dur  time.Duration
	data string // engine directories go under it
	reps int    // set-ups; the run uses the last
	rec  *recorder
	wrap func(kv.Engine) kv.Engine // tests: interpose on the clients' engine
}

// result is everything one measured run produced.
type result struct {
	setupS              []float64
	attempted, verified int
	failed              int
	errs                []string
	puts, gets          series
	completed           [windows]int
	lastEnd             time.Duration
	winLen              time.Duration
	lag                 []int64
	before, after       kv.Stats // storage counters around the measured window
	clusterBefore       kv.ClusterStats
	clusterAfter        kv.ClusterStats
	// amp is the storage state write_amp and space_amp are taken from,
	// ampLive the live user bytes it holds and ampWhen when it was taken.
	amp      kv.Stats
	ampLive  int64
	ampWhen  string
	runFlush uint64 // bytes the closing flush after the run wrote
	rssMB    float64
	stealPct float64 // share of the machine's CPU time the hypervisor took during the run
}

// runWorkload sets the workload up cfg.reps times, runs it on the last
// set-up and verifies the outcome.
func runWorkload(ctx context.Context, sp spec, cfg runConfig) (*result, error) {
	res := &result{puts: newSeries(windows, 0), gets: newSeries(windows, 0), winLen: cfg.dur / windows}
	keys := sp.loadKeys()
	var loadLive int64
	for _, k := range keys {
		loadLive += int64(len(keyBytes(k)) + valueSize)
	}
	var loaded kv.Stats

	var sys *system
	dir := ""
	for i := 0; i < cfg.reps; i++ {
		if sys != nil {
			if err := sys.close(); err != nil {
				return nil, err
			}
			if err := removeAll(dir); err != nil {
				return nil, err
			}
		}
		dir = filepath.Join(cfg.data, fmt.Sprintf("%s-%d", sp.name, i))
		if err := removeAll(dir); err != nil {
			return nil, err
		}
		t := time.Now()
		var err error
		if sys, loaded, err = setUp(ctx, sp, dir, cfg.rec, keys); err != nil {
			return nil, err
		}
		res.setupS = append(res.setupS, time.Since(t).Seconds())
	}
	defer func() {
		if sys != nil {
			sys.close()
		}
		removeAll(dir)
	}()

	eng := sys.eng
	if cfg.wrap != nil {
		eng = cfg.wrap(eng)
	}
	ops, expect := math.MaxInt32, 0
	if sp.rate > 0 {
		ops = int(float64(sp.rate) * cfg.dur.Seconds())
		expect = ops / clients
	}
	cs := make([]*client, clients)
	gens := make([]*ycsb.Generator, clients)
	for i := range cs {
		cs[i] = newClient(i, eng, cfg.rec, expect)
		g, err := sp.generator(cfg.seed, ops)
		if err != nil {
			return nil, err
		}
		gens[i] = g
	}

	var err error
	if res.before, err = sys.storageStats(ctx); err != nil {
		return nil, err
	}
	if res.clusterBefore, err = sys.clusterStats(ctx); err != nil {
		return nil, err
	}
	stopPoll := func() {}
	if cfg.rec != nil {
		cfg.rec.on.Store(true)
		stopPoll = pollStats(ctx, eng, cfg.rec)
	}
	runtime.GC()
	steal0, total0 := cpuTicks()
	t0 := time.Now()
	var wg sync.WaitGroup
	for i, c := range cs {
		wg.Add(1)
		go func(c *client, g *ycsb.Generator) {
			defer wg.Done()
			if sp.rate > 0 {
				c.runOpen(ctx, g, t0, cfg.dur, sp.rate)
			} else {
				c.runClosed(ctx, g, t0, cfg.dur)
			}
		}(c, gens[i])
	}
	wg.Wait()
	stopPoll()
	steal1, total1 := cpuTicks()
	res.stealPct = 100 * ratio(float64(steal1-steal0), float64(total1-total0))

	readBack := func(e kv.Engine, timed bool) {
		into := make([]series, clients)
		var wg sync.WaitGroup
		for i, c := range cs {
			if timed {
				into[i] = newSeries(windows, 0)
			}
			wg.Add(1)
			go func(c *client, into series) {
				defer wg.Done()
				c.verified += c.readBack(ctx, e, keys, into)
			}(c, into[i])
		}
		wg.Wait()
		if timed {
			for _, s := range into {
				res.gets.merge(s)
			}
		}
	}
	if sp.readBackGets {
		runtime.GC() // start the timed read-back from the same heap state every run
		readBack(eng, true)
	}
	if cfg.rec != nil {
		cfg.rec.on.Store(false)
	}
	if res.after, err = sys.storageStats(ctx); err != nil {
		return nil, err
	}
	if res.clusterAfter, err = sys.clusterStats(ctx); err != nil {
		return nil, err
	}
	if err := sys.eng.Flush(ctx); err != nil {
		return nil, fmt.Errorf("closing flush: %w", err)
	}
	final, err := sys.storageStats(ctx)
	if err != nil {
		return nil, err
	}
	res.runFlush = final.BytesFlushed - res.after.BytesFlushed
	if !sp.readBackGets {
		readBack(eng, false)
	}
	if sp.reopen {
		err := sys.close()
		sys = nil
		if err != nil {
			return nil, fmt.Errorf("close: %w", err)
		}
		if sys, err = openSystem(sp, dir, cfg.rec); err != nil {
			return nil, fmt.Errorf("reopen: %w", err)
		}
		e := sys.eng
		if cfg.wrap != nil {
			e = cfg.wrap(e)
		}
		readBack(e, false)
	}

	err = sys.close()
	sys = nil
	if err != nil {
		return nil, fmt.Errorf("close: %w", err)
	}
	res.rssMB = peakRSSMB()
	res.amp, res.ampLive, res.ampWhen = final, loadLive, "after the run and a closing flush"
	if sp.runMemtable > 0 {
		// The load's state: the closing flush after the run writes the
		// keys the run's Puts touched, a count that grows with throughput.
		res.amp, res.ampWhen = loaded, "after the load and a flush"
	}
	for _, c := range cs {
		res.attempted += c.attempted
		res.verified += c.verified
		res.failed += c.failed
		res.errs = append(res.errs, c.errs...)
		res.lag = append(res.lag, c.lag...)
		res.lastEnd = max(res.lastEnd, c.lastEnd)
		for w := range res.completed {
			res.completed[w] += c.completed[w]
		}
		res.puts.merge(c.puts)
		if !sp.readBackGets {
			res.gets.merge(c.gets)
		}
		if sp.runMemtable == 0 {
			for _, k := range c.inserted {
				res.ampLive += int64(len(keyBytes(k)) + valueSize)
			}
		}
	}
	return res, nil
}

// pollStats calls eng.Stats every 20ms until the returned stop is called.
func pollStats(ctx context.Context, eng kv.Engine, rec *recorder) (stop func()) {
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		t := time.NewTicker(20 * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-done:
				return
			case <-t.C:
				start := time.Now()
				eng.Stats(ctx)
				rec.add(kindStats, 0, start, 0)
			}
		}
	}()
	return func() {
		close(done)
		wg.Wait()
	}
}
