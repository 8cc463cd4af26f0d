// Command perfbench is the engine's benchmark. It generates YCSB
// operation streams from a seed, runs one workload against the engine
// through the kv façade, checks every answer, and prints the workload's
// metrics with their units and sample counts, ending with one JSON line.
//
//	bash perfbench/run.sh --workload ingest --seed 1 --seconds 10 --trace 0
//
// Workloads (see the workloads table in workload.go for parameters):
//
//   - ingest: 50k records, 1 MiB memtable, BT(I) auto-compaction; an open
//     loop of 97% updates / 3% inserts (latest) at 60k ops/s.
//   - lookup: 500k records in several tables; a closed loop of 95% Get /
//     5% Put (zipfian).
//   - replicated: 3 loopback nodes behind kv.DialCluster, N=3/W=2/R=2,
//     20k records; a closed loop of 50% Get / 50% Put (zipfian).
//
// Every workload uses two client goroutines; key k belongs to client
// k % 2, which is its only writer, so at most one operation per key is in
// flight and the value every key must hold is known exactly. Values are
// 100 bytes that encode the key and a version; each Get is compared with
// the value last written. After the run every key is read back, and on
// ingest the engine is also closed, reopened and read back again. Any
// failed or wrong operation makes the command exit 1.
//
// With --trace 0 it prints the end-to-end metrics; the p99 latencies are
// printed too, but reported in the JSON with the per-layer metrics (see
// tails). With --trace 1 it
// runs the workload untraced, then again with spans recorded at the calls
// into each layer (the kv façade, a timing vfs.FS passed through
// kv.WithFS, a timing wrapper around the engine each kvnet.Server
// serves), and prints the per-layer metrics and the tracing overhead.
// Spans are written to <out>/spans-<workload>.tsv.
//
// An open-loop run whose pacer fell behind (lag p99 above maxGenLagUS)
// is invalid: its figures measure the generator, not the engine, so the
// report says INVALID RUN and no result line is printed.
//
// Exit status: 0 correct, 1 a wrong or failed operation, 2 an error that
// stopped the run, 3 an invalid run with no wrong operation.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/vfs"
	"repro/kv"
)

func main() {
	os.Exit(run(context.Background(), os.Args[1:], os.Stdout, os.Stderr))
}

// invocation is one command line's worth of settings.
type invocation struct {
	sp     spec
	seed   int64
	dur    time.Duration
	trace  bool
	out    string
	commit string
	// maxLagUS is the pacer lag p99 past which an open-loop run is
	// invalid: maxGenLagUS, except in tests.
	maxLagUS float64
	wrap     func(kv.Engine) kv.Engine // tests only
}

func run(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	fl := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fl.SetOutput(stderr)
	name := fl.String("workload", "", "workload: ingest, lookup or replicated")
	seed := fl.Int64("seed", 1, "seed of the generated operation streams")
	seconds := fl.Float64("seconds", 10, "length of the measured run")
	trace := fl.Int("trace", 0, "1 reports per-layer metrics from a traced run")
	out := fl.String("out", ".bench_build", "directory for engine data and span logs")
	commit := fl.String("commit", "unknown", "commit of the code under test, for the report")
	if err := fl.Parse(args); err != nil {
		return 2
	}
	sp, ok := specByName(*name)
	if !ok || (*trace != 0 && *trace != 1) || *seconds <= 0 {
		fmt.Fprintf(stderr, "perfbench: need --workload ingest|lookup|replicated, --seconds > 0, --trace 0|1\n")
		return 2
	}
	return execute(ctx, invocation{
		sp: sp, seed: *seed, dur: time.Duration(*seconds * float64(time.Second)),
		trace: *trace == 1, out: *out, commit: *commit, maxLagUS: maxGenLagUS,
	}, stdout, stderr)
}

// metric is one reported figure; n is the number of samples behind it.
type metric struct {
	name  string
	value float64
	unit  string
	n     int
	note  string
}

func execute(ctx context.Context, inv invocation, stdout, stderr io.Writer) int {
	sp := inv.sp
	printHeader(stdout, inv)
	cfg := runConfig{
		seed: inv.seed, dur: inv.dur, data: filepath.Join(inv.out, "data"),
		reps: setupReps, wrap: inv.wrap,
	}
	if inv.trace {
		cfg.reps = 1
	}
	un, err := runWorkload(ctx, sp, cfg)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", sp.name, err)
		return 2
	}
	e2e := endToEnd(un)
	attempted, failed, errs := un.attempted+un.verified, un.failed, un.errs
	valid := printValidity(stdout, "run", sp, un, inv.maxLagUS)
	printMetrics(stdout, "end-to-end", e2e)
	printMetrics(stdout, "tail", tails(un))
	reported := e2e

	if inv.trace {
		rec := newRecorder()
		cfg.rec = rec
		tr, err := runWorkload(ctx, sp, cfg)
		if err != nil {
			fmt.Fprintf(stderr, "perfbench: %s traced: %v\n", sp.name, err)
			return 2
		}
		valid = printValidity(stdout, "traced run", sp, tr, inv.maxLagUS) && valid
		attempted += tr.attempted + tr.verified
		failed += tr.failed
		errs = append(errs, tr.errs...)
		selfGet, selfPut, mixed, cause := rec.link(sp.nodes)
		reported = layerMetrics(un, tr, rec, selfGet, selfPut)
		printMetrics(stdout, "per-layer", reported)
		if sp.nodes > 0 {
			fmt.Fprintf(stdout, "# cluster self time: %d ops left out, their window on the key holding more than %d engine spans\n", mixed, sp.nodes)
		}
		fmt.Fprintf(stdout, "# spans: %d recorded, %d beyond the %d-span log; per-layer counts include them all\n",
			len(rec.spans), rec.dropped, maxSpans)
		if picks := combine(tr.after, tr.before, true).CompactionPicks; len(picks) > 0 {
			fmt.Fprintf(stdout, "# compaction picks by policy: %v\n", picks)
		}
		path := filepath.Join(inv.out, "spans-"+sp.name+".tsv")
		if err := rec.writeSpans(path, cause); err != nil {
			fmt.Fprintf(stderr, "perfbench: writing spans: %v\n", err)
			return 2
		}
		fmt.Fprintf(stdout, "# span log: %s\n", path)
	}

	fmt.Fprintf(stdout, "# check: %d operations and read-backs, %d failed or wrong (fail_ratio %.6g)\n",
		attempted, failed, float64(failed)/float64(max(attempted, 1)))
	for _, e := range errs {
		fmt.Fprintf(stdout, "# check failed: %s\n", e)
	}
	if failed == 0 && !valid {
		fmt.Fprintf(stderr, "perfbench: %s: invalid run: the open-loop pacer fell behind, so there is no result\n", sp.name)
		return 3
	}
	printJSON(stdout, failed == 0, attempted, failed, reported)
	if failed > 0 {
		fmt.Fprintf(stderr, "perfbench: %s: %d failed or wrong operations\n", sp.name, failed)
		for _, e := range errs {
			fmt.Fprintf(stderr, "perfbench: %s: %s\n", sp.name, e)
		}
		return 1
	}
	return 0
}

// endToEnd computes the metrics a user of the engine sees.
func endToEnd(r *result) []metric {
	m := []metric{{"setup_s", median(r.setupS), "s", len(r.setupS), "median over set-ups (open + load)"}}
	if r.lastEnd > 0 {
		// Open loop: every op due in the run, over the time until the
		// last one ended. Below the offered rate means a backlog.
		n := r.attempted
		m = append(m, metric{"ops_per_s", float64(n) / r.lastEnd.Seconds(), "1/s", n, "ops due in the run / time until the last one ended"})
	} else {
		var rates []float64
		done := 0
		for _, n := range r.completed {
			rates = append(rates, float64(n)/r.winLen.Seconds())
			done += n
		}
		m = append(m, metric{"ops_per_s", median(rates), "1/s", done, fmt.Sprintf("median over windows of completions per second: %.6g", rates)})
	}
	m = append(m, latency("put_p50_us", r.puts, 0.50), latency("get_p50_us", r.gets, 0.50))
	a := r.amp
	flushed, compacted := a.BytesFlushed, a.BytesCompacted
	m = append(m,
		metric{"write_amp", ratio(float64(flushed+compacted), float64(flushed)), "ratio", 1,
			fmt.Sprintf("(flushed %d + compacted %d) / flushed bytes over the engine's life, %s", flushed, compacted, r.ampWhen)},
		metric{"space_amp", ratio(float64(a.TableBytes), float64(r.ampLive)), "ratio", 1,
			fmt.Sprintf("table bytes %d / live user bytes %d, %s; the closing flush after the run wrote %d bytes",
				a.TableBytes, r.ampLive, r.ampWhen, r.runFlush)},
		metric{"rss_peak_mb", r.rssMB, "MB", 1, "peak resident set of the process"},
	)
	return m
}

func latency(name string, s series, q float64) metric {
	return metric{name, s.windowQuantileUS(q), "us", s.count(),
		fmt.Sprintf("median over windows of the window quantile; whole run %.6g", s.wholeQuantileUS(q))}
}

// tails are the p99 latencies. Users see them end to end, but on a shared
// 2-vCPU machine their run-to-run spread exceeds any bound worth gating
// on, so they are reported with the per-layer metrics.
func tails(r *result) []metric {
	return []metric{latency("put_p99_us", r.puts, 0.99), latency("get_p99_us", r.gets, 0.99)}
}

const selfNote = "op span minus the union of the engine spans on its key that start inside it; ops holding late spans of earlier ops left out"

// layerMetrics computes the per-layer metrics of a traced run tr, and
// the tracing overhead against the untraced run un.
func layerMetrics(un, tr *result, rec *recorder, selfGet, selfPut []int64) []metric {
	d := combine(tr.after, tr.before, true)
	ng, np := tr.gets.count(), tr.puts.count()
	gets, puts := float64(ng), float64(np)
	picks := uint64(0)
	for _, n := range d.CompactionPicks {
		picks += n
	}
	var syncs int64
	for f := 0; f < numFileKinds; f++ {
		syncs += rec.count[ioKind(f, ioSync)]
	}
	sstW, sstS := ioKind(fileSST, ioWrite), ioKind(fileSST, ioSync)
	c0, c1 := tr.clusterBefore, tr.clusterAfter
	cnt := func(k spanKind) float64 { return float64(rec.count[k]) }
	stats := len(rec.durs[kindStats])
	m := []metric{
		{"kv.stats_p50_us", rec.durationQuantileUS(kindStats, 0.5), "us", stats, "Stats() polled every 20ms"},
		{"kv.stats_max_ms", rec.durationQuantileUS(kindStats, 1) / 1e3, "ms", stats, "Stats() polled every 20ms"},
		{"lsm.group_size", ratio(float64(d.GroupedWrites), float64(d.GroupCommits)), "count", int(d.GroupCommits), "writes per commit group"},
		{"lsm.write_stalls", float64(d.WriteStalls), "count", 1, ""},
		{"lsm.write_stall_ms", float64(d.WriteStallNanos) / 1e6, "ms", 1, ""},
		{"lsm.flushes", float64(d.Flushes), "count", 1, ""},
		{"lsm.minor_compactions", float64(d.MinorCompactions), "count", 1, ""},
		{"lsm.bytes_flushed", float64(d.BytesFlushed), "bytes", 1, ""},
		{"lsm.bytes_compacted", float64(d.BytesCompacted), "bytes", 1, ""},
		{"lsm.tables_end", float64(tr.after.Tables), "count", 1, "summed over nodes on replicated"},
		{"compaction.picks", float64(picks), "count", 1, "all policies"},
		{"compaction.bytes_per_pick", ratio(float64(d.BytesCompacted), float64(picks)), "bytes", int(picks), ""},
		{"cache.hit_ratio", ratio(float64(d.BlockCacheHits), float64(d.BlockCacheHits+d.BlockCacheMisses)), "ratio", int(d.BlockCacheHits + d.BlockCacheMisses), "block cache"},
		{"cache.misses_per_get", ratio(float64(d.BlockCacheMisses), gets), "count", ng, ""},
		{"bloom.negatives_per_get", ratio(float64(d.FilterNegatives), gets), "count", ng, ""},
		{"bloom.false_positives_per_get", ratio(float64(d.FilterFalsePositives), gets), "count", ng, ""},
		{"vfs.wal_bytes_per_put", ratio(float64(rec.bytes[kindWALWrite]), puts), "bytes", np, "all nodes on replicated"},
		{"vfs.wal_write_us_p50", rec.durationQuantileUS(kindWALWrite, 0.5), "us", int(rec.count[kindWALWrite]), ""},
		{"vfs.syncs", float64(syncs), "count", 1, "all file kinds"},
		{"vfs.sst_write_mb", float64(rec.bytes[sstW]) / 1e6, "MB", int(rec.count[sstW]), ""},
		{"vfs.sst_write_ms", float64(rec.busy[sstW]+rec.busy[sstS]) / 1e6, "ms", int(rec.count[sstW] + rec.count[sstS]), "Write and Sync on *.sst"},
		{"vfs.sst_reads_per_get", ratio(cnt(kindSSTRead), gets), "count", ng, "ReadAt calls on *.sst"},
		{"vfs.sst_read_us_p50", rec.durationQuantileUS(kindSSTRead, 0.5), "us", int(rec.count[kindSSTRead]), ""},
		{"vfs.manifest_rewrites", float64(rec.manifestRenames), "count", 1, ""},
		{"kvnet.server_get_p50_us", rec.durationQuantileUS(kindEngineGet, 0.5), "us", int(rec.count[kindEngineGet]), "engine call made by the server"},
		{"kvnet.server_put_p50_us", rec.durationQuantileUS(kindEnginePut, 0.5), "us", int(rec.count[kindEnginePut]), "engine call made by the server"},
		{"kvnet.engine_calls_per_get", ratio(cnt(kindEngineGet), gets), "count", ng, ""},
		{"kvnet.engine_calls_per_put", ratio(cnt(kindEnginePut), puts), "count", np, "includes read repairs and hint replays"},
		{"cluster.get_self_p50_us", quantileOf(selfGet, 0.5) / 1e3, "us", len(selfGet), selfNote},
		{"cluster.put_self_p50_us", quantileOf(selfPut, 0.5) / 1e3, "us", len(selfPut), selfNote},
		{"cluster.read_repairs", float64(c1.ReadRepairs - c0.ReadRepairs), "count", 1, ""},
		{"cluster.hints_parked", float64(c1.HintsParked - c0.HintsParked), "count", 1, ""},
		{"cluster.node_down_events", float64(c1.NodeDownEvents - c0.NodeDownEvents), "count", 1, ""},
		{"harness.gen_lag_p99_us", genLagP99US(un), "us", len(un.lag), "untraced run; open loop only"},
	}
	m = append(m, tails(un)...)
	base, traced := append(endToEnd(un), tails(un)...), append(endToEnd(tr), tails(tr)...)
	for i, b := range base {
		m = append(m, metric{"harness.trace_overhead_pct." + b.name, 100 * ratio(traced[i].value-b.value, b.value), "%", 1,
			fmt.Sprintf("traced %.6g vs untraced %.6g", traced[i].value, b.value)})
	}
	return m
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// maxGenLagUS is the pacer lateness (p99) past which an open-loop run is
// invalid: the generator, not the engine, failed to keep the schedule.
const maxGenLagUS = 1000

// genLagP99US is the open-loop pacer's p99 lateness in µs.
func genLagP99US(r *result) float64 {
	return quantileOf(append([]int64(nil), r.lag...), 0.99) / 1e3
}

// printValidity reports the host's CPU steal during the run and, for an
// open loop, whether the pacer kept the schedule (lag p99 at most
// maxLagUS); it returns false if it did not.
func printValidity(w io.Writer, label string, sp spec, r *result, maxLagUS float64) bool {
	fmt.Fprintf(w, "# host: %.1f%% of CPU time was stolen by the hypervisor during the %s\n", r.stealPct, label)
	if sp.rate == 0 {
		return true
	}
	lag := genLagP99US(r)
	fmt.Fprintf(w, "# open loop (%s): offered %d ops/s; pacer lag p99 %.1f us (n=%d)\n", label, sp.rate, lag, len(r.lag))
	if lag > maxLagUS {
		fmt.Fprintf(w, "# INVALID RUN: the pacer fell behind in the %s (lag p99 %.1f us > %g us); the figures measure the generator, not the engine\n",
			label, lag, maxLagUS)
		return false
	}
	fmt.Fprintf(w, "# valid: the pacer kept the schedule\n")
	return true
}

func printHeader(w io.Writer, inv invocation) {
	sp := inv.sp
	loop := "closed loop"
	if sp.rate > 0 {
		loop = fmt.Sprintf("open loop at %d ops/s", sp.rate)
	}
	engine := "one kv.Open partition"
	if sp.nodes > 0 {
		engine = fmt.Sprintf("%d loopback nodes behind kv.DialCluster, N=3 W=2 R=2", sp.nodes)
	}
	fmt.Fprintf(w, "# perfbench workload=%s seed=%d seconds=%g trace=%t\n", sp.name, inv.seed, inv.dur.Seconds(), inv.trace)
	fmt.Fprintf(w, "# why: %s\n", sp.why)
	fmt.Fprintf(w, "# params: records=%d value_bytes=%d clients=%d %s, insert=%g update=%g read=%g %s; engine: %s, memtable=%s, auto_compact=%s, async WAL; %d windows, %d set-ups\n",
		sp.records, valueSize, clients, loop, sp.insert, sp.update, sp.read, sp.dist, engine,
		orDefault(sp.memtable), orNone(sp.autoCompact), windows, setupReps)
	fmt.Fprintf(w, "# host: cpu=%q nproc=%d GOMAXPROCS=%d go=%s commit=%s\n",
		cpuModel(), runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), inv.commit)
}

func orDefault(n int) string {
	if n == 0 {
		return "default"
	}
	return fmt.Sprint(n)
}

func orNone(s string) string {
	if s == "" {
		return "none"
	}
	return s
}

func printMetrics(w io.Writer, kind string, ms []metric) {
	for _, m := range ms {
		note := ""
		if m.note != "" {
			note = "; " + m.note
		}
		fmt.Fprintf(w, "# %s %s = %.6g %s (n=%d%s)\n", kind, m.name, m.value, m.unit, m.n, note)
	}
}

func printJSON(w io.Writer, correct bool, attempted, failed int, ms []metric) {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{correct, attempted, failed, map[string]value{}}
	for _, m := range ms {
		out.Metrics[m.name] = value{m.value, m.unit}
	}
	b, _ := json.Marshal(out)
	fmt.Fprintln(w, string(b))
}

// cpuModel reads the CPU model name for the report.
func cpuModel() string {
	b, err := vfs.Default.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// cpuTicks reads the machine's stolen and total CPU time, in ticks, from
// the first line of /proc/stat; zeros when it cannot.
func cpuTicks() (steal, total uint64) {
	b, err := vfs.Default.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	fields := strings.Fields(line)
	if len(fields) < 9 {
		return 0, 0
	}
	for i, f := range fields[1:] {
		n, _ := strconv.ParseUint(f, 10, 64)
		total += n
		if i == 7 { // user nice system idle iowait irq softirq steal
			steal = n
		}
	}
	return steal, total
}

// peakRSSMB is the process's peak resident set in MB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // kilobytes on Linux
}
