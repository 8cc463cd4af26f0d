package main

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"sort"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/vfs"
	"repro/kv"
)

// tiny shrinks a workload so a run takes a fraction of a second while
// still flushing and compacting where the full-size workload does.
func tiny(sp spec) spec {
	switch {
	case sp.nodes > 0:
		sp.records = 300
	case sp.rate > 0:
		sp.records, sp.memtable, sp.rate = 2000, 64<<10, 10000
	default:
		sp.records, sp.memtable = 5000, 64<<10
	}
	sp.loadBatch = 100
	return sp
}

type output struct {
	Correct   bool `json:"correct"`
	Attempted int  `json:"attempted"`
	Failed    int  `json:"failed"`
	Metrics   map[string]struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	} `json:"metrics"`
	checks string // the report's check lines
}

// runTiny runs a shrunken workload and parses the last line of its
// output.
// The pacer may fall behind on a loaded machine or under the race
// detector, so these runs accept any pacer lag; TestInvalidRunHasNoResult
// covers the limit.
func runTiny(t *testing.T, sp spec, trace bool, wrap func(kv.Engine) kv.Engine) (int, output) {
	t.Helper()
	code, stdout, stderr := executeTiny(t, sp, trace, wrap, math.Inf(1))
	lines := strings.Split(strings.TrimSpace(stdout), "\n")
	var out output
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &out); err != nil {
		t.Fatalf("%s: last line is not the result: %v\nstdout:\n%s\nstderr:\n%s", sp.name, err, stdout, stderr)
	}
	for _, l := range lines {
		if strings.HasPrefix(l, "# check") {
			out.checks += l + "\n"
		}
	}
	return code, out
}

func executeTiny(t *testing.T, sp spec, trace bool, wrap func(kv.Engine) kv.Engine, maxLagUS float64) (code int, stdout, stderr string) {
	t.Helper()
	var out, errs bytes.Buffer
	code = execute(context.Background(), invocation{
		sp: tiny(sp), seed: 7, dur: 200 * time.Millisecond, trace: trace,
		out: t.TempDir(), commit: "test", maxLagUS: maxLagUS, wrap: wrap,
	}, &out, &errs)
	return code, out.String(), errs.String()
}

// benchmarkMetrics reads the metric names BENCHMARK.json declares.
func benchmarkMetrics(t *testing.T) (endToEnd, perLayer []string, workloadNames []string) {
	t.Helper()
	b, err := vfs.Default.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bench struct {
		Workloads []struct{ Name string } `json:"workloads"`
		EndToEnd  []struct{ Name string } `json:"end_to_end"`
		PerLayer  []struct{ Name string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &bench); err != nil {
		t.Fatal(err)
	}
	for _, w := range bench.Workloads {
		workloadNames = append(workloadNames, w.Name)
	}
	for _, m := range bench.EndToEnd {
		endToEnd = append(endToEnd, m.Name)
	}
	for _, m := range bench.PerLayer {
		perLayer = append(perLayer, m.Name)
	}
	return endToEnd, perLayer, workloadNames
}

func names(out output) []string {
	var ns []string
	for n := range out.Metrics {
		ns = append(ns, n)
	}
	sort.Strings(ns)
	return ns
}

func sorted(xs []string) []string {
	s := append([]string(nil), xs...)
	sort.Strings(s)
	return s
}

// TestWorkloadsReportDeclaredMetrics runs every workload at a tiny size,
// untraced and traced, and checks each reports exactly the metrics
// BENCHMARK.json declares, correctly.
func TestWorkloadsReportDeclaredMetrics(t *testing.T) {
	endToEnd, perLayer, declared := benchmarkMetrics(t)
	var have []string
	for _, sp := range workloads {
		have = append(have, sp.name)
	}
	if strings.Join(sorted(declared), ",") != strings.Join(sorted(have), ",") {
		t.Fatalf("BENCHMARK.json workloads %v, program has %v", declared, have)
	}
	for _, sp := range workloads {
		for _, trace := range []bool{false, true} {
			code, out := runTiny(t, sp, trace, nil)
			if code != 0 || !out.Correct || out.Failed != 0 || out.Attempted == 0 {
				t.Fatalf("%s trace=%t: exit %d, correct=%t attempted=%d failed=%d\n%s", sp.name, trace, code, out.Correct, out.Attempted, out.Failed, out.checks)
			}
			want := endToEnd
			if trace {
				want = perLayer
			}
			if got := names(out); strings.Join(got, ",") != strings.Join(sorted(want), ",") {
				t.Errorf("%s trace=%t reports %v, BENCHMARK.json declares %v", sp.name, trace, got, sorted(want))
			}
			if !trace {
				for _, n := range []string{"setup_s", "ops_per_s", "put_p50_us", "get_p50_us", "write_amp", "space_amp"} {
					if out.Metrics[n].Value <= 0 {
						t.Errorf("%s: %s = %v, want > 0", sp.name, n, out.Metrics[n].Value)
					}
				}
			}
		}
	}
}

// corruptOne flips a bit in the first value a Get returns through any
// engine wrapped with the same done flag.
type corruptOne struct {
	kv.Engine
	done *atomic.Bool
}

func (c *corruptOne) Get(ctx context.Context, key []byte) ([]byte, error) {
	v, err := c.Engine.Get(ctx, key)
	if err == nil && len(v) > 0 && c.done.CompareAndSwap(false, true) {
		v = append([]byte(nil), v...)
		v[len(v)-1] ^= 1
	}
	return v, err
}

// TestCorruptValueFailsTheRun proves the correctness check fires: one
// wrong byte in one returned value makes the run incorrect and the
// command exit non-zero. On ingest the run issues no Gets, so the
// corrupted value is caught by the read-back.
func TestCorruptValueFailsTheRun(t *testing.T) {
	for _, sp := range workloads {
		done := new(atomic.Bool)
		code, out := runTiny(t, sp, false, func(e kv.Engine) kv.Engine { return &corruptOne{Engine: e, done: done} })
		if code != 1 || out.Correct || out.Failed != 1 {
			t.Errorf("%s with one corrupted value: exit %d, correct=%t failed=%d; want exit 1, correct=false, failed=1",
				sp.name, code, out.Correct, out.Failed)
		}
	}
}

// TestWrongGetIsExplainedOnStderr checks that a wrong Get in the run is
// described on stderr, with what a second read of the key returned: the
// corrupting wrapper damages one answer only, so the second read is right.
func TestWrongGetIsExplainedOnStderr(t *testing.T) {
	sp, _ := specByName("lookup")
	done := new(atomic.Bool)
	code, _, stderr := executeTiny(t, sp, false, func(e kv.Engine) kv.Engine { return &corruptOne{Engine: e, done: done} }, math.Inf(1))
	if code != 1 || !strings.Contains(stderr, "perfbench: lookup: get user") ||
		!strings.Contains(stderr, "; read again: the right value") {
		t.Errorf("exit %d, stderr:\n%s\nwant exit 1 and the wrong Get with its second read on stderr", code, stderr)
	}
}

func TestRunRejectsBadArguments(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "nosuch"},
		{"--workload", "ingest", "--trace", "2"},
		{"--workload", "ingest", "--seconds", "0"},
	} {
		var stdout, stderr bytes.Buffer
		if code := run(context.Background(), args, &stdout, &stderr); code != 2 {
			t.Errorf("%v: exit %d, want 2", args, code)
		}
	}
}

// TestInvalidRunHasNoResult runs the open-loop workload with a pacer lag
// limit no run can meet: the run must be marked invalid, print no result
// line and exit 3.
func TestInvalidRunHasNoResult(t *testing.T) {
	sp, _ := specByName("ingest")
	code, stdout, _ := executeTiny(t, sp, false, nil, -1)
	if code != 3 {
		t.Errorf("exit %d, want 3", code)
	}
	if !strings.Contains(stdout, "# INVALID RUN") {
		t.Errorf("report does not say INVALID RUN:\n%s", stdout)
	}
	if strings.Contains(stdout, `"metrics"`) {
		t.Errorf("an invalid run printed a result:\n%s", stdout)
	}
}

// TestLinkLeavesOutMixedOps checks the self time of a replicated op and
// that an op whose window holds more engine spans than replicas (here a
// straggler of the previous op on the key) is left out.
func TestLinkLeavesOutMixedOps(t *testing.T) {
	r := newRecorder()
	r.spans = []span{
		{start: 0, end: 100, key: 1, kind: kindPut},
		{start: 10, end: 20, key: 1, kind: kindEnginePut},
		{start: 15, end: 30, key: 1, kind: kindEnginePut},
		{start: 40, end: 50, key: 1, kind: kindEnginePut},
		{start: 200, end: 300, key: 1, kind: kindGet},
		{start: 205, end: 230, key: 1, kind: kindEnginePut}, // late span of the op before
		{start: 210, end: 220, key: 1, kind: kindEngineGet},
		{start: 210, end: 225, key: 1, kind: kindEngineGet},
		{start: 212, end: 240, key: 1, kind: kindEngineGet},
		{start: 400, end: 500, key: 2, kind: kindGet},
		{start: 450, end: 600, key: 2, kind: kindEngineGet}, // runs past the op's end
	}
	selfGet, selfPut, mixed, cause := r.link(3)
	if len(selfPut) != 1 || selfPut[0] != 100-30 {
		t.Errorf("put self times %v, want [70]", selfPut)
	}
	if len(selfGet) != 1 || selfGet[0] != 100-50 {
		t.Errorf("get self times %v, want [50]", selfGet)
	}
	if mixed != 1 {
		t.Errorf("mixed = %d, want 1", mixed)
	}
	if cause[1] != 0 || cause[10] != 9 || cause[0] != -1 {
		t.Errorf("cause = %v", cause)
	}
}
