// Command perfbench is the repository benchmark: it measures the keyword
// query engine end to end and, in a separate traced run, layer by layer, on
// three workloads, and checks every answer against a reference engine in the
// same command.
//
//	go run . --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// run from this directory, or `bash perfbench/run.sh ...` from the
// repository root, which builds into .bench_build first. Each run replays a
// fixed operation sequence generated from --seed, sized by --seconds, in a
// closed loop with one client: all counts repeat exactly for a seed and only
// timings vary. Human-readable lines come first; the last line of standard
// output is one JSON object with the fields correct, attempted, failed and
// metrics (the end-to-end metrics with --trace 0, the per-layer metrics with
// --trace 1). workloads.json records why each workload exists and which
// end-to-end metric each layer metric should move.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strings"
)

// metricDef declares one reported metric. Bound is the end-to-end
// regression bound (a share of the parent's median) mirrored in
// BENCHMARK.json; per-layer metrics have none.
type metricDef struct {
	Name   string
	Unit   string
	Better string
	Bound  float64
}

// endToEnd are the metrics a user of the engine sees; every workload
// reports all of them with --trace 0.
var endToEnd = []metricDef{
	{"answer_p50_ms", "ms", "lower", 0.25},
	{"answer_p99_ms", "ms", "lower", 0.25},
	{"answers_per_s", "1/s", "higher", 0.25},
	{"commit_p50_ms", "ms", "lower", 0.25},
	{"commit_p90_ms", "ms", "lower", 0.25},
	{"rows_committed_per_s", "1/s", "higher", 0.25},
	{"heap_mb", "MB", "lower", 0.25},
	{"setup_s", "s", "lower", 0.25},
}

// perLayer are the traced run's metrics, named <module>.<quantity>; every
// workload reports all of them with --trace 1. Better gives the direction
// of improvement; counts a sequence fixes (commits, samples) count as
// higher-is-better work done.
var perLayer = []metricDef{
	{"keyword.parse_us", "us", "lower", 0},
	{"match.match_us", "us", "lower", 0},
	{"match.tags_per_term", "count", "lower", 0},
	{"pattern.generate_us", "us", "lower", 0},
	{"pattern.patterns_per_query", "count", "lower", 0},
	{"translate.translate_us", "us", "lower", 0},
	{"core.execute_us", "us", "lower", 0},
	{"core.pool_overlap", "ratio", "higher", 0},
	{"sqldb.exec_us", "us", "lower", 0},
	{"sqldb.stmts_per_query", "count", "lower", 0},
	{"sqldb.rows_out_per_query", "count", "lower", 0},
	{"sqldb.memo_hit_ratio", "ratio", "higher", 0},
	{"sqldb.memo_hits", "count", "higher", 0},
	{"kwagg.render_us", "us", "lower", 0},
	{"qcache.interp_hit_ratio", "ratio", "higher", 0},
	{"qcache.answer_hit_ratio", "ratio", "higher", 0},
	{"qcache.interp_hits", "count", "higher", 0},
	{"qcache.interp_misses", "count", "lower", 0},
	{"qcache.answer_hits", "count", "higher", 0},
	{"qcache.answer_misses", "count", "lower", 0},
	{"qcache.evictions", "count", "lower", 0},
	{"server.roundtrip_us", "us", "lower", 0},
	{"core.live_build_ms", "ms", "lower", 0},
	{"kwagg.fold_ms", "ms", "lower", 0},
	{"relation.extend_ms", "ms", "lower", 0},
	{"relation.index_append_ms", "ms", "lower", 0},
	{"sqak.rebuild_ms", "ms", "lower", 0},
	{"live.rows_per_commit", "count", "higher", 0},
	{"live.commits", "count", "higher", 0},
	{"live.rows_committed", "count", "higher", 0},
	{"relation.load_ms", "ms", "lower", 0},
	{"normalize.build_view_ms", "ms", "lower", 0},
	{"orm.build_ms", "ms", "lower", 0},
	{"relation.freeze_ms", "ms", "lower", 0},
	{"relation.build_index_ms", "ms", "lower", 0},
	{"sqak.new_ms", "ms", "lower", 0},
	{"core.statement_failures", "count", "lower", 0},
	{"core.retries", "count", "lower", 0},
	{"runtime.gc_ms_per_op", "ms", "lower", 0},
	{"trace.answer_p50_ms", "ms", "lower", 0},
	{"trace.overhead_ms", "ms", "lower", 0},
	{"trace.answer_accounted", "ratio", "higher", 0},
	{"trace.commit_accounted", "ratio", "higher", 0},
	{"trace.setup_accounted", "ratio", "higher", 0},
	{"bench.answer_samples", "count", "higher", 0},
	{"bench.commit_samples", "count", "higher", 0},
}

// result is the last line of standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload name: "+strings.Join(workloadNames(), ", "))
	seed := fs.Uint64("seed", 1, "seed of the generated operation sequence")
	seconds := fs.Int("seconds", 10, "sizes the operation sequence to take about this long")
	trace := fs.Int("trace", 0, "1 runs the traced per-layer measurement")
	work := fs.String("work", ".bench_build", "scratch directory for the saved dataset")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w := findWorkload(*name)
	if w == nil || *seconds < 1 || (*trace != 0 && *trace != 1) || fs.NArg() > 0 {
		fmt.Fprintf(stderr, "perfbench: need --workload (%s), --seconds >= 1 and --trace 0|1\n",
			strings.Join(workloadNames(), ", "))
		return 2
	}
	rep, err := measure(w, config{seed: *seed, seconds: *seconds, trace: *trace == 1, work: *work}, stdout)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", w.name, err)
		return 1
	}
	defs := endToEnd
	if *trace == 1 {
		defs = perLayer
	}
	res, err := rep.result(defs)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", w.name, err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	return 0
}

// report collects one run's measured values by metric name plus the
// correctness outcome.
type report struct {
	values     map[string]float64
	attempted  int
	failed     int
	mismatches []string
}

func newReport() *report { return &report{values: make(map[string]float64)} }

func (r *report) set(name string, v float64) { r.values[name] = v }

func (r *report) mismatch(format string, args ...any) {
	r.mismatches = append(r.mismatches, fmt.Sprintf(format, args...))
}

// result selects the declared metrics; a declared metric the run did not
// measure is a benchmark bug.
func (r *report) result(defs []metricDef) (*result, error) {
	res := &result{Correct: len(r.mismatches) == 0, Attempted: r.attempted, Failed: r.failed,
		Metrics: make(map[string]metricValue, len(defs))}
	for _, d := range defs {
		v, ok := r.values[d.Name]
		if !ok {
			return nil, fmt.Errorf("metric %s was not measured", d.Name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("metric %s is %v", d.Name, v)
		}
		res.Metrics[d.Name] = metricValue{Value: v, Unit: d.Unit}
	}
	if res.Attempted < 1 {
		return nil, errors.New("no operation was attempted")
	}
	return res, nil
}

// print writes every measured value, one per line, sorted by name.
func (r *report) print(out io.Writer) {
	units := make(map[string]string)
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		units[d.Name] = d.Unit
	}
	names := make([]string, 0, len(r.values))
	for n := range r.values {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(out, "%-28s %14.4f %s\n", n, r.values[n], units[n])
	}
	fmt.Fprintf(out, "%-28s %14d\n%-28s %14d\n", "ops.attempted", r.attempted, "ops.failed", r.failed)
	for _, m := range r.mismatches {
		fmt.Fprintf(out, "MISMATCH %s\n", m)
	}
}
