package main

import (
	"encoding/json"
	"math/rand"
	"os"
	"reflect"
	"regexp"
	"slices"
	"testing"
)

var metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// benchmarkFile is the part of ../BENCHMARK.json the benchmark must agree with.
type benchmarkFile struct {
	Workloads []struct{ Name, Why string }
	EndToEnd  []metricDef `json:"end_to_end"`
	PerLayer  []metricDef `json:"per_layer"`
}

func TestMetricDeclarations(t *testing.T) {
	if len(endToEnd) > 16 || len(perLayer) > 128 {
		t.Fatalf("%d end-to-end and %d per-layer metrics, limits 16 and 128", len(endToEnd), len(perLayer))
	}
	seen := make(map[string]bool)
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if !metricName.MatchString(d.Name) || seen[d.Name] {
			t.Errorf("metric name %q is malformed or repeated", d.Name)
		}
		seen[d.Name] = true
	}
	var setupBound float64
	for _, d := range endToEnd {
		if d.Name == "setup_s" {
			setupBound = d.Bound
		}
	}
	for _, d := range endToEnd {
		if d.Bound <= 0 || d.Bound > setupBound {
			t.Errorf("%s bound %v: bounds must be positive and setup_s's (%v) the largest", d.Name, d.Bound, setupBound)
		}
	}

	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(raw, &bf); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range bf.Workloads {
		names = append(names, w.Name)
	}
	if !slices.Equal(names, workloadNames()) {
		t.Errorf("BENCHMARK.json workloads %v, benchmark runs %v", names, workloadNames())
	}
	if !reflect.DeepEqual(bf.EndToEnd, endToEnd) {
		t.Errorf("BENCHMARK.json end_to_end differs from the benchmark's:\n%+v\n%+v", bf.EndToEnd, endToEnd)
	}
	if !reflect.DeepEqual(bf.PerLayer, perLayer) {
		t.Errorf("BENCHMARK.json per_layer differs from the benchmark's:\n%+v\n%+v", bf.PerLayer, perLayer)
	}
}

// TestWorkloadRecords checks that workloads.json describes the benchmark's
// workloads and that its prediction table names only declared metrics.
func TestWorkloadRecords(t *testing.T) {
	raw, err := os.ReadFile("workloads.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Workloads []struct {
			Name    string
			Loop    string
			Clients int
			K       int
		}
		Predictions []struct {
			ID           string
			LayerMetrics []string `json:"layer_metrics"`
			ShouldMove   []string `json:"should_move"`
			On           string
			NoChange     []struct{ Workload, Metric string } `json:"no_change"`
		}
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range doc.Workloads {
		names = append(names, w.Name)
		if wl := findWorkload(w.Name); wl == nil || wl.k != w.K || w.Loop != "closed" || w.Clients != 1 {
			t.Errorf("workloads.json record of %s does not match the benchmark", w.Name)
		}
	}
	if !slices.Equal(names, workloadNames()) {
		t.Errorf("workloads.json lists %v, benchmark runs %v", names, workloadNames())
	}
	declared := func(defs []metricDef, name string) bool {
		return slices.ContainsFunc(defs, func(d metricDef) bool { return d.Name == name })
	}
	for _, p := range doc.Predictions {
		for _, m := range p.LayerMetrics {
			if !declared(perLayer, m) {
				t.Errorf("%s: %s is not a per-layer metric", p.ID, m)
			}
		}
		for _, m := range p.ShouldMove {
			if !declared(endToEnd, m) {
				t.Errorf("%s: %s is not an end-to-end metric", p.ID, m)
			}
		}
		for _, nc := range p.NoChange {
			if findWorkload(nc.Workload) == nil || !declared(endToEnd, nc.Metric) {
				t.Errorf("%s: no-change %s on %s names no declared workload or metric", p.ID, nc.Metric, nc.Workload)
			}
		}
		if p.On != "all" && findWorkload(p.On) == nil {
			t.Errorf("%s: unknown workload %q", p.ID, p.On)
		}
	}
}

func TestPoolDeterministicPerSeed(t *testing.T) {
	for _, ds := range []*dataset{tpchData(), acmdlData()} {
		a, err := pool(ds.templates, 1, httpPoolSize)
		if err != nil {
			t.Fatal(err)
		}
		b, _ := pool(ds.templates, 1, httpPoolSize)
		c, _ := pool(ds.templates, 2, httpPoolSize)
		if !slices.Equal(a, b) {
			t.Error("the same seed drew different pools")
		}
		if slices.Equal(a, c) {
			t.Error("two seeds drew the same pool")
		}
		seen := make(map[string]bool)
		for _, q := range a {
			if seen[q] {
				t.Errorf("pool repeats %q", q)
			}
			seen[q] = true
		}
	}
}

// TestBatchSize checks that every commit batch holds rowsPerCommit rows and
// that consecutive batches use fresh keys.
func TestBatchSize(t *testing.T) {
	for _, ds := range []*dataset{tpchData(), acmdlData()} {
		next := ds.batcher()
		r := rand.New(rand.NewSource(1))
		a, b := next(r), next(r)
		if batchRows(a) != rowsPerCommit || batchRows(b) != rowsPerCommit {
			t.Errorf("batches of %d and %d rows, want %d", batchRows(a), batchRows(b), rowsPerCommit)
		}
		if reflect.DeepEqual(a[0].rows[0], b[0].rows[0]) {
			t.Error("two batches start with the same row")
		}
	}
}

// countNames are the metrics a sequence determines; timings are left out.
// The engine's sqldb.memo_hits is not among them: statements of one query
// run concurrently on the worker pool and race for shared fragments, so its
// count moves by a few between identical runs. The traced pass's
// sequential sqldb.memo_hit_ratio is exact.
var countNames = []string{
	"qcache.interp_hits", "qcache.interp_misses", "qcache.answer_hits", "qcache.answer_misses",
	"qcache.evictions", "core.statement_failures", "core.retries",
	"live.commits", "live.rows_committed", "bench.answer_samples", "bench.commit_samples",
	"pattern.patterns_per_query", "match.tags_per_term", "sqldb.stmts_per_query",
	"sqldb.rows_out_per_query", "sqldb.memo_hit_ratio",
}

// TestCountsRepeat runs a shortened sequence of every workload twice with
// one seed, traced, and requires identical counts, a passing answer check,
// no failed operation and every declared metric.
func TestCountsRepeat(t *testing.T) {
	if testing.Short() {
		t.Skip("replays every workload twice")
	}
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			cfg := config{seed: 7, seconds: 1, trace: true, work: t.TempDir()}
			var runs [2]*report
			for i := range runs {
				rep, err := measure(w, cfg, discard{})
				if err != nil {
					t.Fatal(err)
				}
				for _, defs := range [][]metricDef{endToEnd, perLayer} {
					res, err := rep.result(defs)
					if err != nil {
						t.Fatal(err)
					}
					if !res.Correct || res.Failed != 0 {
						t.Fatalf("correct=%v failed=%d: %v", res.Correct, res.Failed, rep.mismatches)
					}
				}
				runs[i] = rep
			}
			if runs[0].attempted != runs[1].attempted {
				t.Errorf("attempted %d then %d", runs[0].attempted, runs[1].attempted)
			}
			for _, n := range countNames {
				if a, b := runs[0].values[n], runs[1].values[n]; a != b {
					t.Errorf("%s: %v then %v", n, a, b)
				}
			}
			if a, b := runs[0].values["sqldb.memo_hits"], runs[1].values["sqldb.memo_hits"]; a < 0.99*b || b < 0.99*a {
				t.Errorf("sqldb.memo_hits: %v then %v, more than the 1%% a pool race explains", a, b)
			}
		})
	}
}

type discard struct{}

func (discard) Write(p []byte) (int, error) { return len(p), nil }
