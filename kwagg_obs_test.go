package kwagg

import (
	"context"
	"fmt"
	"strings"
	"testing"
	"time"

	"kwagg/internal/obs"
)

// TestAnswerTrace drives a traced query through the public API and checks
// the per-stage account: every pipeline stage appears, the top-level stages
// sum to approximately the trace's wall time, and the cache provenance
// annotations flip from miss to hit on the repeat query.
func TestAnswerTrace(t *testing.T) {
	eng, err := Open(UniversityDB(), nil)
	if err != nil {
		t.Fatal(err)
	}
	ctx, trace := obs.NewTrace(context.Background())
	if _, err := eng.AnswerContext(ctx, "SUM Credit Green", 2); err != nil {
		t.Fatal(err)
	}
	trace.Finish()

	seen := map[string]bool{}
	for _, s := range trace.Spans() {
		seen[s.Name] = true
	}
	for _, stage := range []string{"parse", "match", "generate", "rank", "translate", "execute", "sql", "render"} {
		if !seen[stage] {
			t.Errorf("trace missing stage %q; breakdown:\n%s", stage, trace.Breakdown())
		}
	}
	// The depth-0 stages must account for most of the wall time: the only
	// uninstrumented work is cache bookkeeping and span overhead. Keep the
	// bound loose (50%) so a loaded CI machine does not flake it.
	total, wall := trace.StageTotal(), trace.Elapsed()
	if total > wall {
		t.Errorf("stage total %v exceeds wall %v (depth-0 spans must not overlap)", total, wall)
	}
	if total < wall/2 {
		t.Errorf("stage total %v covers less than half of wall %v; breakdown:\n%s",
			total, wall, trace.Breakdown())
	}

	notes := map[string]string{}
	for _, a := range trace.Annotations() {
		notes[a.Key] = a.Value
	}
	if notes["interpretation_cache"] != "miss" || notes["answer_cache"] != "miss" {
		t.Errorf("first query should miss both caches: %v", notes)
	}

	ctx2, trace2 := obs.NewTrace(context.Background())
	if _, err := eng.AnswerContext(ctx2, "SUM Credit Green", 2); err != nil {
		t.Fatal(err)
	}
	notes2 := map[string]string{}
	for _, a := range trace2.Annotations() {
		notes2[a.Key] = a.Value
	}
	if notes2["answer_cache"] != "hit" {
		t.Errorf("repeat query should hit the answer cache: %v", notes2)
	}
	if len(trace2.Spans()) != 0 {
		t.Errorf("answer-cache hit should skip every stage, got %v", trace2.Spans())
	}
}

// TestEngineMetrics checks the registry the engine exports: stage histograms
// fill in without any trace on the context, query outcomes count by result,
// and the qcache counters are mirrored live.
func TestEngineMetrics(t *testing.T) {
	eng, err := Open(UniversityDB(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Answer("COUNT Student GROUPBY Course", 1); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Answer("COUNT Student GROUPBY Course", 1); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Answer("no such terms anywhere", 1); err == nil {
		t.Fatal("expected an error for a nonsense query")
	}

	vals := map[string]float64{}
	hists := map[string]uint64{}
	for _, m := range eng.Metrics().Snapshot() {
		key := m.Name
		var parts []string
		for k, v := range m.Labels {
			parts = append(parts, k+"="+v)
		}
		if len(parts) > 0 {
			key += "{" + strings.Join(sorted(parts), ",") + "}"
		}
		if m.Hist != nil {
			hists[key] = m.Hist.Count
		} else {
			vals[key] = m.Value
		}
	}
	if got := vals[`kwagg_queries_total{outcome=ok}`]; got != 2 {
		t.Errorf("ok queries = %v, want 2", got)
	}
	if got := vals[`kwagg_queries_total{outcome=error}`]; got != 1 {
		t.Errorf("error queries = %v, want 1", got)
	}
	if got := vals[`kwagg_cache_events_total{cache=answer,event=hits}`]; got != 1 {
		t.Errorf("answer cache hits = %v, want 1", got)
	}
	if got := hists[`kwagg_stage_duration_seconds{stage=execute}`]; got != 1 {
		t.Errorf("execute stage observations = %v, want 1", got)
	}
	if got := vals[`kwagg_exec_workers`]; got < 1 {
		t.Errorf("exec workers gauge = %v, want >= 1", got)
	}

	// A canceled context counts as canceled, not error.
	ctx, cancel := context.WithTimeout(context.Background(), time.Nanosecond)
	defer cancel()
	time.Sleep(time.Millisecond)
	// Different query text so neither cache serves it before ctx is checked.
	_, err = eng.AnswerContext(ctx, "SUM Credit Green", 1)
	if err == nil {
		t.Skip("query finished before the deadline; cannot assert canceled outcome")
	}
	for _, m := range eng.Metrics().Snapshot() {
		if m.Name == "kwagg_queries_total" && m.Labels["outcome"] == "canceled" && m.Value != 1 {
			t.Errorf("canceled queries = %v, want 1", m.Value)
		}
	}
}

func sorted(s []string) []string {
	out := append([]string(nil), s...)
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j] < out[j-1]; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}

// TestCommitEpochTrace checks that a traced CommitEpoch accounts for its
// time: the core build (epoch_build) and the engine-state fold (epoch_fold)
// both appear as top-level stages, together covering most of the wall time.
func TestCommitEpochTrace(t *testing.T) {
	eng, err := OpenDatasetLive("tpch", true, nil)
	if err != nil {
		t.Fatal(err)
	}
	rows := make([][]string, 50)
	for i := range rows {
		rows[i] = []string{fmt.Sprint(900000 + i), "1", "10.5", "1996-02-03", "2-HIGH"}
	}
	if _, err := eng.Ingest("Order", rows); err != nil {
		t.Fatal(err)
	}
	ctx, trace := obs.NewTrace(context.Background())
	if _, err := eng.CommitEpoch(ctx); err != nil {
		t.Fatal(err)
	}
	trace.Finish()
	seen := map[string]bool{}
	for _, s := range trace.Spans() {
		if s.Depth == 0 {
			seen[s.Name] = true
		}
	}
	if !seen["epoch_build"] || !seen["epoch_fold"] {
		t.Fatalf("commit trace lacks a top-level stage; breakdown:\n%s", trace.Breakdown())
	}
	total, wall := trace.StageTotal(), trace.Elapsed()
	if total > wall || total < wall/2 {
		t.Errorf("stage total %v does not account for wall %v; breakdown:\n%s", total, wall, trace.Breakdown())
	}
}
