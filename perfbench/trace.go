package main

import (
	"context"
	"fmt"
	"net/http/httptest"
	"runtime"
	"strings"
	"time"

	"kwagg"
	"kwagg/internal/core"
	"kwagg/internal/keyword"
	"kwagg/internal/normalize"
	"kwagg/internal/obs"
	"kwagg/internal/orm"
	"kwagg/internal/relation"
	"kwagg/internal/server"
	"kwagg/internal/sqak"
	"kwagg/internal/sqldb"
)

// The traced pass times calls into each module's public functions from this
// file, on its own core.Open / core.OpenLive of the same saved data; no span
// is added inside the program. It replays the same sequence on a fresh
// product engine (the untraced code path) and, for every operation that
// engine computed rather than served from a cache, repeats the operation
// layer by layer on its own copy:
//
//	query:  keyword.Parse -> pattern.Generator.GenerateContext, split into
//	        match and pattern time by the match span it records ->
//	        translate.Translator.Translate -> core.System.ExecuteAllReport
//	        -> render, plus each statement once more through sqldb.ExecOpts
//	        with a memo of its own (the sqldb layer in isolation); the tag
//	        counts come from untimed match.Matcher.Match calls
//	commit: relation.ExtendFrozenDatabase -> relation.InvertedIndex.AppendRows
//	        -> sqak.New, against the product engine's CommitEpoch and
//	        Status().EpochBuild
//
// Layer times are means per computed operation: parse, match, pattern and
// translate per computed interpretation, the rest per computed answer or
// commit. The trace.*_accounted ratios divide the summed layer self times
// by the product path's measured time over the same operations.

// serverProbeReps is the number of HTTP-versus-direct pairs that measure
// server.roundtrip_us on cached queries.
const serverProbeReps = 400

type queryLayers struct {
	n, interps                                          int
	parse, match, generate, translate, execute, render  time.Duration
	exec                                                time.Duration
	terms, tags, patterns, stmts, rowsOut, hits, misses int
}

type commitLayers struct {
	n                                       int
	commit, build, extend, indexAppend, sqk time.Duration
}

func tracedPass(w *workload, ds *dataset, dir string, ops []op, base *endToEndBase, rep *report) error {
	set, setupMS, err := setupLayers(dir, ds, w)
	if err != nil {
		return err
	}
	setupSum := 0.0
	for name, v := range set {
		rep.set(name, v)
		setupSum += v
	}
	rep.set("trace.setup_accounted", setupSum/setupMS)
	// The schema-sized part of opening an epoch, billed to every commit.
	reopenMS := set["normalize.build_view_ms"] + set["orm.build_ms"]

	eng, err := openEngine(dir, ds, w.live, kwagg.Options{})
	if err != nil {
		return err
	}
	srv := server.New(eng)
	ts := httptest.NewServer(srv)
	defer ts.Close()
	hc := newHTTPClient(ts.URL)
	defer hc.close()
	t := &target{eng: eng, k: w.k}
	if w.http {
		t.http = hc
	}
	cp, err := newCopy(dir, ds, w.live)
	if err != nil {
		return err
	}
	// Commits go to the product engine and copy that queries use on a live
	// workload, and to a write-probe pair of their own on a frozen one.
	writer, wcp := eng, cp
	if !w.live {
		if writer, err = openEngine(dir, ds, true, kwagg.Options{}); err != nil {
			return err
		}
		if wcp, err = newCopy(dir, ds, true); err != nil {
			return err
		}
	}

	var (
		ql           queryLayers
		cl           commitLayers
		tracedMS     []float64
		missMeasured time.Duration
		recent       []string
	)
	for _, o := range ops {
		if o.batch != nil {
			if err := wcp.commit(writer, o.batch, &cl); err != nil {
				return err
			}
			continue
		}
		answerHits, interpHits := eng.AnswerCacheStats().Hits, eng.CacheStats().Hits
		_, d, err := t.query(o.query)
		if err != nil {
			continue // counted as failed by the untraced pass
		}
		tracedMS = append(tracedMS, ms(d))
		recent = appendRecent(recent, o.query)
		if eng.AnswerCacheStats().Hits > answerHits {
			continue
		}
		missMeasured += d
		if err := cp.query(o.query, w.k, eng.CacheStats().Hits > interpHits, &ql); err != nil {
			return err
		}
	}
	roundtrip, err := serverOverhead(eng, hc, recent, w.k)
	if err != nil {
		return err
	}
	runtime.KeepAlive(srv)

	n, ni := ql.n, ql.interps
	rep.set("keyword.parse_us", mean(us(ql.parse), ni))
	rep.set("match.match_us", mean(us(ql.match), ni))
	rep.set("match.tags_per_term", mean(float64(ql.tags), ql.terms))
	rep.set("pattern.generate_us", mean(us(ql.generate), ni))
	rep.set("pattern.patterns_per_query", mean(float64(ql.patterns), ni))
	rep.set("translate.translate_us", mean(us(ql.translate), ni))
	rep.set("core.execute_us", mean(us(ql.execute), n))
	rep.set("core.pool_overlap", float64(ql.exec)/float64(ql.execute))
	rep.set("sqldb.exec_us", mean(us(ql.exec), n))
	rep.set("sqldb.stmts_per_query", mean(float64(ql.stmts), n))
	rep.set("sqldb.rows_out_per_query", mean(float64(ql.rowsOut), n))
	rep.set("sqldb.memo_hit_ratio", mean(float64(ql.hits), ql.hits+ql.misses))
	rep.set("kwagg.render_us", mean(us(ql.render), n))
	rep.set("server.roundtrip_us", roundtrip)
	accounted := us(ql.parse+ql.match+ql.generate+ql.translate+ql.execute+ql.render) / 1000
	if w.http {
		accounted += roundtrip * float64(n) / 1000
	}
	rep.set("trace.answer_accounted", accounted/ms(missMeasured))
	p50 := median(tracedMS)
	rep.set("trace.answer_p50_ms", p50)
	rep.set("trace.overhead_ms", p50-median(base.answerMS))

	c := cl.n
	rep.set("core.live_build_ms", mean(ms(cl.build), c))
	rep.set("kwagg.fold_ms", mean(ms(cl.commit-cl.build), c))
	rep.set("relation.extend_ms", mean(ms(cl.extend), c))
	rep.set("relation.index_append_ms", mean(ms(cl.indexAppend), c))
	rep.set("sqak.rebuild_ms", mean(ms(cl.sqk), c))
	rep.set("trace.commit_accounted",
		(ms(cl.extend+cl.indexAppend+cl.sqk)+reopenMS*float64(c))/ms(cl.commit))
	return nil
}

// appendRecent keeps the last few distinct queries answered, the ones still
// in the answer cache when the sequence ends.
func appendRecent(recent []string, q string) []string {
	for i, r := range recent {
		if r == q {
			recent = append(recent[:i], recent[i+1:]...)
			break
		}
	}
	recent = append(recent, q)
	if len(recent) > 8 {
		recent = recent[1:]
	}
	return recent
}

// setupLayers times the stages of Load+Open one by one, setupReps times,
// and returns their medians in milliseconds, with the median of whole
// set-ups timed in the same loop to account them against.
func setupLayers(dir string, ds *dataset, w *workload) (map[string]float64, float64, error) {
	times := make(map[string][]float64)
	var whole []float64
	lap := func(name string, t0 time.Time) time.Time {
		now := time.Now()
		times[name] = append(times[name], ms(now.Sub(t0)))
		return now
	}
	for i := 0; i < setupReps; i++ {
		runtime.GC()
		t0 := time.Now()
		if _, _, err := setupOnce(dir, ds, w); err != nil {
			return nil, 0, err
		}
		whole = append(whole, ms(time.Since(t0)))
		runtime.GC()
		t0 = time.Now()
		db, err := relation.LoadDir(dir)
		if err != nil {
			return nil, 0, err
		}
		t0 = lap("relation.load_ms", t0)
		view, err := normalize.BuildView(db, ds.hints)
		if err != nil {
			return nil, 0, err
		}
		t0 = lap("normalize.build_view_ms", t0)
		schemas := db.Schemas()
		if view.Changed {
			schemas = view.Schemas
		}
		if _, err := orm.Build(schemas); err != nil {
			return nil, 0, err
		}
		t0 = lap("orm.build_ms", t0)
		relation.BuildIndex(db)
		t0 = lap("relation.build_index_ms", t0)
		db.Freeze()
		t0 = lap("relation.freeze_ms", t0)
		sqak.New(db)
		lap("sqak.new_ms", t0)
	}
	out := make(map[string]float64, len(times))
	for name, xs := range times {
		out[name] = median(xs)
	}
	return out, median(whole), nil
}

// ownCopy is the traced pass's own system over a second load of the data:
// a core.Live for the write workloads, so every epoch has a System to
// repeat queries on.
type ownCopy struct {
	sys  *core.System
	live *core.Live
	memo *sqldb.Memo // the sqldb-in-isolation memo, reset per epoch like the system's
}

func newCopy(dir string, ds *dataset, live bool) (*ownCopy, error) {
	db, err := relation.LoadDir(dir)
	if err != nil {
		return nil, err
	}
	opts := &core.Options{NameHints: ds.hints}
	c := &ownCopy{memo: sqldb.NewMemo(core.DefaultMemoCells)}
	if live {
		if c.live, err = core.OpenLive(db, opts); err != nil {
			return nil, err
		}
		c.sys = c.live.System()
		return c, nil
	}
	c.sys, err = core.Open(db, opts)
	return c, err
}

// query repeats one computed query layer by layer, the way the engine's
// uncached path runs it: every ranked pattern is translated, the top k
// execute. When the product engine found the interpretations in its cache
// (interpCached), they are rebuilt untimed and only execution and
// rendering count.
func (c *ownCopy) query(q string, k int, interpCached bool, l *queryLayers) error {
	s := c.sys
	ctx := context.Background()
	t0 := time.Now()
	kq, err := keyword.Parse(q)
	if err != nil {
		return fmt.Errorf("traced parse %q: %w", q, err)
	}
	parse := time.Since(t0)
	// Generate matches every term itself under its "match" span; that span
	// is the match layer's time, the rest of Generate is pattern's own.
	tctx, tr := obs.NewTrace(ctx)
	t0 = time.Now()
	patterns, err := s.Generator.GenerateContext(tctx, kq)
	if err != nil {
		return fmt.Errorf("traced generate %q: %w", q, err)
	}
	generate := time.Since(t0)
	var match time.Duration
	for _, sp := range tr.Spans() {
		if sp.Name == "match" {
			match += sp.Duration
		}
	}
	t0 = time.Now()
	ins := make([]core.Interpretation, 0, len(patterns))
	for _, p := range patterns {
		sql, err := s.Translator.Translate(p)
		if err != nil {
			return fmt.Errorf("traced translate %q: %w", q, err)
		}
		ins = append(ins, core.Interpretation{Pattern: p, SQL: sql, Description: p.Describe()})
	}
	translate := time.Since(t0)
	if !interpCached {
		l.interps++
		l.parse += parse
		l.match += match
		l.generate += generate - match
		l.translate += translate
		l.patterns += len(patterns)
		for _, ti := range kq.BasicTerms() {
			l.tags += len(s.Matcher.Match(kq.Terms[ti]))
			l.terms++
		}
	}
	if len(ins) > k {
		ins = ins[:k]
	}
	t0 = time.Now()
	r := s.ExecuteAllReport(ctx, ins)
	l.execute += time.Since(t0)
	if err := r.Err(); err != nil {
		return fmt.Errorf("traced execute %q: %w", q, err)
	}
	t0 = time.Now()
	var cells []string
	for _, a := range r.Answers {
		cells = append(cells, a.SQL.String(), a.SQL.Pretty(), a.Pattern.String())
		for _, row := range a.Result.Rows {
			for _, v := range row {
				cells = append(cells, relation.Format(v))
			}
		}
	}
	l.render += time.Since(t0)
	runtime.KeepAlive(cells)
	for _, in := range ins {
		t0 = time.Now()
		res, st, err := sqldb.ExecOpts(ctx, s.Data, in.SQL, sqldb.ExecConfig{Memo: c.memo, Shards: s.ShardWorkers()})
		l.exec += time.Since(t0)
		if err != nil {
			return fmt.Errorf("traced exec %q: %w", q, err)
		}
		l.stmts++
		l.rowsOut += len(res.Rows)
		l.hits += st.Hits
		l.misses += st.Misses
	}
	l.n++
	return nil
}

// commit runs one batch through the product engine (timing CommitEpoch and
// reading its build time), then builds the same epoch step by step on the
// copy: the delta the engine's commit builds first, so it takes the same
// in-place path, then the copy's own Commit for its next System.
func (c *ownCopy) commit(eng *kwagg.Engine, b []tableRows, l *commitLayers) error {
	d, _, err := commit(eng, b)
	if err != nil {
		return err
	}
	l.commit += d
	l.build += eng.Status().EpochBuild
	old := c.live.System()
	prev := make(map[string]int)
	for _, t := range old.Data.Tables() {
		prev[strings.ToLower(t.Schema.Name)] = t.Len()
	}
	rows := make(map[string][]relation.Tuple)
	for _, tr := range b {
		tuples, err := coerce(old.Data.Table(tr.table).Schema, tr.rows)
		if err != nil {
			return err
		}
		rows[strings.ToLower(tr.table)] = tuples
	}
	t0 := time.Now()
	next, _, err := relation.ExtendFrozenDatabase(old.Data, rows)
	if err != nil {
		return err
	}
	l.extend += time.Since(t0)
	t0 = time.Now()
	old.Matcher.Index().AppendRows(next, prev)
	l.indexAppend += time.Since(t0)
	t0 = time.Now()
	sqak.New(next)
	l.sqk += time.Since(t0)
	for _, tr := range b {
		if _, err := c.live.IngestTuples(tr.table, rows[strings.ToLower(tr.table)]); err != nil {
			return err
		}
	}
	if _, err := c.live.Commit(context.Background()); err != nil {
		return err
	}
	c.sys = c.live.System()
	c.memo = sqldb.NewMemo(core.DefaultMemoCells)
	l.n++
	return nil
}

func coerce(s *relation.Schema, rows [][]string) ([]relation.Tuple, error) {
	out := make([]relation.Tuple, len(rows))
	for i, r := range rows {
		tu := make(relation.Tuple, len(r))
		for j, f := range r {
			v, err := relation.Coerce(f, s.Attributes[j].Type)
			if err != nil {
				return nil, fmt.Errorf("coerce %s.%s: %w", s.Name, s.Attributes[j].Name, err)
			}
			tu[j] = v
		}
		out[i] = tu
	}
	return out, nil
}

// serverOverhead is the mean HTTP round trip minus a direct engine call on
// the same cached query, in microseconds.
func serverOverhead(eng *kwagg.Engine, hc *httpClient, qs []string, k int) (float64, error) {
	if len(qs) == 0 {
		return 0, fmt.Errorf("no answered query to probe the server with")
	}
	var total time.Duration
	for i := 0; i < serverProbeReps; i++ {
		q := qs[i%len(qs)]
		_, viaHTTP, err := hc.query(q, k)
		if err != nil {
			return 0, err
		}
		_, direct, err := answerSet(eng, q, k)
		if err != nil {
			return 0, err
		}
		total += viaHTTP - direct
	}
	return us(total) / serverProbeReps, nil
}
