package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"kwagg"
	"kwagg/internal/obs"
	"kwagg/internal/relation"
	"kwagg/internal/server"
)

// Sequence sizes, per second of --seconds. They are counts, not deadlines:
// a run replays exactly this many operations whatever the machine's speed.
// The per-second rates only size a run: they were chosen from the measured
// throughput of each workload on a 2-CPU host so that a run at --seconds 10,
// data generation, set-ups and answer checks included, takes 20-35 s there.
// In a closed loop with one client they set the sample count, not the load
// an operation sees.
const (
	coldQueriesPerSecond  = 200 // tpch-large-cold: distinct queries
	httpRequestsPerSecond = 700 // acmdl-denorm-http: Zipf draws from the pool
	liveCommitsPerSecond  = 20  // tpch-live: commits, each followed by the hot queries below
	probeCommitsPerSecond = 10  // frozen workloads: commits of the write probe
	setupReps             = 11  // set-ups per run; setup_s is their median
)

// Traffic shape. These are the mix an operation sees, and each has a stated
// basis (workloads.json repeats it):
//
//   - httpPoolSize: "a few hundred distinct queries, more than
//     qcache.DefaultCapacity" (128), so the LRU evicts; 256 is twice it.
//   - httpZipfS: fitted so that the answer cache hits ~81% of requests, the
//     share measured on ACMDL' when this workload was specified. An LRU
//     simulation of 7000 draws (one 10 s run) over 256 queries into 128
//     slots gives 0.79 at s = 0.9, 0.81 at 0.95, 0.83 at 1.0.
//   - rowsPerCommit: 100 rows, the smaller of the two batch sizes the
//     repository's BenchmarkEpochCommit grid already measures (100 and
//     1000 new rows).
//   - liveRounds: not derived from any measured traffic. Three passes over
//     the hot set per commit give each hot query one cache miss and two
//     hits per epoch; treat the read/write mix as illustrative.
const (
	httpPoolSize  = 256
	httpZipfS     = 0.95
	rowsPerCommit = 100
	liveRounds    = 3
)

// workload is one benchmark workload: a dataset, how the engine is reached
// and a seeded operation sequence.
type workload struct {
	name string
	data func() *dataset
	live bool // opened with OpenLive; commits interleave with the queries
	http bool // served by server.New behind httptest over one keep-alive connection
	k    int  // interpretations executed per query
	ops  func(ds *dataset, seed uint64, seconds int) ([]op, error)
}

var workloads = []*workload{
	{name: "tpch-large-cold", data: tpchData, k: 3, ops: coldOps},
	{name: "acmdl-denorm-http", data: acmdlData, http: true, k: 5, ops: zipfOps},
	{name: "tpch-live", data: tpchData, live: true, k: 3, ops: liveOps},
}

func workloadNames() []string {
	var out []string
	for _, w := range workloads {
		out = append(out, w.name)
	}
	return out
}

func findWorkload(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// op is one step of a sequence: a keyword query, or (batch non-nil) an
// ingest of the batch followed by CommitEpoch.
type op struct {
	query string
	batch []tableRows
}

// coldOps is one query per pool entry, in a seeded order: every query
// string is distinct, so the interpretation and answer caches never hit.
func coldOps(ds *dataset, seed uint64, seconds int) ([]op, error) {
	qs, err := pool(ds.templates, seed, coldQueriesPerSecond*seconds)
	if err != nil {
		return nil, err
	}
	r := rand.New(rand.NewSource(int64(seed) + 1))
	r.Shuffle(len(qs), func(i, j int) { qs[i], qs[j] = qs[j], qs[i] })
	ops := make([]op, len(qs))
	for i, q := range qs {
		ops[i] = op{query: q}
	}
	return ops, nil
}

// zipfOps draws requests from a pool larger than the caches, Zipf-skewed so
// popular queries hit and the tail misses and evicts. Popularity ranks
// follow the pool's template order, so each shape holds the same ranks for
// every seed and the median request's answer size does not swing with the
// seed's choice of the most popular queries.
func zipfOps(ds *dataset, seed uint64, seconds int) ([]op, error) {
	qs, err := pool(ds.templates, seed, httpPoolSize)
	if err != nil {
		return nil, err
	}
	cdf := make([]float64, len(qs))
	total := 0.0
	for i := range cdf {
		total += math.Pow(float64(i+1), -httpZipfS)
		cdf[i] = total
	}
	r := rand.New(rand.NewSource(int64(seed) + 1))
	ops := make([]op, httpRequestsPerSecond*seconds)
	for i := range ops {
		j := sort.SearchFloat64s(cdf, r.Float64()*total)
		ops[i] = op{query: qs[min(j, len(qs)-1)]}
	}
	return ops, nil
}

// liveOps alternates a commit of a fresh batch with liveRounds passes over
// the hot set (the paper's queries), each pass in a seeded order: every hot
// query misses both epoch-keyed caches once per epoch and hits on its
// repeats, so the hit/miss mix is the same for every seed.
func liveOps(ds *dataset, seed uint64, seconds int) ([]op, error) {
	r := rand.New(rand.NewSource(int64(seed)))
	next := ds.batcher()
	var ops []op
	for c := 0; c < liveCommitsPerSecond*seconds; c++ {
		ops = append(ops, op{batch: next(r)})
		for i := 0; i < liveRounds; i++ {
			for _, j := range r.Perm(len(ds.hot)) {
				ops = append(ops, op{query: ds.hot[j]})
			}
		}
	}
	return ops, nil
}

// probeOps is the write probe of the frozen workloads: commits on a
// separate live engine over the same data, interleaved with the queries, so
// every workload reports the commit metrics.
func probeOps(ds *dataset, cfg config) []op {
	r := rand.New(rand.NewSource(int64(cfg.seed) + 2))
	next := ds.batcher()
	ops := make([]op, probeCommitsPerSecond*cfg.seconds)
	for i := range ops {
		ops[i] = op{batch: next(r)}
	}
	return ops
}

type config struct {
	seed    uint64
	seconds int
	trace   bool
	work    string // directory the dataset is saved under
}

// answerView is one answer as the server's POST /api/query renders it.
type answerView struct {
	Description string     `json:"description"`
	Pattern     string     `json:"pattern"`
	SQL         string     `json:"sql"`
	Columns     []string   `json:"columns"`
	Rows        [][]string `json:"rows"`
}

// render encodes answers exactly as the server's response body, so direct
// and HTTP answers compare as strings.
func render(answers []kwagg.Answer) string {
	views := make([]answerView, len(answers))
	for i, a := range answers {
		views[i] = answerView{a.Description, a.Pattern, a.SQL, a.Result.Columns, a.Result.Rows}
	}
	var b bytes.Buffer
	enc := json.NewEncoder(&b)
	enc.SetIndent("", "  ")
	_ = enc.Encode(views)
	return b.String()
}

// answerSet runs one query on an engine and renders it; a partial answer is
// a failure.
func answerSet(e *kwagg.Engine, q string, k int) (string, time.Duration, error) {
	t0 := time.Now()
	set, err := e.AnswerSetContext(context.Background(), q, k)
	d := time.Since(t0)
	if err != nil {
		return "", d, err
	}
	if set.Partial {
		return "", d, fmt.Errorf("partial answer: %v", set.Err())
	}
	return render(set.Answers), d, nil
}

// httpClient posts queries over one keep-alive connection.
type httpClient struct {
	c   *http.Client
	url string
}

func newHTTPClient(url string) *httpClient {
	return &httpClient{url: url + "/api/query", c: &http.Client{Transport: &http.Transport{
		MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1, DisableCompression: true}}}
}

func (h *httpClient) close() { h.c.CloseIdleConnections() }

func (h *httpClient) query(q string, k int) (string, time.Duration, error) {
	body, err := json.Marshal(map[string]any{"q": q, "k": k})
	if err != nil {
		return "", 0, err
	}
	t0 := time.Now()
	resp, err := h.c.Post(h.url, "application/json", bytes.NewReader(body))
	if err != nil {
		return "", time.Since(t0), err
	}
	out, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	d := time.Since(t0)
	if err != nil {
		return "", d, err
	}
	if resp.StatusCode != http.StatusOK {
		return "", d, fmt.Errorf("HTTP %d: %s", resp.StatusCode, bytes.TrimSpace(out))
	}
	return string(out), d, nil
}

// target is what a sequence runs on: queries go to eng, directly or over
// HTTP; commits go to writer, which is eng itself on a live workload and
// the write-probe engine on a frozen one. With ref set, the first answer
// to each distinct query is checked against it right after the timed call.
type target struct {
	eng    *kwagg.Engine
	http   *httpClient // nil: direct AnswerSetContext calls
	k      int
	writer *kwagg.Engine
	ref    *kwagg.Engine
}

// query answers q and times it.
func (t *target) query(q string) (string, time.Duration, error) {
	if t.http != nil {
		return t.http.query(q, t.k)
	}
	return answerSet(t.eng, q, t.k)
}

// commit ingests one batch and commits it, returning the CommitEpoch wall
// time and the whole write (ingest plus commit) time.
func commit(e *kwagg.Engine, b []tableRows) (commitD, writeD time.Duration, err error) {
	t0 := time.Now()
	for _, tr := range b {
		if _, err := e.Ingest(tr.table, tr.rows); err != nil {
			return 0, 0, fmt.Errorf("ingest %s: %w", tr.table, err)
		}
	}
	t1 := time.Now()
	_, err = e.CommitEpoch(context.Background())
	t2 := time.Now()
	return t2.Sub(t1), t2.Sub(t0), err
}

// samples are the timings and counts of one replayed sequence.
type samples struct {
	answerMS  []float64
	commitMS  []float64
	writeS    float64
	rows      int
	committed [][]tableRows // committed batches, in order
	gc        time.Duration // collector CPU time during the replay
}

// replay runs ops in order on t, one at a time. Every repeat of a query on
// the same epoch must render as its first answer did.
func replay(ops []op, t *target, rep *report) *samples {
	s := &samples{}
	seen := make(map[string]uint64) // query -> hash of its answer on this epoch
	gc0 := gcCPU()
	for _, o := range ops {
		rep.attempted++
		if o.batch != nil {
			c, w, err := commit(t.writer, o.batch)
			if err != nil {
				rep.failed++
				continue
			}
			s.commitMS = append(s.commitMS, ms(c))
			s.writeS += w.Seconds()
			s.rows += batchRows(o.batch)
			s.committed = append(s.committed, o.batch)
			if t.writer == t.eng {
				seen = make(map[string]uint64)
			}
			continue
		}
		got, d, err := t.query(o.query)
		if err != nil {
			rep.failed++
			continue
		}
		s.answerMS = append(s.answerMS, ms(d))
		h := fnv.New64a()
		h.Write([]byte(got))
		sum := h.Sum64()
		prev, ok := seen[o.query]
		switch {
		case ok && prev != sum:
			rep.mismatch("%q answered differently on a repeat within one epoch", o.query)
		case !ok && t.ref != nil && outcome(t.ref, o.query, t.k) != got:
			rep.mismatch("%q: measured answer differs from the reference engine's", o.query)
		}
		seen[o.query] = sum
	}
	s.gc = gcCPU() - gc0
	return s
}

// interleave spreads the write probe's commits evenly through a frozen
// workload's queries, so both kinds of sample span the whole run.
func interleave(queries, commits []op) []op {
	out := make([]op, 0, len(queries)+len(commits))
	for i, c := range commits {
		lo, hi := i*len(queries)/len(commits), (i+1)*len(queries)/len(commits)
		out = append(out, queries[lo:hi]...)
		out = append(out, c)
	}
	return out
}

// saveData writes the dataset the way `kwserve -load` expects it, into a
// fresh directory under work.
func saveData(ds *dataset, work string) (string, error) {
	if err := os.MkdirAll(work, 0o755); err != nil {
		return "", err
	}
	dir, err := os.MkdirTemp(work, "perfbench-")
	if err != nil {
		return "", err
	}
	if err := relation.SaveDir(ds.db, filepath.Join(dir, "data")); err != nil {
		os.RemoveAll(dir)
		return "", err
	}
	return dir, nil
}

// setup repeats the measured set-up and keeps the last engine. Each rep
// starts from a collected heap so earlier reps' garbage does not bill later
// ones.
func setup(dir string, ds *dataset, w *workload) (*kwagg.Engine, *server.Server, []float64, error) {
	var (
		eng   *kwagg.Engine
		srv   *server.Server
		times []float64
	)
	for i := 0; i < setupReps; i++ {
		eng, srv = nil, nil
		runtime.GC()
		t0 := time.Now()
		e, s, err := setupOnce(dir, ds, w)
		if err != nil {
			return nil, nil, nil, err
		}
		times = append(times, time.Since(t0).Seconds())
		eng, srv = e, s
	}
	return eng, srv, times, nil
}

// setupOnce is one measured set-up: openEngine, plus server.New when the
// workload is served over HTTP.
func setupOnce(dir string, ds *dataset, w *workload) (*kwagg.Engine, *server.Server, error) {
	e, err := openEngine(dir, ds, w.live, kwagg.Options{})
	if err != nil || !w.http {
		return e, nil, err
	}
	return e, server.New(e), nil
}

// heapMB is HeapAlloc after a full collection, in megabytes.
func heapMB() float64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.HeapAlloc) / 1e6
}

// measure runs one workload: the untraced end-to-end pass with its
// correctness checks, then with cfg.trace the traced per-layer pass.
func measure(w *workload, cfg config, out io.Writer) (*report, error) {
	ds := w.data()
	rep := newReport()
	fmt.Fprintf(out, "# workload %s seed %d seconds %d trace %v k %d GOMAXPROCS %d nproc %d\n# rows %s\n",
		w.name, cfg.seed, cfg.seconds, cfg.trace, w.k, runtime.GOMAXPROCS(0), runtime.NumCPU(), ds.db.Stats())
	tmp, err := saveData(ds, cfg.work)
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(tmp)
	dir := filepath.Join(tmp, "data")
	ops, err := w.ops(ds, cfg.seed, cfg.seconds)
	if err != nil {
		return nil, err
	}
	if !w.live {
		ops = interleave(ops, probeOps(ds, cfg))
	}
	base, err := endToEndPass(w, ds, dir, ops, rep)
	if err != nil {
		return nil, err
	}
	if cfg.trace {
		if err := tracedPass(w, ds, dir, ops, base, rep); err != nil {
			return nil, err
		}
	}
	rep.print(out)
	return rep, nil
}

// endToEndBase is what the traced pass needs from the untraced one.
type endToEndBase struct {
	setupS   float64
	answerMS []float64
}

func endToEndPass(w *workload, ds *dataset, dir string, ops []op, rep *report) (*endToEndBase, error) {
	// heap_mb counts what the engine holds: the generator's own copy of the
	// data and the operation sequence are live at both readings and are
	// subtracted.
	heap0 := heapMB()
	eng, srv, setupTimes, err := setup(dir, ds, w)
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	t := &target{eng: eng, k: w.k, writer: eng}
	if !w.live {
		// The write probe: a separate live engine over the same data; and
		// the reference engine every distinct answer is checked against.
		if t.writer, err = openEngine(dir, ds, true, kwagg.Options{}); err != nil {
			return nil, fmt.Errorf("write probe set-up: %w", err)
		}
		if t.ref, err = openEngine(dir, ds, false, referenceOptions); err != nil {
			return nil, fmt.Errorf("reference engine: %w", err)
		}
	}
	var ts *httptest.Server
	if srv != nil {
		ts = httptest.NewServer(srv)
		t.http = newHTTPClient(ts.URL)
	}
	s := replay(ops, t, rep)
	if ts != nil {
		t.http.close()
		ts.Close()
	}
	countMetrics(eng, rep)
	if err := checkLive(t.writer, ds, dir, s.committed, w.k, rep); err != nil {
		return nil, err
	}
	t.writer, t.ref = nil, nil
	heap := heapMB() - heap0
	runtime.KeepAlive(eng)
	runtime.KeepAlive(srv)
	runtime.KeepAlive(ds)
	runtime.KeepAlive(ops)

	if len(s.answerMS) == 0 || len(s.commitMS) == 0 {
		return nil, errors.New("every query or every commit failed")
	}
	setupS := median(setupTimes)
	rep.set("answer_p50_ms", median(s.answerMS))
	rep.set("answer_p99_ms", quantile(s.answerMS, 0.99))
	rep.set("answers_per_s", float64(len(s.answerMS))/(sum(s.answerMS)/1000))
	rep.set("commit_p50_ms", median(s.commitMS))
	rep.set("commit_p90_ms", quantile(s.commitMS, 0.9))
	rep.set("rows_committed_per_s", float64(s.rows)/s.writeS)
	rep.set("heap_mb", heap)
	rep.set("setup_s", setupS)
	rep.set("bench.answer_samples", float64(len(s.answerMS)))
	rep.set("bench.commit_samples", float64(len(s.commitMS)))
	rep.set("live.commits", float64(len(s.commitMS)))
	rep.set("live.rows_committed", float64(s.rows))
	rep.set("live.rows_per_commit", mean(float64(s.rows), len(s.commitMS)))
	rep.set("runtime.gc_ms_per_op", mean(ms(s.gc), len(ops)))
	return &endToEndBase{setupS: setupS, answerMS: s.answerMS}, nil
}

// failureKinds are the label values of kwagg_exec_statement_failures_total.
var failureKinds = []string{"transient", "deadline", "canceled", "error"}

// countMetrics records the engine's own counters after the sequence. All
// but the memo hits repeat exactly for a seed: statements of one query run
// concurrently and race for shared memo fragments.
func countMetrics(e *kwagg.Engine, rep *report) {
	ic, ac := e.CacheStats(), e.AnswerCacheStats()
	rep.set("qcache.interp_hits", float64(ic.Hits))
	rep.set("qcache.interp_misses", float64(ic.Misses))
	rep.set("qcache.answer_hits", float64(ac.Hits))
	rep.set("qcache.answer_misses", float64(ac.Misses))
	rep.set("qcache.evictions", float64(ic.Evictions+ac.Evictions))
	rep.set("qcache.interp_hit_ratio", ratio(ic.Hits, ic.Hits+ic.Misses))
	rep.set("qcache.answer_hit_ratio", ratio(ac.Hits, ac.Hits+ac.Misses))
	reg := e.Metrics()
	rep.set("sqldb.memo_hits", float64(reg.Counter("kwagg_memo_hits_total", "").Value()))
	rep.set("core.retries", float64(reg.Counter("kwagg_exec_retries_total", "").Value()))
	failures := uint64(0)
	for _, kind := range failureKinds {
		failures += reg.Counter("kwagg_exec_statement_failures_total", "", obs.L("kind", kind)).Value()
	}
	rep.set("core.statement_failures", float64(failures))
}

func ratio(a, b uint64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}
