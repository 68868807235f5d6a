package main

import (
	"fmt"
	"math/rand"
	"sort"
	"strconv"
	"strings"

	"kwagg"
	"kwagg/internal/dataset/acmdl"
	"kwagg/internal/dataset/tpch"
	"kwagg/internal/experiments"
	"kwagg/internal/relation"
)

// dataset is one generated database and everything a workload derives from
// it: the view names every engine over it is opened with, the query shapes,
// the paper's own queries (the hot set of the write workloads) and the
// generator of foreign-key-consistent ingest batches.
type dataset struct {
	db        *relation.Database
	hints     map[string]string
	templates []template
	hot       []string
	// batcher returns a generator of commit batches; each call of the
	// generator yields the next batch, with fresh keys, in ingest order.
	batcher func() func(r *rand.Rand) []tableRows
}

// tableRows is one table's share of an ingest batch, as the string fields
// Engine.Ingest takes.
type tableRows struct {
	table string
	rows  [][]string
}

func batchRows(b []tableRows) int {
	n := 0
	for _, t := range b {
		n += len(t.rows)
	}
	return n
}

// tpchData is tpch.Large() (~45k rows), normalized: the paper's TPC-H
// schema at the scale of the repository's stress benchmarks.
func tpchData() *dataset {
	db := tpch.New(tpch.Large())
	var hot []string
	for _, q := range experiments.QueriesTPCH() {
		hot = append(hot, q.Keywords)
	}
	return &dataset{db: db, templates: tpchTemplates(db), hot: hot,
		batcher: func() func(r *rand.Rand) []tableRows { return tpchBatcher(db) }}
}

// acmdlScale multiplies the entity counts of acmdl.Default() so that Load
// plus Open of the denormalized data takes a few hundred milliseconds; the
// planted collisions (Smith editors, Gill authors, ...) keep their sizes.
const acmdlScale = 4

// acmdlData is ACMDL' (Table 7: PaperAuthor, EditorProceeding, Publisher),
// the Section 4.1 normalized-view and rewrite path.
func acmdlData() *dataset {
	cfg := acmdl.Default()
	cfg.Authors *= acmdlScale
	cfg.Editors *= acmdlScale
	cfg.Proceedings *= acmdlScale
	cfg.Papers *= acmdlScale
	db := acmdl.Denormalize(acmdl.New(cfg))
	var hot []string
	for _, q := range experiments.QueriesACMDL() {
		hot = append(hot, q.Keywords)
	}
	return &dataset{db: db, hints: acmdl.NameHints(), templates: acmdlTemplates(db), hot: hot,
		batcher: func() func(r *rand.Rand) []tableRows { return acmdlBatcher(db) }}
}

// intKeys returns the sorted distinct values of an INT attribute.
func intKeys(db *relation.Database, table, attr string) []int64 {
	t := db.Table(table)
	j := t.Schema.AttrIndex(attr)
	seen := make(map[int64]bool)
	var out []int64
	for _, tu := range t.Tuples {
		v, ok := tu[j].(int64)
		if ok && !seen[v] {
			seen[v] = true
			out = append(out, v)
		}
	}
	sort.Slice(out, func(a, b int) bool { return out[a] < out[b] })
	return out
}

func pickKey(r *rand.Rand, ks []int64) string { return strconv.FormatInt(ks[r.Intn(len(ks))], 10) }

func date(r *rand.Rand, lo, hi int) string {
	return fmt.Sprintf("%04d-%02d-%02d", lo+r.Intn(hi-lo+1), 1+r.Intn(12), 1+r.Intn(28))
}

func tpchBatcher(db *relation.Database) func(r *rand.Rand) []tableRows {
	orders := intKeys(db, "Order", "orderkey")
	next := orders[len(orders)-1] + 1
	customers := intKeys(db, "Customer", "custkey")
	parts := intKeys(db, "Part", "partkey")
	suppliers := intKeys(db, "Supplier", "suppkey")
	priorities := distinct(db, "Order", "priority")
	// One batch is rowsPerCommit rows: new orders, each with 1-5 line items
	// over existing parts and suppliers; the last order's items are cut to
	// fit.
	return func(r *rand.Rand) []tableRows {
		var os, ls [][]string
		for len(os)+len(ls) < rowsPerCommit {
			key := strconv.FormatInt(next, 10)
			next++
			os = append(os, []string{key, pickKey(r, customers),
				strconv.FormatFloat(float64(r.Intn(5000000))/100, 'f', 2, 64),
				date(r, 1992, 1998), pick(r, priorities)})
			seen := make(map[[2]string]bool)
			for n := 1 + r.Intn(5); n > 0 && len(os)+len(ls) < rowsPerCommit; n-- {
				p, s := pickKey(r, parts), pickKey(r, suppliers)
				if seen[[2]string{p, s}] {
					continue
				}
				seen[[2]string{p, s}] = true
				ls = append(ls, []string{p, s, key, strconv.Itoa(1 + r.Intn(50))})
			}
		}
		return []tableRows{{"Order", os}, {"Lineitem", ls}}
	}
}

func acmdlBatcher(db *relation.Database) func(r *rand.Rand) []tableRows {
	papers := intKeys(db, "PaperAuthor", "paperid")
	next := papers[len(papers)-1] + 1
	procs := intKeys(db, "EditorProceeding", "procid")
	pa := db.Table("PaperAuthor")
	ai, fi, li := pa.Schema.AttrIndex("authorid"), pa.Schema.AttrIndex("fname"), pa.Schema.AttrIndex("lname")
	names := make(map[int64][2]string)
	for _, tu := range pa.Tuples {
		names[tu[ai].(int64)] = [2]string{tu[fi].(string), tu[li].(string)}
	}
	authors := intKeys(db, "PaperAuthor", "authorid")
	var words []string
	for _, t := range distinct(db, "PaperAuthor", "title") {
		words = append(words, strings.Fields(t)...)
	}
	sort.Strings(words)
	// One batch is rowsPerCommit PaperAuthor rows: new papers in existing
	// proceedings, each written by 1-3 existing authors, respecting the
	// relation's functional dependencies; the last paper's authors are cut
	// to fit.
	return func(r *rand.Rand) []tableRows {
		var rows [][]string
		for len(rows) < rowsPerCommit {
			key := strconv.FormatInt(next, 10)
			next++
			proc, when := pickKey(r, procs), date(r, 1975, 2011)
			title := pick(r, words) + " " + pick(r, words) + " " + pick(r, words)
			seen := make(map[int64]bool)
			for n := 1 + r.Intn(3); n > 0 && len(rows) < rowsPerCommit; n-- {
				a := authors[r.Intn(len(authors))]
				if seen[a] {
					continue
				}
				seen[a] = true
				rows = append(rows, []string{key, strconv.FormatInt(a, 10), proc, when, title, names[a][0], names[a][1]})
			}
		}
		return []tableRows{{"PaperAuthor", rows}}
	}
}

// openEngine is the measured set-up: kwagg.Load of the saved directory plus
// Open (or OpenLive), the path `kwserve -load` takes.
func openEngine(dir string, ds *dataset, live bool, opts kwagg.Options) (*kwagg.Engine, error) {
	d, err := kwagg.Load(dir)
	if err != nil {
		return nil, err
	}
	opts.ViewNames = ds.hints
	if live {
		return kwagg.OpenLive(d, &opts)
	}
	return kwagg.Open(d, &opts)
}

// referenceOptions turns off both query caches and the shared-subplan memo:
// the reference engine recomputes every answer from scratch.
var referenceOptions = kwagg.Options{CacheSize: -1, MemoCells: -1}
