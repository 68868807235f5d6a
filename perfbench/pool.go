package main

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"

	"kwagg/internal/relation"
)

// The query pools fill the paper's T1-T8 (Table 3) and A1-A8 (Table 4)
// query shapes with values read out of the generated data, drawn by a
// generator seeded with --seed. The engine only ever sees the resulting
// strings. A draw that errors in the engine is a failed operation; nothing
// is filtered out here.

// distinct returns the sorted distinct non-empty string values of one
// attribute, so the vocabulary is independent of map or row order.
func distinct(db *relation.Database, table, attr string) []string {
	t := db.Table(table)
	j := t.Schema.AttrIndex(attr)
	seen := make(map[string]bool)
	var out []string
	for _, tu := range t.Tuples {
		s, ok := tu[j].(string)
		if !ok || s == "" || seen[s] {
			continue
		}
		seen[s] = true
		out = append(out, s)
	}
	sort.Strings(out)
	return out
}

func pick(r *rand.Rand, xs []string) string { return xs[r.Intn(len(xs))] }

func quote(s string) string { return `"` + s + `"` }

// template draws one query of a fixed shape.
type template struct {
	id   string
	draw func(r *rand.Rand) string
}

// tpchTemplates returns the T1-T8 shapes over the normalized TPC-H data.
// Every shape carries a value slot drawn from the part or customer names,
// so a pool of a few thousand queries has no repeats and both query caches
// always miss.
func tpchTemplates(db *relation.Database) []template {
	parts := distinct(db, "Part", "pname")
	customers := distinct(db, "Customer", "cname")
	aggs := []string{"AVG", "SUM", "MIN", "MAX"}
	return []template{
		{"T1", func(r *rand.Rand) string {
			return fmt.Sprintf("order %s amount %s", pick(r, aggs), quote(pick(r, customers)))
		}},
		{"T2", func(r *rand.Rand) string {
			return fmt.Sprintf("%s COUNT order GROUPBY nation %s",
				pick(r, []string{"MAX", "MIN", "AVG"}), quote(pick(r, parts)))
		}},
		{"T3", func(r *rand.Rand) string {
			return "COUNT order " + quote(pick(r, parts))
		}},
		{"T4", func(r *rand.Rand) string {
			return fmt.Sprintf("supplier %s acctbal %s", pick(r, []string{"MAX", "MIN"}), quote(pick(r, parts)))
		}},
		{"T5", func(r *rand.Rand) string {
			return "COUNT supplier " + quote(pick(r, parts))
		}},
		{"T6", func(r *rand.Rand) string {
			return "COUNT part GROUPBY supplier " + quote(pick(r, customers))
		}},
		{"T7", func(r *rand.Rand) string {
			return "COUNT order SUM amount GROUPBY mktsegment " + quote(pick(r, parts))
		}},
		{"T8", func(r *rand.Rand) string {
			return fmt.Sprintf("COUNT supplier %s %s", quote(pick(r, parts)), quote(pick(r, parts)))
		}},
	}
}

// acmdlTemplates returns the A1-A8 shapes over the denormalized ACMDL'
// data (PaperAuthor, EditorProceeding, Publisher).
func acmdlTemplates(db *relation.Database) []template {
	acronyms := distinct(db, "EditorProceeding", "acronym")
	editors := distinct(db, "EditorProceeding", "lname")
	authors := distinct(db, "PaperAuthor", "lname")
	firsts := distinct(db, "PaperAuthor", "fname")
	publishers := distinct(db, "Publisher", "name")
	var bigrams []string
	for _, title := range distinct(db, "PaperAuthor", "title") {
		w := strings.Fields(title)
		for i := 0; i+1 < len(w); i++ {
			bigrams = append(bigrams, w[i]+" "+w[i+1])
		}
	}
	sort.Strings(bigrams)
	aggs := []string{"AVG", "SUM", "MIN", "MAX"}
	return []template{
		{"A1", func(r *rand.Rand) string {
			return fmt.Sprintf("proceeding %s pages %s", pick(r, aggs), pick(r, acronyms))
		}},
		{"A2", func(r *rand.Rand) string {
			return fmt.Sprintf("COUNT %s GROUPBY proceeding %s", pick(r, []string{"paper", "author"}), pick(r, acronyms))
		}},
		{"A3", func(r *rand.Rand) string {
			return "COUNT proceeding editor " + pick(r, editors)
		}},
		{"A4", func(r *rand.Rand) string {
			return fmt.Sprintf("paper %s date %s", pick(r, []string{"MAX", "MIN"}), pick(r, authors))
		}},
		{"A5", func(r *rand.Rand) string {
			return "COUNT author " + quote(pick(r, bigrams))
		}},
		{"A6", func(r *rand.Rand) string {
			return fmt.Sprintf("COUNT paper %s date %s", pick(r, []string{"MAX", "MIN"}), quote(pick(r, publishers)))
		}},
		{"A7", func(r *rand.Rand) string {
			return fmt.Sprintf("COUNT paper author %s %s", pick(r, firsts), pick(r, firsts))
		}},
		{"A8", func(r *rand.Rand) string {
			return fmt.Sprintf("COUNT editor %s %s", pick(r, acronyms), pick(r, acronyms))
		}},
	}
}

// pool draws n distinct queries, an equal share from each template so the
// shape mix is the same for every seed: query i has the shape of template
// i mod len(ts). A draw that repeats an earlier query is redrawn from the
// same template.
func pool(ts []template, seed uint64, n int) ([]string, error) {
	r := rand.New(rand.NewSource(int64(seed)))
	seen := make(map[string]bool, n)
	out := make([]string, 0, n)
	for i := 0; i < n; i++ {
		t := ts[i%len(ts)]
		q := t.draw(r)
		for try := 0; seen[q]; try++ {
			if try == 1000 {
				return nil, fmt.Errorf("query pool: template %s has fewer than %d distinct queries", t.id, n/len(ts))
			}
			q = t.draw(r)
		}
		seen[q] = true
		out = append(out, q)
	}
	return out, nil
}
