// Package sqak reimplements the SQAK baseline (Tata & Lohman, SIGMOD 2008)
// as described in the paper: the database schema is modelled as a graph of
// relations connected by foreign key - key references; a keyword query's
// terms are matched to relations (by relation name, attribute name, or tuple
// value); a minimal connected subgraph containing the matched relations — a
// simple query network (SQN) — is translated into SQL, with the aggregate
// function applied to the attribute following the aggregate term.
//
// SQAK is deliberately unaware of the Object-Relationship-Attribute
// semantics: it does not distinguish objects sharing an attribute value, it
// joins relationship relations wholesale (never projecting away unused
// participants), and it treats unnormalized relations like any other. It
// also refuses queries that need more than one aggregate expression in the
// SELECT clause or a self join of a relation — reproducing every failure
// mode reported in Tables 5, 6, 8 and 9.
package sqak

import (
	"errors"
	"fmt"
	"sort"
	"strings"

	"kwagg/internal/keyword"
	"kwagg/internal/relation"
	"kwagg/internal/sqlast"
	"kwagg/internal/sqldb"
)

// Errors reported for queries SQAK cannot express ("N.A." in the paper's
// result tables).
var (
	ErrMultipleAggregates = errors.New("sqak: does not handle more than one aggregate")
	ErrSelfJoin           = errors.New("sqak: does not handle self joins of relations")
	ErrNoMatch            = errors.New("sqak: some term matches no relation")
	ErrDisconnected       = errors.New("sqak: matched relations are not connected")
)

// System is a SQAK instance over one database.
type System struct {
	db  *relation.Database
	idx *relation.InvertedIndex
	adj map[string][]edge
}

type edge struct {
	to    string
	attrs [][2]string // join attribute pairs [fromAttr, toAttr]
}

// New builds the SQAK schema graph for db and indexes its values.
func New(db *relation.Database) *System {
	return NewWithIndex(db, relation.BuildIndex(db))
}

// NewWithIndex is New over a pre-built inverted index, which must equal
// relation.BuildIndex(db). The engine passes its matcher's index, so SQAK
// and the semantic approach match values against one shared index and
// opening SQAK over an epoch costs only the schema-sized graph build.
func NewWithIndex(db *relation.Database, idx *relation.InvertedIndex) *System {
	s := &System{db: db, idx: idx, adj: make(map[string][]edge)}
	for _, t := range db.Tables() {
		for _, fk := range t.Schema.ForeignKeys {
			pairs := make([][2]string, len(fk.Attrs))
			rev := make([][2]string, len(fk.Attrs))
			for i := range fk.Attrs {
				pairs[i] = [2]string{fk.Attrs[i], fk.RefAttrs[i]}
				rev[i] = [2]string{fk.RefAttrs[i], fk.Attrs[i]}
			}
			from := strings.ToLower(t.Schema.Name)
			to := strings.ToLower(fk.RefRelation)
			s.adj[from] = append(s.adj[from], edge{to: to, attrs: pairs})
			s.adj[to] = append(s.adj[to], edge{to: from, attrs: rev})
		}
	}
	for _, es := range s.adj {
		sort.Slice(es, func(i, j int) bool { return es[i].to < es[j].to })
	}
	return s
}

// Index returns the inverted index SQAK matches values against. Immutable —
// read only.
func (s *System) Index() *relation.InvertedIndex { return s.idx }

// matchKind orders match preference (lower is better). Approximate
// attribute matches outrank approximate relation-name matches: "proceeding"
// against the denormalized EditorProceeding relation resolves to the procid
// attribute, reproducing SQAK's per-proceeding (but duplicate-inflated)
// grouping on unnormalized schemas (Tables 8 and 9).
type matchKind int

const (
	kindRelExact matchKind = iota
	kindAttrExact
	kindAttrSub
	kindRelSub
	kindValue
)

type termMatch struct {
	rel  string // lower-cased relation name
	attr string // attribute (attr and value kinds)
	kind matchKind
	term string
}

// matches finds every relation a basic term matches. Relation and attribute
// names match exactly (tolerating plural 's') or by substring; values match
// by the inverted index.
func (s *System) matches(t keyword.Term) []termMatch {
	var out []termMatch
	if !t.Quoted {
		for _, tb := range s.db.Tables() {
			name := tb.Schema.Name
			lt, ln := strings.ToLower(t.Text), strings.ToLower(name)
			switch {
			case lt == ln || lt+"s" == ln || lt == ln+"s":
				out = append(out, termMatch{rel: ln, kind: kindRelExact, term: t.Text})
			case strings.Contains(ln, lt):
				out = append(out, termMatch{rel: ln, kind: kindRelSub, term: t.Text})
			}
			for _, a := range tb.Schema.Attributes {
				la := strings.ToLower(a.Name)
				switch {
				case lt == la || lt+"s" == la || lt == la+"s":
					out = append(out, termMatch{rel: ln, attr: a.Name, kind: kindAttrExact, term: t.Text})
				case strings.Contains(la, lt) || sharedPrefix(la, lt) >= 4:
					// Prefix matching lets "supplier" resolve to suppkey and
					// "proceeding" to procid, as SQAK's evaluation requires.
					out = append(out, termMatch{rel: ln, attr: a.Name, kind: kindAttrSub, term: t.Text})
				}
			}
		}
	}
	for _, f := range s.idx.PhraseFields(s.db, t.Text) {
		out = append(out, termMatch{rel: strings.ToLower(f.Relation), attr: f.Attr, kind: kindValue, term: t.Text})
	}
	sort.SliceStable(out, func(i, j int) bool {
		if out[i].kind != out[j].kind {
			return out[i].kind < out[j].kind
		}
		if out[i].rel != out[j].rel {
			return out[i].rel < out[j].rel
		}
		return out[i].attr < out[j].attr
	})
	return out
}

// Translate generates SQAK's SQL statement for the query, or an error when
// SQAK cannot express it.
func (s *System) Translate(query string) (*sqlast.Query, error) {
	q, err := keyword.Parse(query)
	if err != nil {
		return nil, err
	}
	basics := q.BasicTerms()
	if len(basics) == 0 {
		return nil, ErrNoMatch
	}
	matchSets := make([][]termMatch, len(basics))
	for i, ti := range basics {
		ms := s.matches(q.Terms[ti])
		if len(ms) == 0 {
			return nil, fmt.Errorf("%w: %q", ErrNoMatch, q.Terms[ti].Text)
		}
		matchSets[i] = ms
	}

	combos := enumerate(matchSets, 128)
	var firstErr error
	type cand struct {
		sql  *sqlast.Query
		size int
		cost int
	}
	var best *cand
	for _, combo := range combos {
		sql, size, err := s.translateCombo(q, basics, combo)
		if err != nil {
			if firstErr == nil || errors.Is(err, ErrSelfJoin) || errors.Is(err, ErrMultipleAggregates) {
				firstErr = err
			}
			continue
		}
		cost := 0
		for _, m := range combo {
			cost += int(m.kind)
		}
		c := &cand{sql: sql, size: size, cost: cost}
		if best == nil || c.size < best.size || (c.size == best.size && c.cost < best.cost) {
			best = c
		}
	}
	if best == nil {
		if firstErr != nil {
			return nil, firstErr
		}
		return nil, ErrDisconnected
	}
	return best.sql, nil
}

// Answer translates and executes the query.
func (s *System) Answer(query string) (*sqldb.Result, *sqlast.Query, error) {
	sql, err := s.Translate(query)
	if err != nil {
		return nil, nil, err
	}
	res, err := sqldb.Exec(s.db, sql)
	if err != nil {
		return nil, sql, err
	}
	res.SortRows()
	return res, sql, nil
}

func enumerate(sets [][]termMatch, max int) [][]termMatch {
	out := [][]termMatch{{}}
	for _, set := range sets {
		var next [][]termMatch
		for _, prefix := range out {
			for _, m := range set {
				combo := make([]termMatch, len(prefix)+1)
				copy(combo, prefix)
				combo[len(prefix)] = m
				next = append(next, combo)
				if len(next) >= max {
					break
				}
			}
			if len(next) >= max {
				break
			}
		}
		out = next
	}
	return out
}

// translateCombo builds the SQN and SQL for one assignment of matches.
func (s *System) translateCombo(q *keyword.Query, basics []int, combo []termMatch) (*sqlast.Query, int, error) {
	matchOf := make(map[int]termMatch)
	for k, ti := range basics {
		matchOf[ti] = combo[k]
	}

	// Aggregate applications: maximal runs of adjacent aggregate terms.
	// More than one run needs two aggregate expressions in SELECT, which
	// SQAK does not support.
	type aggApp struct {
		funcs  []sqlast.AggFunc
		target int // term index of the operand
	}
	var apps []aggApp
	var groupTargets []int
	for i := 0; i < len(q.Terms); i++ {
		t := q.Terms[i]
		switch t.Kind {
		case keyword.Aggregate:
			app := aggApp{}
			for i < len(q.Terms) && q.Terms[i].Kind == keyword.Aggregate {
				app.funcs = append(app.funcs, q.Terms[i].Agg)
				i++
			}
			if i >= len(q.Terms) {
				return nil, 0, ErrNoMatch
			}
			app.target = i
			apps = append(apps, app)
		case keyword.GroupBy:
			if i+1 < len(q.Terms) {
				groupTargets = append(groupTargets, i+1)
			}
		}
	}
	if len(apps) > 1 {
		return nil, 0, ErrMultipleAggregates
	}

	// Self-join check: two value conditions on the same attribute of one
	// relation (e.g. "pink rose" and "white rose" on Part.pname) need two
	// instances of the relation, which SQAK does not generate.
	condAttr := make(map[string]int)
	for _, ti := range basics {
		if m := matchOf[ti]; m.kind == kindValue {
			condAttr[m.rel+"\x1f"+strings.ToLower(m.attr)]++
		}
	}
	for _, n := range condAttr {
		if n > 1 {
			return nil, 0, ErrSelfJoin
		}
	}

	// Build the SQN: connect every matched relation with shortest paths.
	rels := map[string]bool{}
	var order []string
	add := func(r string) {
		if !rels[r] {
			rels[r] = true
			order = append(order, r)
		}
	}
	for _, ti := range basics {
		add(matchOf[ti].rel)
	}
	sqn := map[string]bool{order[0]: true}
	type joinEdge struct {
		a, b  string
		attrs [][2]string
	}
	var joins []joinEdge
	for _, r := range order[1:] {
		if sqn[r] {
			continue
		}
		path := s.shortestPathToSet(r, sqn)
		if path == nil {
			return nil, 0, ErrDisconnected
		}
		for i := 0; i+1 < len(path); i++ {
			a, b := path[i], path[i+1]
			if !sqn[a] || !sqn[b] {
				e := s.edgeBetween(a, b)
				joins = append(joins, joinEdge{a: a, b: b, attrs: e.attrs})
			}
			sqn[a], sqn[b] = true, true
		}
	}

	// Assemble the SQL statement: join everything, apply conditions, group
	// by the condition attributes plus explicit GROUPBY targets, and apply
	// the aggregate to the attribute following the aggregate term.
	alias := func(rel string) string {
		t := s.db.Table(rel)
		return strings.ToUpper(t.Schema.Name[:1]) + "Q" + t.Schema.Name[1:]
	}
	sql := &sqlast.Query{}
	var sqnList []string
	for r := range sqn {
		sqnList = append(sqnList, r)
	}
	sort.Strings(sqnList)
	for _, r := range sqnList {
		sql.From = append(sql.From, sqlast.TableRef{Name: s.db.Table(r).Schema.Name, Alias: alias(r)})
	}
	for _, j := range joins {
		for _, pr := range j.attrs {
			sql.Where = append(sql.Where, sqlast.JoinPred{
				Left:  sqlast.Col{Table: alias(j.a), Column: pr[0]},
				Right: sqlast.Col{Table: alias(j.b), Column: pr[1]},
			})
		}
	}

	var groupCols []sqlast.Col
	for _, ti := range basics {
		m := matchOf[ti]
		if m.kind != kindValue {
			continue
		}
		sql.Where = append(sql.Where, sqlast.ContainsPred{
			Col:    sqlast.Col{Table: alias(m.rel), Column: m.attr},
			Needle: m.term,
		})
		groupCols = append(groupCols, sqlast.Col{Table: alias(m.rel), Column: m.attr})
	}
	for _, gt := range groupTargets {
		m, ok := matchOf[gt]
		if !ok {
			return nil, 0, ErrNoMatch
		}
		col := m.attr
		if m.kind != kindValue {
			var err error
			col, err = s.operand(m)
			if err != nil {
				return nil, 0, err
			}
		}
		groupCols = append(groupCols, sqlast.Col{Table: alias(m.rel), Column: col})
	}
	groupCols = dedupeCols(groupCols)

	if len(apps) == 0 {
		if len(groupCols) == 0 {
			return nil, 0, ErrNoMatch
		}
		sql.Distinct = true
		for _, c := range groupCols {
			sql.Select = append(sql.Select, sqlast.SelectItem{Expr: sqlast.ColExpr{Col: c}})
		}
		return sql, len(sqnList), nil
	}

	app := apps[0]
	m, ok := matchOf[app.target]
	if !ok {
		return nil, 0, ErrNoMatch
	}
	aggAttr, err := s.operand(m)
	if err != nil {
		return nil, 0, err
	}
	inner := app.funcs[len(app.funcs)-1]
	innerAlias := aggAlias(inner, aggAttr)
	for _, c := range groupCols {
		sql.Select = append(sql.Select, sqlast.SelectItem{Expr: sqlast.ColExpr{Col: c}})
		sql.GroupBy = append(sql.GroupBy, c)
	}
	sql.Select = append(sql.Select, sqlast.SelectItem{
		Expr:  sqlast.AggExpr{Func: inner, Arg: sqlast.Col{Table: alias(m.rel), Column: aggAttr}},
		Alias: innerAlias,
	})
	// Wrap any preceding aggregates of the run as nested queries.
	for i := len(app.funcs) - 2; i >= 0; i-- {
		fn := app.funcs[i]
		outer := &sqlast.Query{
			Select: []sqlast.SelectItem{{
				Expr:  sqlast.AggExpr{Func: fn, Arg: sqlast.Col{Table: "SQ", Column: innerAlias}},
				Alias: aggAlias(fn, innerAlias),
			}},
			From: []sqlast.TableRef{{Subquery: sql, Alias: "SQ"}},
		}
		sql = outer
		innerAlias = aggAlias(fn, innerAlias)
	}
	return sql, len(sqnList), nil
}

// operand resolves the attribute an aggregate or GROUPBY applies to: an
// attribute match maps to that attribute, a relation-name match to the
// relation's first key attribute.
func (s *System) operand(m termMatch) (string, error) {
	if m.kind == kindValue {
		return "", fmt.Errorf("%w: aggregate applied to value term %q", ErrNoMatch, m.term)
	}
	if m.attr != "" {
		return m.attr, nil
	}
	sch := s.db.Table(m.rel).Schema
	if len(sch.PrimaryKey) == 0 {
		return "", fmt.Errorf("%w: relation %s has no key", ErrNoMatch, sch.Name)
	}
	return sch.PrimaryKey[0], nil
}

// sharedPrefix returns the length of the common prefix of two strings.
func sharedPrefix(a, b string) int {
	n := 0
	for n < len(a) && n < len(b) && a[n] == b[n] {
		n++
	}
	return n
}

func dedupeCols(cols []sqlast.Col) []sqlast.Col {
	seen := make(map[string]bool)
	var out []sqlast.Col
	for _, c := range cols {
		k := strings.ToLower(c.String())
		if seen[k] {
			continue
		}
		seen[k] = true
		out = append(out, c)
	}
	return out
}

func aggAlias(fn sqlast.AggFunc, attr string) string {
	prefix := map[sqlast.AggFunc]string{
		sqlast.AggCount: "num", sqlast.AggSum: "sum", sqlast.AggAvg: "avg",
		sqlast.AggMin: "min", sqlast.AggMax: "max",
	}[fn]
	return prefix + attr
}

// shortestPathToSet returns the shortest path in the schema graph from
// relation r to any relation already in the set, endpoints included.
func (s *System) shortestPathToSet(r string, set map[string]bool) []string {
	prev := map[string]string{r: r}
	queue := []string{r}
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		if set[cur] {
			var path []string
			for at := cur; ; at = prev[at] {
				path = append(path, at)
				if at == prev[at] {
					break
				}
			}
			return path // from set member back to r; order is irrelevant
		}
		for _, e := range s.adj[cur] {
			if _, ok := prev[e.to]; ok {
				continue
			}
			prev[e.to] = cur
			queue = append(queue, e.to)
		}
	}
	return nil
}

func (s *System) edgeBetween(a, b string) edge {
	for _, e := range s.adj[a] {
		if e.to == b {
			return e
		}
	}
	return edge{}
}
