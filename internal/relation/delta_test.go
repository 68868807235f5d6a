package relation

import (
	"fmt"
	"math/bits"
	"reflect"
	"runtime"
	"strings"
	"testing"
)

// deltaSchema covers every attribute type plus a NULL-capable float and a
// string column that can store the literal "NULL" (Format-colliding with SQL
// NULL, so the bitsets matter).
func deltaSchema() *Schema {
	return NewSchema("Item", "Iid INT", "Name", "Cat", "Price FLOAT").Key("Iid")
}

// deltaRow builds row i deterministically: repeating categories, a shared
// token plus per-row tokens in Name, periodic NULL prices and the literal
// string "NULL" in Name.
func deltaRow(i int) Tuple {
	var price Value = float64(i%7) + 0.5
	if i%9 == 0 {
		price = nil
	}
	name := fmt.Sprintf("item %d alpha%d", i, i%13)
	if i%11 == 0 {
		name = "NULL"
	}
	return Tuple{int64(i), name, fmt.Sprintf("cat%d", i%3), price}
}

func deltaRows(lo, hi int) []Tuple {
	out := make([]Tuple, 0, hi-lo)
	for i := lo; i < hi; i++ {
		out = append(out, deltaRow(i))
	}
	return out
}

// fullFreeze builds the reference table the slow way: all rows from scratch.
func fullFreeze(t *testing.T, s *Schema, batches ...[]Tuple) *Table {
	t.Helper()
	nt := NewTable(s.Clone())
	if err := nt.AppendShared(batches...); err != nil {
		t.Fatalf("AppendShared: %v", err)
	}
	nt.Freeze()
	return nt
}

// requireTableEqual asserts the delta-built table is indistinguishable from
// the full freeze: tuples, dictionaries (IDs and values), row-major
// encoding, column blocks, null bitsets and value-index postings.
func requireTableEqual(t *testing.T, got, want *Table) {
	t.Helper()
	if !got.Frozen() {
		t.Fatal("delta table is not frozen")
	}
	if got.Len() != want.Len() {
		t.Fatalf("rows: got %d, want %d", got.Len(), want.Len())
	}
	ncols := len(want.Schema.Attributes)
	for i := range want.Tuples {
		for j := 0; j < ncols; j++ {
			if Format(got.Tuples[i][j]) != Format(want.Tuples[i][j]) {
				t.Fatalf("tuple %d col %d: got %v, want %v", i, j, got.Tuples[i][j], want.Tuples[i][j])
			}
		}
	}
	if len(got.enc) != len(want.enc) {
		t.Fatalf("enc length: got %d, want %d", len(got.enc), len(want.enc))
	}
	for k := range want.enc {
		if got.enc[k] != want.enc[k] {
			t.Fatalf("enc[%d]: got %d, want %d", k, got.enc[k], want.enc[k])
		}
	}
	for j := 0; j < ncols; j++ {
		gd, wd := got.dicts[j], want.dicts[j]
		if gd.Len() != wd.Len() {
			t.Fatalf("dict %d: got %d entries, want %d", j, gd.Len(), wd.Len())
		}
		if gd.AllStrings() != wd.AllStrings() {
			t.Fatalf("dict %d AllStrings: got %v, want %v", j, gd.AllStrings(), wd.AllStrings())
		}
		for id := 0; id < wd.Len(); id++ {
			if Format(gd.Value(uint32(id))) != Format(wd.Value(uint32(id))) {
				t.Fatalf("dict %d id %d: got %v, want %v", j, id, gd.Value(uint32(id)), wd.Value(uint32(id)))
			}
			if gid, ok := gd.ID(wd.Value(uint32(id))); !ok || gid != uint32(id) {
				t.Fatalf("dict %d reverse lookup of %v: got (%d,%v), want (%d,true)",
					j, wd.Value(uint32(id)), gid, ok, id)
			}
		}
		gc, wc := got.Col(j), want.Col(j)
		if !reflect.DeepEqual(gc.IDs, wc.IDs) {
			t.Fatalf("col %d IDs differ", j)
		}
		if (gc.Nulls == nil) != (wc.Nulls == nil) {
			t.Fatalf("col %d null bitset presence: got %v, want %v", j, gc.Nulls != nil, wc.Nulls != nil)
		}
		for i := 0; i < want.Len(); i++ {
			if gc.Null(i) != wc.Null(i) {
				t.Fatalf("col %d row %d null: got %v, want %v", j, i, gc.Null(i), wc.Null(i))
			}
		}
		if len(got.post[j]) != len(want.post[j]) {
			t.Fatalf("post %d: got %d pages, want %d", j, len(got.post[j]), len(want.post[j]))
		}
		for id := uint32(0); id < uint32(want.dicts[j].Len()); id++ {
			if g, w := got.post[j].rows(id), want.post[j].rows(id); !reflect.DeepEqual(g, w) {
				t.Fatalf("post %d id %d: got %v, want %v", j, id, g, w)
			}
		}
	}
}

// The commit-shape grid the incremental freeze must get right: growing
// within the partial tail block, spilling into fresh blocks, starting from
// empty, and starting exactly at a block boundary.
func TestExtendFrozenMatchesFullFreeze(t *testing.T) {
	cases := []struct {
		name   string
		n0, n1 int
	}{
		{"partial tail only", 100, 140},                                  // no new block allocated
		{"fill tail exactly", BlockSize - 40, BlockSize},                 // tail block becomes full
		{"spill into fresh blocks", BlockSize + 100, 3*BlockSize + 17},   // new full + partial blocks
		{"empty base", 0, 200},                                           // delta from an empty frozen table
		{"block-aligned base", 2 * BlockSize, 2*BlockSize + BlockSize/2}, // tail starts a fresh block
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := deltaSchema()
			base := fullFreeze(t, s, deltaRows(0, tc.n0))
			got, stats, err := ExtendFrozen(base, deltaRows(tc.n0, tc.n1))
			if err != nil {
				t.Fatalf("ExtendFrozen: %v", err)
			}
			if stats.NewRows != tc.n1-tc.n0 {
				t.Fatalf("NewRows: got %d, want %d", stats.NewRows, tc.n1-tc.n0)
			}
			requireTableEqual(t, got, fullFreeze(t, s, deltaRows(0, tc.n1)))
			// The base must be untouched: still the old rows, old postings.
			if base.Len() != tc.n0 {
				t.Fatalf("base mutated: %d rows, want %d", base.Len(), tc.n0)
			}
			requireTableEqual(t, base, fullFreeze(t, s, deltaRows(0, tc.n0)))
		})
	}
}

// An all-NULL batch landing in a fresh tail block: the column had no bitset
// before (or only old bits) and must grow word-aligned bits for rows the old
// bitset never covered.
func TestExtendFrozenAllNullFreshTailBlock(t *testing.T) {
	s := NewSchema("N", "Id INT", "Score FLOAT").Key("Id")
	rows := make([]Tuple, BlockSize)
	for i := range rows {
		rows[i] = Tuple{int64(i), float64(i)}
	}
	base := fullFreeze(t, s, rows)
	add := make([]Tuple, 90)
	for i := range add {
		add[i] = Tuple{int64(BlockSize + i), nil} // every new Score is NULL
	}
	got, _, err := ExtendFrozen(base, add)
	if err != nil {
		t.Fatalf("ExtendFrozen: %v", err)
	}
	requireTableEqual(t, got, fullFreeze(t, s, rows, add))
	if got.Col(1).Nulls == nil {
		t.Fatal("expected a null bitset on the extended column")
	}
	if base.Col(1).Nulls != nil {
		t.Fatal("base column grew a null bitset")
	}
}

// Delta-on-delta: the second commit extends a table that was itself built
// incrementally (the in-place claim path, since the first delta allocated
// private arrays with headroom).
func TestExtendFrozenDeltaOnDelta(t *testing.T) {
	s := deltaSchema()
	base := fullFreeze(t, s, deltaRows(0, 300))
	d1, _, err := ExtendFrozen(base, deltaRows(300, 400))
	if err != nil {
		t.Fatalf("first ExtendFrozen: %v", err)
	}
	d2, stats, err := ExtendFrozen(d1, deltaRows(400, 480))
	if err != nil {
		t.Fatalf("second ExtendFrozen: %v", err)
	}
	if stats.CopiedBlocks != 0 {
		t.Fatalf("delta-on-delta copied %d blocks; want in-place extension", stats.CopiedBlocks)
	}
	requireTableEqual(t, d2, fullFreeze(t, s, deltaRows(0, 480)))
	// Both intermediates stay valid snapshots.
	requireTableEqual(t, d1, fullFreeze(t, s, deltaRows(0, 400)))
	requireTableEqual(t, base, fullFreeze(t, s, deltaRows(0, 300)))
}

// Branched base: two deltas built from the same frozen table. Only one can
// claim the spare capacity; the other must copy — and both must match their
// own full freezes.
func TestExtendFrozenBranchedBase(t *testing.T) {
	s := deltaSchema()
	base := fullFreeze(t, s, deltaRows(0, 200))
	left, _, err := ExtendFrozen(base, deltaRows(200, 260))
	if err != nil {
		t.Fatalf("left ExtendFrozen: %v", err)
	}
	right, _, err := ExtendFrozen(base, deltaRows(500, 540))
	if err != nil {
		t.Fatalf("right ExtendFrozen: %v", err)
	}
	requireTableEqual(t, left, fullFreeze(t, s, deltaRows(0, 200), deltaRows(200, 260)))
	requireTableEqual(t, right, fullFreeze(t, s, deltaRows(0, 200), deltaRows(500, 540)))
	requireTableEqual(t, base, fullFreeze(t, s, deltaRows(0, 200)))
}

// A delta on the branch that lost the claim wins that branch's own claim.
// Value-index lists the losing branch shared with the base untouched must
// not let it append into spare capacity the winning sibling already wrote.
func TestExtendFrozenBranchLineage(t *testing.T) {
	s := deltaSchema()
	base := fullFreeze(t, s, deltaRows(0, 200))
	left, _, err := ExtendFrozen(base, deltaRows(200, 260))
	if err != nil {
		t.Fatal(err)
	}
	// right touches no existing Cat value, so its cat0..cat2 lists are the
	// base's.
	other := []Tuple{{int64(900), "zed", "catZ", 1.5}, {int64(901), "zed", "catZ", nil}}
	right, _, err := ExtendFrozen(base, other)
	if err != nil {
		t.Fatal(err)
	}
	next, _, err := ExtendFrozen(right, deltaRows(600, 660))
	if err != nil {
		t.Fatal(err)
	}
	requireTableEqual(t, left, fullFreeze(t, s, deltaRows(0, 200), deltaRows(200, 260)))
	requireTableEqual(t, right, fullFreeze(t, s, deltaRows(0, 200), other))
	requireTableEqual(t, next, fullFreeze(t, s, deltaRows(0, 200), other, deltaRows(600, 660)))
	requireTableEqual(t, base, fullFreeze(t, s, deltaRows(0, 200)))
}

func TestExtendFrozenErrors(t *testing.T) {
	s := deltaSchema()
	unfrozen := NewTable(s)
	if _, _, err := ExtendFrozen(unfrozen, deltaRows(0, 1)); err == nil {
		t.Fatal("expected error extending an unfrozen table")
	}
	base := fullFreeze(t, s, deltaRows(0, 10))
	if _, _, err := ExtendFrozen(base, []Tuple{{int64(1), "x"}}); err == nil {
		t.Fatal("expected arity error")
	}
	db := NewDatabase("d")
	db.Add(base)
	if _, _, err := ExtendFrozenDatabase(db, map[string][]Tuple{"nosuch": deltaRows(0, 1)}); err == nil {
		t.Fatal("expected unknown-table error")
	}
}

// Tables without new rows are carried into the next epoch by pointer, and
// their blocks count as reused.
func TestExtendFrozenDatabaseSharesUnchangedTables(t *testing.T) {
	s1 := deltaSchema()
	s2 := NewSchema("Other", "Oid INT", "Label").Key("Oid")
	db := NewDatabase("d")
	t1 := NewTable(s1)
	if err := t1.AppendShared(deltaRows(0, 50)); err != nil {
		t.Fatal(err)
	}
	t2 := NewTable(s2)
	for i := 0; i < 30; i++ {
		t2.MustInsert(int64(i), fmt.Sprintf("label %d", i))
	}
	db.Add(t1)
	db.Add(t2)
	db.Freeze()
	next, stats, err := ExtendFrozenDatabase(db, map[string][]Tuple{"item": deltaRows(50, 80)})
	if err != nil {
		t.Fatalf("ExtendFrozenDatabase: %v", err)
	}
	if next.Table("Other") != t2 {
		t.Fatal("unchanged table was rebuilt instead of shared")
	}
	if next.Table("Item") == t1 {
		t.Fatal("changed table was not rebuilt")
	}
	if stats.SharedTables != 1 {
		t.Fatalf("SharedTables: got %d, want 1", stats.SharedTables)
	}
	if stats.ReusedBlocks == 0 {
		t.Fatal("expected reused blocks from the shared table")
	}
	if !next.Frozen() {
		t.Fatal("extended database is not frozen")
	}
	// No new rows at all: the same database value comes back table-for-table.
	same, _, err := ExtendFrozenDatabase(next, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i, tb := range same.Tables() {
		if tb != next.Tables()[i] {
			t.Fatalf("table %d not shared on empty commit", i)
		}
	}
}

// The patched inverted index must equal a from-scratch BuildIndex — same
// postings in the same order — including tokens that span old and new rows
// of different tables.
func TestAppendRowsMatchesBuildIndex(t *testing.T) {
	build := func(n1, n2 int) *Database {
		db := NewDatabase("d")
		t1 := NewTable(deltaSchema())
		if err := t1.AppendShared(deltaRows(0, n1)); err != nil {
			t.Fatal(err)
		}
		t2 := NewTable(NewSchema("Other", "Oid INT", "Label").Key("Oid"))
		for i := 0; i < n2; i++ {
			// "item" and "alpha<k>" overlap table Item's tokens, so merged
			// posting lists interleave both tables.
			t2.MustInsert(int64(i), fmt.Sprintf("item alpha%d other%d", i%13, i))
		}
		db.Add(t1)
		db.Add(t2)
		return db
	}
	prefix := build(120, 40)
	prefixIdx := BuildIndex(prefix)
	full := build(180, 70)
	patched, touched := prefixIdx.AppendRows(full, map[string]int{"item": 120, "other": 40})
	if touched == 0 {
		t.Fatal("expected touched posting lists")
	}
	want := BuildIndex(full)
	requireIndexEqual(t, "patched", patched, want)
	// Patching with nothing new returns the index itself.
	same, touched := want.AppendRows(full, map[string]int{"item": 180, "other": 70})
	if same != want || touched != 0 {
		t.Fatalf("no-op AppendRows: got (%p,%d), want (%p,0)", same, touched, want)
	}
}

// Dictionary layering details: pointer identity is preserved for columns
// with no new distinct values, layer sizes at least double down the chain
// (so its depth is logarithmic), and the remap cache stays correct and
// capped across epochs.
func TestDictExtendLayering(t *testing.T) {
	s := NewSchema("L", "Id INT", "Cat").Key("Id")
	rows := []Tuple{}
	for i := 0; i < 40; i++ {
		rows = append(rows, Tuple{int64(i), fmt.Sprintf("cat%d", i%4)})
	}
	base := fullFreeze(t, s, rows)
	// New rows reuse only existing categories: the Cat dictionary must be
	// the same pointer in the extended table.
	add := []Tuple{{int64(40), "cat1"}, {int64(41), "cat2"}}
	got, stats, err := ExtendFrozen(base, add)
	if err != nil {
		t.Fatal(err)
	}
	if got.dicts[1] != base.dicts[1] {
		t.Fatal("unchanged dictionary lost pointer identity")
	}
	if got.dicts[0] == base.dicts[0] {
		t.Fatal("Id dictionary gained values but kept pointer identity")
	}
	if stats.NewDictEntries != 2 {
		t.Fatalf("NewDictEntries: got %d, want 2", stats.NewDictEntries)
	}
	// Walk a long chain of single-row extensions: depth must stay bounded
	// and lookups exact.
	cur := got
	n := cur.Len()
	for e := 0; e < 200; e++ {
		cur, _, err = ExtendFrozen(cur, []Tuple{{int64(1000 + e), fmt.Sprintf("cat%d", e%6)}})
		if err != nil {
			t.Fatal(err)
		}
		n++
	}
	for j, d := range cur.dicts {
		depth := 0
		for e := d; e.base != nil; e = e.base {
			if 2*len(e.vals) >= len(e.base.vals) {
				t.Fatalf("dict %d: layer of %d values over one of %d", j, len(e.vals), len(e.base.vals))
			}
			depth++
		}
		if limit := bits.Len(uint(d.Len())); depth > limit {
			t.Fatalf("dict %d chain depth %d exceeds %d", j, depth, limit)
		}
	}
	if cur.Len() != n {
		t.Fatalf("rows: got %d, want %d", cur.Len(), n)
	}
	for id := 0; id < cur.dicts[0].Len(); id++ {
		v := cur.dicts[0].Value(uint32(id))
		if got, ok := cur.dicts[0].ID(v); !ok || got != uint32(id) {
			t.Fatalf("layered dict round-trip failed for id %d (%v)", id, v)
		}
	}
	// Remap across the layered dictionaries agrees with element-wise ID.
	remap := cur.dicts[1].Remap(cur.dicts[0])
	if len(remap) != cur.dicts[1].Len() {
		t.Fatalf("remap length %d, want %d", len(remap), cur.dicts[1].Len())
	}
	for id, tid := range remap {
		wid, ok := cur.dicts[0].ID(cur.dicts[1].Value(uint32(id)))
		if !ok {
			wid = NoID
		}
		if tid != wid {
			t.Fatalf("remap[%d] = %d, want %d", id, tid, wid)
		}
	}
	if cached := cur.dicts[1].RemapCached(cur.dicts[0]); !reflect.DeepEqual(cached, remap) {
		t.Fatal("RemapCached disagrees with Remap")
	}
}

// The remap cache stops growing at its cap but stays correct past it.
func TestRemapCacheCap(t *testing.T) {
	d := newDict()
	for i := 0; i < 10; i++ {
		d.encode(int64(i))
	}
	targets := make([]*Dict, remapCacheMax+10)
	for i := range targets {
		to := newDict()
		to.encode(int64(i % 10))
		targets[i] = to
		got := d.RemapCached(to)
		want := d.Remap(to)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("RemapCached target %d: got %v, want %v", i, got, want)
		}
	}
	if n := d.remapN.Load(); n > remapCacheMax {
		t.Fatalf("remap cache grew to %d, cap is %d", n, remapCacheMax)
	}
}

// A steady-state commit copies value-index page headers, not one posting
// list header per distinct value, and merges dictionary tails without
// re-copying the full build's layer: the bytes it allocates grow far slower
// than the table. (A list header per distinct value would cost 24 bytes per
// existing row in each unique column, 48 here.)
func TestExtendFrozenBytesSublinear(t *testing.T) {
	s := NewSchema("U", "Id INT", "Label").Key("Id")
	commitBytes := func(n int) uint64 {
		row := func(i int) Tuple { return Tuple{int64(i), fmt.Sprintf("label %d", i)} }
		rows := make([]Tuple, n)
		for i := range rows {
			rows[i] = row(i)
		}
		cur := fullFreeze(t, s, rows)
		var ms0, ms1 runtime.MemStats
		for c := 0; c < 3; c++ {
			add := make([]Tuple, 100)
			for i := range add {
				add[i] = row(n + c*100 + i)
			}
			runtime.ReadMemStats(&ms0)
			next, _, err := ExtendFrozen(cur, add)
			runtime.ReadMemStats(&ms1)
			if err != nil {
				t.Fatal(err)
			}
			cur = next
		}
		// The third commit's bytes: the first commit after a full freeze
		// copies the columns (they have no spare capacity), so it is not
		// the steady state.
		return ms1.TotalAlloc - ms0.TotalAlloc
	}
	small, large := commitBytes(2000), commitBytes(64000)
	if perRow := float64(large-min(small, large)) / 62000; perRow > 4 {
		t.Fatalf("commit bytes grew %.1f B per existing row (%d at 2k rows, %d at 64k)", perRow, small, large)
	}
}

func TestExtendFrozenStatsBlocks(t *testing.T) {
	s := NewSchema("B", "Id INT", "Label").Key("Id")
	rows := make([]Tuple, 4*BlockSize)
	for i := range rows {
		rows[i] = Tuple{int64(i), fmt.Sprintf("label %d", i)}
	}
	base := fullFreeze(t, s, rows)
	add := []Tuple{{int64(len(rows)), "label tail"}}
	// First delta from a full freeze copies the columns (the freeze's
	// backing has no spare capacity) ...
	d1, st1, err := ExtendFrozen(base, add)
	if err != nil {
		t.Fatal(err)
	}
	if st1.CopiedBlocks == 0 {
		t.Fatal("first delta should copy the full-freeze columns")
	}
	// ... and the second extends the copies in place, reusing every block.
	d2, st2, err := ExtendFrozen(d1, []Tuple{{int64(len(rows) + 1), "label tail2"}})
	if err != nil {
		t.Fatal(err)
	}
	if st2.CopiedBlocks != 0 || st2.ReusedBlocks == 0 {
		t.Fatalf("second delta: copied %d, reused %d; want 0 copied", st2.CopiedBlocks, st2.ReusedBlocks)
	}
	_ = d2
	if st1.TouchedPostings == 0 || st2.TouchedPostings == 0 {
		t.Fatal("expected touched posting lists")
	}
}

// Plain AppendShared edge cases (the bulk-append the full-refreeze baseline
// and the delta tests' reference path rely on).
func TestAppendSharedEdgeCases(t *testing.T) {
	s := deltaSchema()
	// Empty source table, empty batches, then real rows.
	tb := NewTable(s)
	if err := tb.AppendShared(); err != nil {
		t.Fatalf("empty AppendShared: %v", err)
	}
	if err := tb.AppendShared(nil, []Tuple{}); err != nil {
		t.Fatalf("nil-batch AppendShared: %v", err)
	}
	if tb.Len() != 0 {
		t.Fatalf("rows after empty appends: %d", tb.Len())
	}
	if err := tb.AppendShared(deltaRows(0, 5), nil, deltaRows(5, 8)); err != nil {
		t.Fatalf("AppendShared: %v", err)
	}
	if tb.Len() != 8 {
		t.Fatalf("rows: got %d, want 8", tb.Len())
	}
	for i := 0; i < 8; i++ {
		if Format(tb.Tuples[i][0]) != fmt.Sprint(i) {
			t.Fatalf("row %d out of order: %v", i, tb.Tuples[i])
		}
	}
	// Arity errors reject the whole batch atomically.
	if err := tb.AppendShared(deltaRows(8, 9), []Tuple{{int64(9)}}); err == nil {
		t.Fatal("expected arity error")
	}
	if tb.Len() != 8 {
		t.Fatalf("failed append mutated the table: %d rows", tb.Len())
	}
	// Frozen tables reject the append.
	tb.Freeze()
	if err := tb.AppendShared(deltaRows(8, 9)); err == nil ||
		!strings.Contains(err.Error(), "frozen") {
		t.Fatalf("frozen AppendShared: got %v, want frozen error", err)
	}
}
