package relation

import (
	"fmt"
	"reflect"
	"testing"
)

// requireIndexEqual asserts two indexes hold the same fields and, token for
// token, the same segments (fields and row ids, in order). Token ids may
// differ: they number tokens in first-seen order, which depends on the
// epoch a token first appeared in.
func requireIndexEqual(t *testing.T, step string, got, want *InvertedIndex) {
	t.Helper()
	if !reflect.DeepEqual(got.fields, want.fields) {
		t.Fatalf("%s: fields %v, want %v", step, got.fields, want.fields)
	}
	if len(got.ids) != len(want.ids) || len(got.segs) != len(got.ids) {
		t.Fatalf("%s: %d tokens (%d segment lists), want %d", step, len(got.ids), len(got.segs), len(want.ids))
	}
	for tok, id := range want.ids {
		gid, ok := got.ids[tok]
		if !ok {
			t.Fatalf("%s: token %q missing", step, tok)
		}
		if !reflect.DeepEqual(got.segs[gid], want.segs[id]) {
			t.Fatalf("%s: token %q: got %v, want %v", step, tok, got.segs[gid], want.segs[id])
		}
	}
}

// pubSchema and friends model the ACMDL' layout that makes index patching
// hard: the fresh rows of the first table carry tokens that also occur in a
// later attribute of the same table (Venue) and in a later-ranked table
// (Editor), so a touched token's new occurrences land in the middle of its
// segment list, not at its end.
func pubSchemas() []*Schema {
	return []*Schema{
		NewSchema("Paper", "Pid INT", "Title", "Venue", "Published DATE").Key("Pid"),
		NewSchema("Editor", "Eid INT", "Name", "Since DATE").Key("Eid"),
	}
}

func paperRow(i int) Tuple {
	return Tuple{int64(i),
		fmt.Sprintf("smith on tuning %d sigmod%d", i%17, i%5),
		fmt.Sprintf("sigmod%d smith", i%5),
		fmt.Sprintf("199%d-%02d-%02d", i%10, i%12+1, i%28+1)}
}

func editorRow(i int) Tuple {
	return Tuple{int64(i), fmt.Sprintf("smith j%d tuning sigmod%d", i%7, i%3),
		fmt.Sprintf("199%d-01-%02d", i%10, i%28+1)}
}

// pubDB holds the first papers rows of Paper and editors rows of Editor.
func pubDB(papers, editors int) *Database {
	db := NewDatabase("pub")
	rows := [][]Tuple{make([]Tuple, papers), make([]Tuple, editors)}
	for i := range rows[0] {
		rows[0][i] = paperRow(i)
	}
	for i := range rows[1] {
		rows[1][i] = editorRow(i)
	}
	for k, s := range pubSchemas() {
		db.Add(&Table{Schema: s, Tuples: rows[k]})
	}
	return db
}

// TestAppendRowsLaterRankedFields commits Paper rows whose tokens occur in
// later fields, one commit per shape: Paper only, Editor only, both.
func TestAppendRowsLaterRankedFields(t *testing.T) {
	idx := BuildIndex(pubDB(40, 20))
	steps := [][2]int{{60, 20}, {60, 30}, {90, 45}}
	prev := [2]int{40, 20}
	for _, n := range steps {
		db := pubDB(n[0], n[1])
		next, touched := idx.AppendRows(db, map[string]int{"paper": prev[0], "editor": prev[1]})
		if touched == 0 {
			t.Fatalf("step %v: no touched tokens", n)
		}
		requireIndexEqual(t, fmt.Sprintf("step %v", n), next, BuildIndex(db))
		idx, prev = next, n
	}
	// "smith" occurs in all three Paper/Editor string fields: three
	// segments, in field order.
	segs := idx.lookup("smith")
	if len(segs) != 3 || segs[0].field >= segs[1].field || segs[1].field >= segs[2].field {
		t.Fatalf("smith segments: %v", segs)
	}
}

// TestAppendRowsChainedCommits grows one index through twelve commits of
// varying size, checking every epoch against a full rebuild — and, after the
// whole chain, that every earlier epoch still equals its own rebuild: the
// in-place tail appends never wrote anything an old-epoch reader can see.
func TestAppendRowsChainedCommits(t *testing.T) {
	type epoch struct {
		idx  *InvertedIndex
		want *InvertedIndex
	}
	n := [2]int{30, 10}
	idx := BuildIndex(pubDB(n[0], n[1]))
	epochs := []epoch{{idx, BuildIndex(pubDB(n[0], n[1]))}}
	for c := 1; c <= 12; c++ {
		next := [2]int{n[0] + c*7%23 + 1, n[1] + c%3}
		db := pubDB(next[0], next[1])
		grown, _ := idx.AppendRows(db, map[string]int{"paper": n[0], "editor": n[1]})
		want := BuildIndex(db)
		requireIndexEqual(t, fmt.Sprintf("commit %d", c), grown, want)
		epochs = append(epochs, epoch{grown, want})
		idx, n = grown, next
	}
	for k, e := range epochs {
		requireIndexEqual(t, fmt.Sprintf("epoch %d after the chain", k), e.idx, e.want)
	}
}

// TestAppendRowsBranchLosesClaim patches one base twice (a branch): the
// second patch loses the capacity claim and must copy. Both branches, and
// branches of the losing branch, must equal their rebuilds — before and
// after their siblings grow.
func TestAppendRowsBranchLosesClaim(t *testing.T) {
	base := BuildIndex(pubDB(40, 10))
	from := map[string]int{"paper": 40, "editor": 10}
	a, _ := base.AppendRows(pubDB(50, 12), from)
	// Branch b covers different new rows than a: Paper grows further and
	// Editor not at all, so both write the same segments' spare capacity.
	bDB := pubDB(70, 10)
	b, _ := base.AppendRows(bDB, from)
	if !base.claimed.Load() || b.claimed.Load() {
		t.Fatal("claim discipline: base must be claimed once, the branch fresh")
	}
	requireIndexEqual(t, "winner a", a, BuildIndex(pubDB(50, 12)))
	requireIndexEqual(t, "loser b", b, BuildIndex(bDB))

	// Grow both lineages, alternating; the loser's descendants own fresh
	// capacity and must never write into the winner's.
	an, bn := [2]int{50, 12}, [2]int{70, 10}
	for c := 0; c < 6; c++ {
		nextA := [2]int{an[0] + 9, an[1] + 2}
		a, _ = a.AppendRows(pubDB(nextA[0], nextA[1]), map[string]int{"paper": an[0], "editor": an[1]})
		nextB := [2]int{bn[0] + 5, bn[1] + 3}
		b, _ = b.AppendRows(pubDB(nextB[0], nextB[1]), map[string]int{"paper": bn[0], "editor": bn[1]})
		an, bn = nextA, nextB
		requireIndexEqual(t, fmt.Sprintf("lineage a step %d", c), a, BuildIndex(pubDB(an[0], an[1])))
		requireIndexEqual(t, fmt.Sprintf("lineage b step %d", c), b, BuildIndex(pubDB(bn[0], bn[1])))
	}
	requireIndexEqual(t, "base after both lineages", base, BuildIndex(pubDB(40, 10)))
}

// appendBench is a chain of databases over one shared row slice: dbs[k]
// holds the first n + k*batch rows of a one-table database whose Name
// values draw on a fixed vocabulary (the index's vocabulary stays bounded
// while its postings grow with n).
type appendBench struct {
	n, batch int
	dbs      []*Database
}

func newAppendBench(n, batch, steps int) *appendBench {
	s := NewSchema("Item", "Iid INT", "Name", "Cat").Key("Iid")
	rows := make([]Tuple, n+batch*steps)
	for i := range rows {
		rows[i] = Tuple{int64(i), fmt.Sprintf("widget alpha%d beta%d", i%97, i%89), fmt.Sprintf("cat%d", i%13)}
	}
	ab := &appendBench{n: n, batch: batch}
	for k := 0; k <= steps; k++ {
		db := NewDatabase("bench")
		db.Add(&Table{Schema: s, Tuples: rows[:n+k*batch]})
		ab.dbs = append(ab.dbs, db)
	}
	return ab
}

// commit appends step k's batch (k >= 1) to idx, which covers step k-1.
func (ab *appendBench) commit(idx *InvertedIndex, k int) *InvertedIndex {
	next, _ := idx.AppendRows(ab.dbs[k], map[string]int{"item": ab.n + (k-1)*ab.batch})
	return next
}

// BenchmarkAppendRows measures one 100-row commit's index patch on top of N
// existing rows, chained as a live engine commits. Every 64 commits the
// chain restarts from a fresh BuildIndex over the N rows (outside the
// timer), so memory stays bounded however large b.N grows. Time and
// allocations per commit should not depend on N.
func BenchmarkAppendRows(b *testing.B) {
	const batch, steps = 100, 64
	for _, n := range []int{10_000, 100_000} {
		b.Run(fmt.Sprintf("rows=%d/batch=%d", n, batch), func(b *testing.B) {
			ab := newAppendBench(n, batch, steps)
			b.ReportAllocs()
			b.ResetTimer()
			var idx *InvertedIndex
			for i := 0; i < b.N; i++ {
				k := i%steps + 1
				if k == 1 {
					b.StopTimer()
					idx = BuildIndex(ab.dbs[0])
					b.StartTimer()
				}
				idx = ab.commit(idx, k)
			}
		})
	}
}

// TestAppendRowsAllocsIndependentOfPostings pins the cost model: a 100-row
// commit allocates the same whether the index already holds 2k or 50k
// rows' postings (same vocabulary).
func TestAppendRowsAllocsIndependentOfPostings(t *testing.T) {
	const batch, runs = 100, 20
	allocs := func(n int) float64 {
		ab := newAppendBench(n, batch, runs+1)
		idx := BuildIndex(ab.dbs[0])
		k := 0
		return testing.AllocsPerRun(runs, func() {
			k++
			idx = ab.commit(idx, k)
		})
	}
	small, large := allocs(2_000), allocs(50_000)
	if large > small*1.1+2 {
		t.Fatalf("allocations per commit grew with existing postings: %.0f at 2k rows, %.0f at 50k", small, large)
	}
	t.Logf("allocations per 100-row commit: %.0f at 2k rows, %.0f at 50k", small, large)
}
