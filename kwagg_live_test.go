package kwagg_test

import (
	"context"
	"reflect"
	"testing"

	"kwagg"
)

// TestLiveEngineEpochs drives the public live-ingest surface end to end:
// epoch 0 answers like a frozen engine, ingested rows stay invisible until
// CommitEpoch, and after the swap both caches serve the new epoch's answers
// (the same query string must not replay a stale cached answer).
func TestLiveEngineEpochs(t *testing.T) {
	eng, err := kwagg.OpenLive(kwagg.UniversityDB(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if !eng.Live() || eng.Epoch() != 0 || eng.PendingRows() != 0 {
		t.Fatalf("fresh live engine: live=%v epoch=%d pending=%d", eng.Live(), eng.Epoch(), eng.PendingRows())
	}
	const query = "Green SUM Credit"
	before, err := eng.Answer(query, 1)
	if err != nil {
		t.Fatal(err)
	}
	sqakBefore, _, err := eng.SQAKAnswer(query)
	if err != nil {
		t.Fatal(err)
	}

	// A third Green student enrolled in Database changes the SUM.
	if _, err := eng.Ingest("Student", [][]string{{"s9", "Green", "23"}}); err != nil {
		t.Fatal(err)
	}
	if n, err := eng.Ingest("Enrol", [][]string{{"s9", "c2", "A"}}); err != nil || n != 2 {
		t.Fatalf("Ingest = %d, %v", n, err)
	}
	// Pending rows are invisible; the answer cache may legitimately serve
	// the epoch-0 entry because this still IS epoch 0.
	mid, err := eng.Answer(query, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(before, mid) {
		t.Fatalf("uncommitted rows changed the answer:\n%+v\n%+v", before, mid)
	}

	epoch, err := eng.CommitEpoch(context.Background())
	if err != nil || epoch != 1 {
		t.Fatalf("CommitEpoch = %d, %v", epoch, err)
	}
	if eng.Epoch() != 1 || eng.PendingRows() != 0 {
		t.Fatalf("after commit: epoch=%d pending=%d", eng.Epoch(), eng.PendingRows())
	}
	if eng.EpochBuildDuration() <= 0 {
		t.Fatalf("EpochBuildDuration after commit = %v, want > 0", eng.EpochBuildDuration())
	}
	after, err := eng.Answer(query, 1)
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(before, after) {
		t.Fatalf("epoch swap served the stale cached answer:\n%+v", after)
	}
	// The epoch answer equals the same data opened frozen from scratch.
	db := kwagg.UniversityDB()
	db.MustInsert("Student", "s9", "Green", "23")
	db.MustInsert("Enrol", "s9", "c2", "A")
	frozen, err := kwagg.Open(db, nil)
	if err != nil {
		t.Fatal(err)
	}
	want, err := frozen.Answer(query, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(want, after) {
		t.Fatalf("live epoch 1 diverged from the frozen equivalent:\nwant %+v\ngot  %+v", want, after)
	}
	// SQL and SQAK also see the new epoch.
	res, err := eng.ExecuteSQL("SELECT S.Sname FROM Student S WHERE S.Sid = 's9'")
	if err != nil || len(res.Rows) != 1 || res.Rows[0][0] != "Green" {
		t.Fatalf("ExecuteSQL on epoch 1: %v %+v", err, res)
	}
	sqakAfter, sqakSQL, err := eng.SQAKAnswer(query)
	if err != nil {
		t.Fatal(err)
	}
	sqakWant, wantSQL, err := frozen.SQAKAnswer(query)
	if err != nil {
		t.Fatal(err)
	}
	if sqakSQL != wantSQL || !reflect.DeepEqual(sqakAfter, sqakWant) {
		t.Fatalf("SQAK on epoch 1 diverged from the frozen equivalent:\nwant %s %+v\ngot  %s %+v",
			wantSQL, sqakWant, sqakSQL, sqakAfter)
	}
	if reflect.DeepEqual(sqakBefore, sqakAfter) {
		t.Fatalf("SQAK still answers from epoch 0: %+v", sqakAfter)
	}
}

// TestLiveEngineConcurrentSwap hammers the atomic epoch-state fold from many
// goroutines while commits land: every answer must be well-formed and the
// engine must end on the last epoch. Run under -race this also proves the
// query path never touches the mutable write buffer.
func TestLiveEngineConcurrentSwap(t *testing.T) {
	eng, err := kwagg.OpenLive(kwagg.UniversityDB(), nil)
	if err != nil {
		t.Fatal(err)
	}
	const epochs = 4
	done := make(chan struct{})
	errc := make(chan error, 8)
	for w := 0; w < 4; w++ {
		go func() {
			for {
				select {
				case <-done:
					return
				default:
				}
				if _, err := eng.Answer("Green SUM Credit", 2); err != nil {
					errc <- err
					return
				}
			}
		}()
	}
	for i := 0; i < epochs; i++ {
		sid := string(rune('A' + i))
		if _, err := eng.Ingest("Student", [][]string{{"sx" + sid, "Green", "25"}}); err != nil {
			t.Fatal(err)
		}
		if _, err := eng.CommitEpoch(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
	close(done)
	select {
	case err := <-errc:
		t.Fatalf("concurrent query failed across epoch swaps: %v", err)
	default:
	}
	if eng.Epoch() != epochs {
		t.Fatalf("final epoch = %d, want %d", eng.Epoch(), epochs)
	}
}

// TestFrozenEngineRejectsIngest pins the not-live error path of the ingest
// surface on an engine opened with plain Open.
func TestFrozenEngineRejectsIngest(t *testing.T) {
	eng := universityEngine(t)
	if eng.Live() {
		t.Fatal("Open produced a live engine")
	}
	if _, err := eng.Ingest("Student", [][]string{{"s9", "x", "20"}}); err != kwagg.ErrNotLive {
		t.Fatalf("Ingest on frozen engine: %v, want ErrNotLive", err)
	}
	if _, err := eng.CommitEpoch(context.Background()); err != kwagg.ErrNotLive {
		t.Fatalf("CommitEpoch on frozen engine: %v, want ErrNotLive", err)
	}
	if eng.Epoch() != 0 || eng.PendingRows() != 0 {
		t.Fatalf("frozen engine epoch=%d pending=%d", eng.Epoch(), eng.PendingRows())
	}
	if d := eng.EpochBuildDuration(); d != 0 {
		t.Fatalf("EpochBuildDuration on frozen engine = %v, want 0", d)
	}
}

// TestStatusAndSchemaSnapshots pins the single-snapshot aggregates: one
// Status/Schema call must agree with the per-field getters on a quiescent
// engine, across an epoch swap, and on a frozen engine.
func TestStatusAndSchemaSnapshots(t *testing.T) {
	eng, err := kwagg.OpenLive(kwagg.UniversityDB(), nil)
	if err != nil {
		t.Fatal(err)
	}
	st := eng.Status()
	if !st.Live || st.Epoch != 0 || st.PendingRows != 0 || st.EpochBuild != 0 {
		t.Fatalf("fresh live Status = %+v", st)
	}
	if st.Workers != eng.Workers() {
		t.Fatalf("Status.Workers = %d, Workers() = %d", st.Workers, eng.Workers())
	}
	if _, err := eng.Ingest("Student", [][]string{{"s9", "Green", "23"}}); err != nil {
		t.Fatal(err)
	}
	if st = eng.Status(); st.PendingRows != 1 || st.Epoch != 0 {
		t.Fatalf("Status after ingest = %+v, want 1 pending row in epoch 0", st)
	}
	if _, err := eng.CommitEpoch(context.Background()); err != nil {
		t.Fatal(err)
	}
	st = eng.Status()
	if st.Epoch != 1 || st.PendingRows != 0 || st.EpochBuild <= 0 {
		t.Fatalf("Status after commit = %+v, want epoch 1, no pending, positive build time", st)
	}

	info := eng.Schema()
	if info.Unnormalized != eng.Unnormalized() || info.Text != eng.SchemaGraph() || info.Dot != eng.SchemaDot() {
		t.Fatal("Schema() disagrees with the per-field getters on a quiescent engine")
	}
	if info.Text == "" || info.Dot == "" {
		t.Fatalf("Schema() returned empty descriptions: %+v", info)
	}

	frozen := universityEngine(t)
	if st := frozen.Status(); st.Live || st.Epoch != 0 || st.PendingRows != 0 || st.EpochBuild != 0 {
		t.Fatalf("frozen Status = %+v", st)
	}
}
