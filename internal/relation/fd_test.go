package relation

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

// enrolmentFDs reproduces the Figure 8 dependencies.
func enrolmentFDs() []FD {
	return []FD{
		{LHS: []string{"Sid"}, RHS: []string{"Sname", "Age"}},
		{LHS: []string{"Code"}, RHS: []string{"Title", "Credit"}},
		{LHS: []string{"Sid", "Code"}, RHS: []string{"Grade"}},
	}
}

func TestClosure(t *testing.T) {
	fds := enrolmentFDs()
	got := Closure([]string{"Sid"}, fds)
	want := []string{"Age", "Sid", "Sname"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("closure(Sid) = %v, want %v", got, want)
	}
	got = Closure([]string{"Sid", "Code"}, fds)
	if len(got) != 7 {
		t.Errorf("closure(Sid,Code) should cover all 7 attributes, got %v", got)
	}
}

func TestClosureTransitivity(t *testing.T) {
	fds := []FD{
		{LHS: []string{"A"}, RHS: []string{"B"}},
		{LHS: []string{"B"}, RHS: []string{"C"}},
		{LHS: []string{"C"}, RHS: []string{"D"}},
	}
	got := Closure([]string{"A"}, fds)
	if len(got) != 4 {
		t.Errorf("transitive closure should reach D: %v", got)
	}
}

func TestClosureCaseInsensitive(t *testing.T) {
	fds := []FD{{LHS: []string{"sid"}, RHS: []string{"SNAME"}}}
	got := Closure([]string{"SID"}, fds)
	if len(got) != 2 {
		t.Errorf("closure should match case-insensitively: %v", got)
	}
}

// TestClosureProperties checks the three axioms of attribute closures on
// random FD sets: extensive (X subset of X+), monotone (X subset of Y implies
// X+ subset of Y+), and idempotent ((X+)+ = X+).
func TestClosureProperties(t *testing.T) {
	attrs := []string{"A", "B", "C", "D", "E", "F"}
	genFDs := func(r *rand.Rand) []FD {
		n := r.Intn(6)
		fds := make([]FD, n)
		pick := func() []string {
			k := 1 + r.Intn(2)
			out := make([]string, k)
			for i := range out {
				out[i] = attrs[r.Intn(len(attrs))]
			}
			return out
		}
		for i := range fds {
			fds[i] = FD{LHS: pick(), RHS: pick()}
		}
		return fds
	}
	genSet := func(r *rand.Rand) []string {
		k := r.Intn(4)
		out := make([]string, k)
		for i := range out {
			out[i] = attrs[r.Intn(len(attrs))]
		}
		return out
	}

	r := rand.New(rand.NewSource(1))
	for i := 0; i < 300; i++ {
		fds := genFDs(r)
		x := genSet(r)
		cx := Closure(x, fds)
		if !SubsetAttrSet(x, cx) {
			t.Fatalf("extensive violated: %v not in %v", x, cx)
		}
		if !reflect.DeepEqual(Closure(cx, fds), cx) {
			t.Fatalf("idempotence violated for %v under %v", x, fds)
		}
		y := NormalizeAttrSet(append(append([]string(nil), x...), genSet(r)...))
		if !SubsetAttrSet(cx, Closure(y, fds)) {
			t.Fatalf("monotonicity violated: closure(%v) not in closure(%v)", x, y)
		}
	}
}

func TestDetermines(t *testing.T) {
	fds := enrolmentFDs()
	if !Determines([]string{"Sid"}, []string{"Sname"}, fds) {
		t.Error("Sid should determine Sname")
	}
	if Determines([]string{"Sid"}, []string{"Grade"}, fds) {
		t.Error("Sid alone should not determine Grade")
	}
	if !Determines([]string{"Sid", "Code"}, []string{"Grade", "Title", "Age"}, fds) {
		t.Error("the key should determine everything")
	}
}

func TestIsSuperkey(t *testing.T) {
	s := NewSchema("Enrolment", "Sid", "Code", "Sname", "Age INT", "Title", "Credit FLOAT", "Grade").
		Key("Sid", "Code")
	for _, fd := range enrolmentFDs() {
		s.Dep(fd.LHS, fd.RHS...)
	}
	if !IsSuperkey([]string{"Sid", "Code"}, s) {
		t.Error("(Sid, Code) is the key")
	}
	if !IsSuperkey([]string{"Sid", "Code", "Grade"}, s) {
		t.Error("supersets of keys are superkeys")
	}
	if IsSuperkey([]string{"Sid"}, s) {
		t.Error("Sid alone is not a superkey")
	}
	if IsSuperkey([]string{"Sname", "Age"}, s) {
		t.Error("non-key attributes are not a superkey")
	}
}

func TestInvertedIndex(t *testing.T) {
	db := NewDatabase("test")
	tb := db.AddSchema(studentSchema())
	tb.MustInsert("s1", "George Michael", int64(22))
	tb.MustInsert("s2", "Green", int64(24))
	idx := BuildIndex(db)

	if got := idx.lookup("george"); len(got) != 1 || !reflect.DeepEqual(got[0].rows, []int32{0}) {
		t.Errorf("token lookup: %v", got)
	}
	if got := idx.lookup("michael"); len(got) != 1 {
		t.Errorf("tokens should be lower-cased: %v", got)
	}
	if got := idx.lookup("nosuch"); got != nil {
		t.Errorf("miss should be empty: %v", got)
	}
	// Integer attributes are not indexed.
	if got := idx.lookup("22"); got != nil {
		t.Errorf("numeric attributes should not be indexed: %v", got)
	}
	// Phrase lookup requires the whole phrase to appear.
	if got := idx.PhraseFields(db, "George Michael"); len(got) != 1 || got[0].Relation != "Student" || got[0].Attr != "Sname" {
		t.Errorf("phrase hit: %v", got)
	}
	if got := idx.PhraseFields(db, "MICHAEL"); len(got) != 1 {
		t.Errorf("phrases should match case-insensitively: %v", got)
	}
	if got := idx.PhraseFields(db, "Michael George"); len(got) != 0 {
		t.Errorf("phrase order matters: %v", got)
	}
	if idx.Vocabulary() == 0 {
		t.Error("vocabulary should be non-empty")
	}
}

func TestTokenize(t *testing.T) {
	got := Tokenize("Supplier#001, royal-olive")
	want := []string{"supplier", "001", "royal", "olive"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("Tokenize: %v, want %v", got, want)
	}
}

// TestClosureQuickSubsetInvariant: adding FDs can only grow a closure.
func TestClosureQuickSubsetInvariant(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		attrs := []string{"A", "B", "C", "D"}
		var fds []FD
		for i := 0; i < r.Intn(4); i++ {
			fds = append(fds, FD{
				LHS: []string{attrs[r.Intn(4)]},
				RHS: []string{attrs[r.Intn(4)]},
			})
		}
		x := []string{attrs[r.Intn(4)]}
		before := Closure(x, fds)
		more := append(fds, FD{LHS: []string{attrs[r.Intn(4)]}, RHS: []string{attrs[r.Intn(4)]}})
		after := Closure(x, more)
		return SubsetAttrSet(before, after)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
