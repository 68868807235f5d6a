package relation

import (
	"slices"
	"strings"
	"sync/atomic"
	"unicode"
)

// InvertedIndex maps lower-cased tokens to their occurrences in string-typed
// attribute values across a database. It answers the question "which
// relations / attributes / tuples does keyword t match?" (term matching,
// Section 2 of the paper).
//
// Every indexed (relation, attribute) pair is a Field, numbered in scan
// order: table registration order, then attribute declaration order. A
// token's occurrences are segments, one per field the token occurs in,
// ascending by field number; a segment holds the ascending row ids of the
// field's values that contain the token. Row ids are int32, so an
// occurrence costs 4 bytes plus its share of one segment header per
// (token, field).
type InvertedIndex struct {
	fields []Field // shared by every epoch grown from one BuildIndex

	// ids numbers the tokens; segs is indexed by token id. ids is never
	// written after the index is published: an AppendRows that meets new
	// tokens gives its result a fresh map.
	ids  map[string]int32
	segs [][]segment

	// claimed is a one-shot claim on the spare capacity of this index's
	// segment row slices, same discipline as Table.tailClaimed: the first
	// AppendRows may extend segments in place (addresses beyond their
	// lengths, which readers of this epoch never touch); any later call
	// sees the claim taken and copies instead.
	claimed atomic.Bool
}

// Field is one indexed attribute: a string- or date-typed attribute of a
// relation, by declared name.
type Field struct {
	Relation string
	Attr     string
	table    int // position in Database.Tables()
	col      int // attribute position in the table's schema
}

// segment lists the rows of one field whose values contain one token.
type segment struct {
	field int32
	rows  []int32
}

// Tokenize splits s into lower-cased alphanumeric tokens.
func Tokenize(s string) []string {
	return strings.FieldsFunc(strings.ToLower(s), func(r rune) bool {
		return !unicode.IsLetter(r) && !unicode.IsDigit(r)
	})
}

// distinctTokens is Tokenize with repeats dropped (in sorted order): a
// value contributes one occurrence per token.
func distinctTokens(s string) []string {
	toks := Tokenize(s)
	slices.Sort(toks)
	return slices.Compact(toks)
}

// indexedFields numbers db's string- and date-typed attributes in scan
// order.
func indexedFields(db *Database) []Field {
	var fs []Field
	for ti, t := range db.Tables() {
		for j, a := range t.Schema.Attributes {
			if a.Type == TypeString || a.Type == TypeDate {
				fs = append(fs, Field{Relation: t.Schema.Name, Attr: a.Name, table: ti, col: j})
			}
		}
	}
	return fs
}

// BuildIndex scans every string-typed attribute of every table in db and
// builds the inverted index over their tokens.
func BuildIndex(db *Database) *InvertedIndex {
	empty := &InvertedIndex{fields: indexedFields(db)}
	idx, _ := empty.AppendRows(db, nil)
	return idx
}

// AppendRows builds the next epoch's inverted index from this one plus only
// the rows appended since it was built: idx must equal BuildIndex over the
// prefix of db holding the first from[lower-cased table name] rows of each
// table (db has the same schema), and the result equals BuildIndex(db) —
// same segments, same row ids, same order.
//
// Appended rows have the highest row ids of their table, so every fresh
// occurrence lands at the tail of its (token, field) segment: either an
// existing segment grows at its end or a new segment is slotted in by field
// number. No occurrence is compared or moved. A segment grows in place when
// this call owns idx's one-shot capacity claim (old-epoch readers never look
// past their lengths) and into a copy otherwise. A touched token's segment
// list is rebuilt (O(fields it occurs in)); untouched ones are shared by
// reference. The cost is O(new occurrences + touched segment headers), plus
// a copy of the per-token list headers (O(vocabulary), a memory copy) and,
// only when new tokens appear, of the token map. Returns the number of
// touched tokens; when no new row contains any token the index itself is
// returned.
func (idx *InvertedIndex) AppendRows(db *Database, from map[string]int) (*InvertedIndex, int) {
	tables := db.Tables()
	fresh := make(map[string]int32) // tokens idx has never seen -> new ids
	touched := make(map[int32][]segment)
	var order []int32 // touched ids in first-touch order
	for f, fd := range idx.fields {
		t := tables[fd.table]
		for i := from[strings.ToLower(t.Schema.Name)]; i < len(t.Tuples); i++ {
			s, ok := t.Tuples[i][fd.col].(string)
			if !ok {
				continue
			}
			for _, tok := range distinctTokens(s) {
				id, ok := idx.ids[tok]
				if !ok {
					if id, ok = fresh[tok]; !ok {
						id = int32(len(idx.segs) + len(fresh))
						fresh[tok] = id
					}
				}
				segs, seen := touched[id]
				if !seen {
					order = append(order, id)
				}
				if n := len(segs); n > 0 && segs[n-1].field == int32(f) {
					segs[n-1].rows = append(segs[n-1].rows, int32(i))
				} else {
					segs = append(segs, segment{field: int32(f), rows: []int32{int32(i)}})
				}
				touched[id] = segs
			}
		}
	}
	if len(order) == 0 {
		return idx, 0
	}
	claim := idx.claimed.CompareAndSwap(false, true)
	out := &InvertedIndex{fields: idx.fields, ids: idx.ids}
	out.segs = make([][]segment, len(idx.segs)+len(fresh))
	copy(out.segs, idx.segs)
	if !claim {
		// A sibling owns idx's spare capacity. Clamp every shared segment
		// so that no descendant of this index ever extends into it.
		for id, segs := range out.segs[:len(idx.segs)] {
			out.segs[id] = clampSegments(segs)
		}
	}
	for _, id := range order {
		out.segs[id] = appendSegments(out.segs[id], touched[id], claim)
	}
	switch {
	case len(idx.ids) == 0:
		out.ids = fresh
	case len(fresh) > 0:
		out.ids = make(map[string]int32, len(idx.ids)+len(fresh))
		for tok, id := range idx.ids {
			out.ids[tok] = id
		}
		for tok, id := range fresh {
			out.ids[tok] = id
		}
	}
	return out, len(order)
}

// appendSegments returns old (one token's segments) extended with news (the
// same token's fresh segments, ascending by field, rows beyond old's):
// matching fields grow at the tail — in place when inPlace, else into a
// copy — and new fields are slotted in by number. old itself is never
// written.
func appendSegments(old, news []segment, inPlace bool) []segment {
	if len(old) == 0 {
		return news
	}
	out := make([]segment, 0, len(old)+len(news))
	i := 0
	for _, n := range news {
		for i < len(old) && old[i].field < n.field {
			out = append(out, old[i])
			i++
		}
		if i == len(old) || old[i].field != n.field {
			out = append(out, n)
			continue
		}
		rows := old[i].rows
		if !inPlace {
			rows = rows[:len(rows):len(rows)]
		}
		out = append(out, segment{field: n.field, rows: append(rows, n.rows...)})
		i++
	}
	return append(out, old[i:]...)
}

// clampSegments returns segs with every row slice's capacity cut to its
// length, copying the header list only when some capacity was spare.
func clampSegments(segs []segment) []segment {
	var out []segment
	for k, s := range segs {
		if cap(s.rows) == len(s.rows) {
			continue
		}
		if out == nil {
			out = slices.Clone(segs)
		}
		out[k].rows = s.rows[:len(s.rows):len(s.rows)]
	}
	if out == nil {
		return segs
	}
	return out
}

// lookup returns the segments of one lower-cased token.
func (idx *InvertedIndex) lookup(tok string) []segment {
	id, ok := idx.ids[tok]
	if !ok {
		return nil
	}
	return idx.segs[id]
}

// PhraseFields returns the fields, in scan order, holding at least one value
// that contains the whole phrase (case-insensitively): the segments of the
// phrase's first token, each checked against the stored values until one
// contains the phrase. db supplies the values and must be the database the
// index was built over (or a later epoch of it).
func (idx *InvertedIndex) PhraseFields(db *Database, phrase string) []Field {
	toks := Tokenize(phrase)
	if len(toks) == 0 {
		return nil
	}
	segs := idx.lookup(toks[0])
	if len(segs) == 0 {
		return nil
	}
	needle := strings.ToLower(phrase)
	tables := db.Tables()
	var out []Field
	for _, s := range segs {
		f := idx.fields[s.field]
		t := tables[f.table]
		for _, r := range s.rows {
			if v, ok := t.Tuples[r][f.col].(string); ok && strings.Contains(strings.ToLower(v), needle) {
				out = append(out, f)
				break
			}
		}
	}
	return out
}

// Vocabulary returns the number of distinct tokens indexed.
func (idx *InvertedIndex) Vocabulary() int { return len(idx.ids) }
