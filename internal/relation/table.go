package relation

import (
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
)

// Tuple is one row of a table; Tuple[i] is the value of Schema.Attributes[i].
type Tuple []Value

// Clone returns a copy of the tuple.
func (t Tuple) Clone() Tuple { return append(Tuple(nil), t...) }

// Table is an in-memory relation instance: a schema plus its tuples.
type Table struct {
	Schema *Schema
	Tuples []Tuple

	mu      sync.Mutex                  // guards hashIdx builds on unfrozen tables
	frozen  bool                        // set by Freeze; rejects further inserts
	hashIdx map[string]map[string][]int // attr (lower) -> formatted value -> row ids

	// Dictionary encoding, built by Freeze and immutable afterwards: one
	// dictionary per attribute, the flat row-major array of encoded tuples
	// (row i, attribute j at i*len(dicts)+j), the column-major transpose of
	// the same IDs (one contiguous ColData per attribute, for the batch
	// kernels), and per-attribute postings mapping each dictionary ID to its
	// ascending row ids (the frozen value index, replacing the
	// formatted-string hashIdx).
	dicts []*Dict
	enc   []uint32
	cols  []ColData
	post  []postings

	// tailClaimed marks that one delta table (see ExtendFrozen) has taken
	// ownership of this frozen table's spare backing capacity: the first
	// delta built from a frozen base may append new rows in place beyond the
	// base's slice lengths (addresses old-epoch readers never touch), but a
	// second delta from the same base — a branch — must copy instead, so
	// siblings never race on the same spare capacity. One-shot.
	tailClaimed atomic.Bool
}

// NewTable creates an empty table with the given schema.
func NewTable(s *Schema) *Table { return &Table{Schema: s} }

// Insert appends a tuple after checking its arity. Values must already have
// the declared types; use InsertRow for string coercion. Frozen tables (see
// Freeze) reject inserts.
func (t *Table) Insert(tu Tuple) error {
	if t.frozen {
		return fmt.Errorf("relation: %s is frozen (opened for keyword search); inserts are rejected", t.Schema.Name)
	}
	if len(tu) != len(t.Schema.Attributes) {
		return fmt.Errorf("relation: %s expects %d values, got %d",
			t.Schema.Name, len(t.Schema.Attributes), len(tu))
	}
	t.Tuples = append(t.Tuples, tu)
	t.hashIdx = nil
	return nil
}

// AppendShared bulk-appends already-typed tuple batches to an unfrozen
// table, sharing the tuples by reference — the epoch rebuild in core.Live
// re-inserts the previous epoch's rows this way (tuples are immutable by
// convention, so epochs may share them). The backing array is allocated
// once for all batches; arity is checked per tuple, and nothing is
// appended on error. Frozen tables reject the append, like Insert.
func (t *Table) AppendShared(batches ...[]Tuple) error {
	if t.frozen {
		return fmt.Errorf("relation: %s is frozen (opened for keyword search); inserts are rejected", t.Schema.Name)
	}
	total := len(t.Tuples)
	for _, b := range batches {
		total += len(b)
		for _, tu := range b {
			if len(tu) != len(t.Schema.Attributes) {
				return fmt.Errorf("relation: %s expects %d values, got %d",
					t.Schema.Name, len(t.Schema.Attributes), len(tu))
			}
		}
	}
	out := make([]Tuple, 0, total)
	out = append(out, t.Tuples...)
	for _, b := range batches {
		out = append(out, b...)
	}
	t.Tuples = out
	t.hashIdx = nil
	return nil
}

// Freeze makes the table immutable: subsequent Insert/InsertRow calls return
// an error, every column is dictionary-encoded (each distinct value gets a
// dense uint32 ID, with the encoded tuples stored row-major alongside the
// boxed ones), and the per-attribute value index is built eagerly over the
// IDs so that Lookup never mutates shared state again. After Freeze the
// table is safe for unsynchronized concurrent readers.
func (t *Table) Freeze() {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.frozen {
		return
	}
	t.frozen = true
	ncols := len(t.Schema.Attributes)
	t.dicts = make([]*Dict, ncols)
	for j := range t.dicts {
		t.dicts[j] = newDict()
	}
	t.enc = make([]uint32, len(t.Tuples)*ncols)
	for i, tu := range t.Tuples {
		for j, v := range tu {
			t.enc[i*ncols+j] = t.dicts[j].encode(v)
		}
	}
	t.cols = make([]ColData, ncols)
	if ncols > 0 {
		ids := make([]uint32, len(t.Tuples)*ncols) // one backing array for all columns
		for j := range t.cols {
			// The three-index slice clamps each column's capacity to its own
			// length: the columns share one backing array, so an in-place
			// delta append (ExtendFrozen) must see cap==len here and copy
			// the column privately instead of growing into its neighbor.
			col := ids[j*len(t.Tuples) : (j+1)*len(t.Tuples) : (j+1)*len(t.Tuples)]
			for i := range t.Tuples {
				col[i] = t.enc[i*ncols+j]
			}
			t.cols[j].IDs = col
		}
		for i, tu := range t.Tuples {
			for j, v := range tu {
				if Null(v) {
					if t.cols[j].Nulls == nil {
						t.cols[j].Nulls = make([]uint64, (len(t.Tuples)+63)/64)
					}
					t.cols[j].Nulls[i>>6] |= 1 << (uint(i) & 63)
				}
			}
		}
	}
	t.post = make([]postings, ncols)
	for j := range t.post {
		t.post[j] = buildPostings(t.enc, ncols, j, t.dicts[j].Len())
	}
	t.hashIdx = nil // the ID postings replace the formatted-string index
}

// Encoding exposes the frozen table's dictionary encoding: the per-attribute
// dictionaries and the flat row-major ID array (row i, attribute j at
// i*len(dicts)+j). ok is false until the table has been frozen; the returned
// slices are immutable shared state — read only.
func (t *Table) Encoding() (dicts []*Dict, ids []uint32, ok bool) {
	if !t.frozen {
		return nil, nil, false
	}
	return t.dicts, t.enc, true
}

// Col exposes attribute j's column-major encoding: its dictionary IDs stored
// contiguously plus the null bitset (see ColData). nil until the table has
// been frozen or when j is out of range; the returned data is immutable
// shared state — read only.
func (t *Table) Col(j int) *ColData {
	if !t.frozen || j < 0 || j >= len(t.cols) {
		return nil
	}
	return &t.cols[j]
}

// Frozen reports whether the table has been frozen.
func (t *Table) Frozen() bool { return t.frozen }

// buildIdxLocked builds the hash index of one attribute; t.mu must be held.
func (t *Table) buildIdxLocked(key string) map[string][]int {
	if t.hashIdx == nil {
		t.hashIdx = make(map[string]map[string][]int)
	}
	if idx, ok := t.hashIdx[key]; ok {
		return idx
	}
	j := t.Schema.AttrIndex(key)
	if j < 0 {
		return nil
	}
	idx := make(map[string][]int)
	for i, tu := range t.Tuples {
		idx[Format(tu[j])] = append(idx[Format(tu[j])], i)
	}
	t.hashIdx[key] = idx
	return idx
}

// MustInsert is Insert but panics on arity mismatch; intended for dataset
// builders whose shapes are fixed at compile time.
func (t *Table) MustInsert(vals ...Value) {
	if err := t.Insert(Tuple(vals)); err != nil {
		panic(err)
	}
}

// InsertRow coerces the string fields to the declared attribute types and
// appends the resulting tuple.
func (t *Table) InsertRow(fields ...string) error {
	if len(fields) != len(t.Schema.Attributes) {
		return fmt.Errorf("relation: %s expects %d fields, got %d",
			t.Schema.Name, len(t.Schema.Attributes), len(fields))
	}
	tu := make(Tuple, len(fields))
	for i, f := range fields {
		v, err := Coerce(f, t.Schema.Attributes[i].Type)
		if err != nil {
			return fmt.Errorf("relation: %s.%s: %w", t.Schema.Name, t.Schema.Attributes[i].Name, err)
		}
		tu[i] = v
	}
	return t.Insert(tu)
}

// Len returns the number of tuples.
func (t *Table) Len() int { return len(t.Tuples) }

// Value returns the value of the named attribute in row i.
func (t *Table) Value(i int, attr string) Value {
	j := t.Schema.AttrIndex(attr)
	if j < 0 {
		return nil
	}
	return t.Tuples[i][j]
}

// Lookup returns the row ids (ascending) whose attribute formats equally to
// v. On frozen tables the lookup goes through the attribute's dictionary
// (value to ID, then the ID's postings) without locking or string building
// for the common constant types; on mutable tables a formatted-string index
// is built lazily under the table's mutex, so concurrent lookups stay safe.
func (t *Table) Lookup(attr string, v Value) []int {
	key := strings.ToLower(attr)
	if t.frozen {
		j := t.Schema.AttrIndex(key)
		if j < 0 {
			return nil
		}
		id, ok := t.dicts[j].ID(v)
		if !ok {
			return nil
		}
		return t.post[j].rows(id)
	}
	t.mu.Lock()
	idx := t.buildIdxLocked(key)
	t.mu.Unlock()
	return idx[Format(v)]
}

// KeyOf returns the primary-key values of row i, formatted and joined, used
// to identify distinct objects during pattern disambiguation.
func (t *Table) KeyOf(i int) string {
	parts := make([]string, len(t.Schema.PrimaryKey))
	for j, k := range t.Schema.PrimaryKey {
		parts[j] = Format(t.Value(i, k))
	}
	return strings.Join(parts, "\x1f")
}

// Project returns a new table with the named attributes; when distinct is
// true, duplicate projected tuples are removed. The projected table's key is
// the full attribute list (it is only used as an intermediate result).
func (t *Table) Project(attrs []string, distinct bool) (*Table, error) {
	idxs := make([]int, len(attrs))
	out := NewSchema(t.Schema.Name)
	for i, a := range attrs {
		j := t.Schema.AttrIndex(a)
		if j < 0 {
			return nil, fmt.Errorf("relation: %s has no attribute %q", t.Schema.Name, a)
		}
		idxs[i] = j
		out.Attributes = append(out.Attributes, t.Schema.Attributes[j])
	}
	out.PrimaryKey = append([]string(nil), attrs...)
	res := NewTable(out)
	seen := make(map[string]bool)
	for _, tu := range t.Tuples {
		row := make(Tuple, len(idxs))
		for i, j := range idxs {
			row[i] = tu[j]
		}
		if distinct {
			k := formatRow(row)
			if seen[k] {
				continue
			}
			seen[k] = true
		}
		res.Tuples = append(res.Tuples, row)
	}
	return res, nil
}

func formatRow(tu Tuple) string {
	parts := make([]string, len(tu))
	for i, v := range tu {
		parts[i] = Format(v)
	}
	return strings.Join(parts, "\x1f")
}

// Database is a named collection of tables with stable iteration order.
type Database struct {
	Name   string
	tables map[string]*Table
	order  []string
}

// NewDatabase creates an empty database.
func NewDatabase(name string) *Database {
	return &Database{Name: name, tables: make(map[string]*Table)}
}

// Add registers a table, replacing any table with the same name.
func (db *Database) Add(t *Table) {
	key := strings.ToLower(t.Schema.Name)
	if _, ok := db.tables[key]; !ok {
		db.order = append(db.order, key)
	}
	db.tables[key] = t
}

// AddSchema registers an empty table for the schema and returns it.
func (db *Database) AddSchema(s *Schema) *Table {
	t := NewTable(s)
	db.Add(t)
	return t
}

// Table returns the named table (case-insensitive) or nil.
func (db *Database) Table(name string) *Table {
	return db.tables[strings.ToLower(name)]
}

// Tables returns all tables in registration order.
func (db *Database) Tables() []*Table {
	out := make([]*Table, 0, len(db.order))
	for _, k := range db.order {
		out = append(out, db.tables[k])
	}
	return out
}

// Schemas returns all table schemas in registration order.
func (db *Database) Schemas() []*Schema {
	out := make([]*Schema, 0, len(db.order))
	for _, k := range db.order {
		out = append(out, db.tables[k].Schema)
	}
	return out
}

// Freeze freezes every table of the database (see Table.Freeze): inserts are
// rejected and all per-attribute value indexes are built eagerly. Called when
// a database is opened for keyword search; afterwards the database is safe
// for unsynchronized concurrent readers.
func (db *Database) Freeze() {
	for _, t := range db.Tables() {
		t.Freeze()
	}
}

// Frozen reports whether the database has been frozen.
func (db *Database) Frozen() bool {
	for _, t := range db.Tables() {
		if !t.Frozen() {
			return false
		}
	}
	return len(db.order) > 0
}

// Stats returns a one-line tuple-count summary, useful in CLIs and examples.
func (db *Database) Stats() string {
	parts := make([]string, 0, len(db.order))
	for _, t := range db.Tables() {
		parts = append(parts, fmt.Sprintf("%s=%d", t.Schema.Name, t.Len()))
	}
	return strings.Join(parts, " ")
}
