package relation

import (
	"strconv"
	"sync"
	"sync/atomic"
)

// NoID is the sentinel dictionary ID meaning "no such value"; it is returned
// by remapping tables for values absent from the target dictionary. Real IDs
// are dense from 0, so NoID can never collide with one.
const NoID = ^uint32(0)

// remapCacheMax bounds the number of remap tables cached per dictionary.
// Long-lived delta chains reuse base dictionaries across many epochs; without
// a cap every epoch's partner dictionaries would pin a translation table (and
// the partner itself) forever.
const remapCacheMax = 128

// Dict is a per-column value dictionary: every distinct stored value gets a
// dense uint32 ID. Distinctness is by the value's Format rendering — the same
// equality the executor's historical string-keyed hash paths used — so two
// values share an ID exactly when their formatted forms are equal (notably,
// SQL NULL shares an ID with the literal string "NULL", and int64(5) with
// "5"; callers that must distinguish them re-check the boxed value, exactly
// as the string-keyed paths did).
//
// A Dict is built while freezing a table and never mutated afterwards, so it
// is safe for unsynchronized concurrent readers.
//
// Dictionaries grow across live-ingest epochs as deltas: Extend returns a new
// Dict layering a private tail (IDs from base.Len() up) over the immutable
// base, so committing M new rows interns only their unseen values instead of
// re-encoding the whole column. ID assignment is identical to a from-scratch
// build of the full data — both intern in row order, and the base's IDs are a
// prefix by construction — which is what keeps delta-built epochs
// byte-identical to full freezes.
type Dict struct {
	base   *Dict             // previous layer, nil for a full build
	start  uint32            // first ID owned by this layer (== base.Len())
	ids    map[string]uint32 // Format(v) -> id, this layer's tail only
	vals   []Value           // id start+i -> first value encoded with that id
	allStr bool              // every encoded value (all layers) was a string
	remaps sync.Map          // *Dict -> []uint32 translation tables (see RemapCached)
	remapN atomic.Int32      // cached remap tables, capped at remapCacheMax
}

func newDict() *Dict { return &Dict{ids: make(map[string]uint32), allStr: true} }

// Extend returns a new dictionary sharing this one as its immutable base:
// encode on the result interns unseen values into a private tail starting at
// d.Len(), leaving d untouched (old-epoch readers keep using it
// concurrently). Once the tail is encoded, seal bounds the layer chain.
func (d *Dict) Extend() *Dict {
	return &Dict{
		base:   d,
		start:  uint32(d.Len()),
		ids:    make(map[string]uint32),
		allStr: d.allStr,
	}
}

// seal bounds the layer chain of a freshly encoded delta before it is
// published: while the top layer holds at least half as many values as the
// layer below it, the two are merged into one fresh layer (the shared lower
// layer is left as it is). Layer sizes therefore at least double going down
// the chain, so a lookup walks O(log(Len)) layers, and, like a binary
// counter, a merge copies only the recent tails: the layer a full build made
// is copied only once the tails above it have grown to half its size.
func (d *Dict) seal() *Dict {
	for d.base != nil && 2*len(d.vals) >= len(d.base.vals) {
		d = mergeLayers(d.base, d)
	}
	return d
}

// mergeLayers returns one layer holding lo's values followed by hi's, over
// lo's base, with the same ID assignment. Keys live in exactly one layer, so
// the maps merge without re-rendering any value.
func mergeLayers(lo, hi *Dict) *Dict {
	m := &Dict{
		base:   lo.base,
		start:  lo.start,
		ids:    make(map[string]uint32, len(lo.ids)+len(hi.ids)),
		vals:   make([]Value, 0, len(lo.vals)+len(hi.vals)),
		allStr: hi.allStr,
	}
	m.vals = append(append(m.vals, lo.vals...), hi.vals...)
	for k, id := range lo.ids {
		m.ids[k] = id
	}
	for k, id := range hi.ids {
		m.ids[k] = id
	}
	return m
}

// tailLen returns the number of values interned into this layer alone; a
// delta layer with an empty tail encoded nothing new, so callers may keep
// using the base dictionary (preserving pointer identity and its remap
// caches across epochs).
func (d *Dict) tailLen() int { return len(d.vals) }

// encode interns v and returns its ID, assigning the next dense ID to a
// formatted form not seen before (in this layer or any base layer).
func (d *Dict) encode(v Value) uint32 {
	if _, ok := v.(string); !ok {
		d.allStr = false
	}
	key := Format(v)
	for e := d; e != nil; e = e.base {
		if id, ok := e.ids[key]; ok {
			return id
		}
	}
	id := d.start + uint32(len(d.vals))
	d.ids[key] = id
	d.vals = append(d.vals, v)
	return id
}

// ID returns the dictionary ID of v, matching by Format rendering; ok is
// false when no stored value formats equally. The common constant types
// (string, int64) avoid allocating the rendering.
func (d *Dict) ID(v Value) (uint32, bool) {
	switch x := v.(type) {
	case string:
		for e := d; e != nil; e = e.base {
			if id, ok := e.ids[x]; ok {
				return id, true
			}
		}
		return 0, false
	case int64:
		var buf [20]byte
		b := strconv.AppendInt(buf[:0], x, 10)
		for e := d; e != nil; e = e.base {
			if id, ok := e.ids[string(b)]; ok {
				return id, true
			}
		}
		return 0, false
	}
	key := Format(v)
	for e := d; e != nil; e = e.base {
		if id, ok := e.ids[key]; ok {
			return id, true
		}
	}
	return 0, false
}

// Len returns the number of distinct (by Format) values in the dictionary,
// across all layers.
func (d *Dict) Len() int { return int(d.start) + len(d.vals) }

// Value decodes an ID back to a stored value: the first value that was
// encoded with that ID. IDs come from the same dictionary's encode/ID.
func (d *Dict) Value(id uint32) Value {
	e := d
	for e.base != nil && id < e.start {
		e = e.base
	}
	return e.vals[id-e.start]
}

// AllStrings reports whether every encoded value was a string. Kernels that
// evaluate a predicate once per dictionary entry instead of once per row
// (e.g. CONTAINS) require this: with mixed types one ID can cover values of
// different dynamic types, and the per-entry answer would be wrong for some
// of its rows.
func (d *Dict) AllStrings() bool { return d.allStr }

// Remap builds a translation table from this dictionary's ID space into
// to's: out[id] is the ID in to of the value this dictionary stores under
// id, or NoID when to has no value with that formatted form. Hash joins use
// it to probe a build table keyed in another column's ID space with O(1) per
// row after O(distinct) setup.
func (d *Dict) Remap(to *Dict) []uint32 {
	out := make([]uint32, d.Len())
	for e := d; e != nil; e = e.base {
		for i, v := range e.vals {
			tid, ok := to.ID(v)
			if !ok {
				tid = NoID
			}
			out[int(e.start)+i] = tid
		}
	}
	return out
}

// RemapCached is Remap with the translation table cached on d per target
// dictionary. Frozen dictionaries are immutable, so a table computed once is
// valid forever; joins between the same column pair — the common case across
// a keyword query's top-k interpretations — pay the O(distinct) build once.
// Safe for concurrent use; a duplicated build is benign. The cache is capped
// (base dictionaries outlive many epochs' partners); past the cap the table
// is computed uncached.
func (d *Dict) RemapCached(to *Dict) []uint32 {
	if v, ok := d.remaps.Load(to); ok {
		return v.([]uint32)
	}
	if d.remapN.Load() >= remapCacheMax {
		return d.Remap(to)
	}
	m, loaded := d.remaps.LoadOrStore(to, d.Remap(to))
	if !loaded {
		d.remapN.Add(1)
	}
	return m.([]uint32)
}
