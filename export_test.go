package kwagg

import (
	"kwagg/internal/core"
	"kwagg/internal/relation"
)

// Test hooks for the external kwagg_test package.

// OpenRelation is Open over a database built at the relation level.
func OpenRelation(db *relation.Database, opts *Options) (*Engine, error) {
	return Open(wrapDB(db), opts)
}

// OpenLiveRelation is OpenLive over a database built at the relation level.
func OpenLiveRelation(db *relation.Database, opts *Options) (*Engine, error) {
	return OpenLive(wrapDB(db), opts)
}

// CoreLive exposes a live engine's core.Live, whose IngestTuples keeps typed
// values and NULLs that the string-coercing Ingest cannot express.
func (e *Engine) CoreLive() *core.Live { return e.live }

// SQAKSharesIndex reports whether the current epoch's SQAK baseline matches
// values against the very inverted index the semantic matcher uses.
func (e *Engine) SQAKSharesIndex() bool {
	st := e.state()
	return st.sqak.Index() == st.sys.Matcher.Index()
}
