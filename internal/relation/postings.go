package relation

// postPage is the number of dictionary IDs per postings page. An epoch delta
// copies the page headers (distinct/postPage of them) and every page it
// touches (postPage list headers each); 32 keeps both small for 100-row
// commits into columns with tens of thousands of distinct values.
const postPage = 32

// postings is one column's frozen value index: the ascending row ids of
// every dictionary ID, ID id at page id/postPage, slot id%postPage. Every
// page but the last is full. Pages are immutable once published, so an
// epoch delta shares the pages it does not touch with its base instead of
// copying one list header per distinct value.
type postings [][][]int

// buildPostings indexes n dictionary IDs over the encoded rows of column j.
func buildPostings(enc []uint32, ncols, j, n int) postings {
	flat := make([][]int, n)
	for i := j; i < len(enc); i += ncols {
		id := enc[i]
		flat[id] = append(flat[id], i/ncols)
	}
	p := make(postings, (n+postPage-1)/postPage)
	for k := range p {
		lo, hi := k*postPage, min((k+1)*postPage, n)
		p[k] = flat[lo:hi:hi]
	}
	return p
}

// rows returns the row ids of dictionary ID id, nil when it has none.
func (p postings) rows(id uint32) []int {
	k := int(id / postPage)
	if k >= len(p) {
		return nil
	}
	page := p[k]
	if i := int(id % postPage); i < len(page) {
		return page[i]
	}
	return nil
}

// extendPostings returns base's postings over n dictionary IDs with new row
// n0+i appended to the list of ID ids[i*ncols+j], for each new row i. Only
// the touched pages are copied. Under claim a touched list is extended in
// place past its base length (old-epoch readers never look there).
// Without it every page is copied with each list's capacity clamped to its
// length, so neither this epoch nor a later delta built on it writes into
// spare capacity the sibling that holds the claim owns. touched counts the
// lists that received rows.
func extendPostings(base postings, ids []uint32, ncols, j, n0, n int, claim bool) (p postings, touched int) {
	p = make(postings, (n+postPage-1)/postPage)
	copy(p, base)
	copied := make([]bool, len(p))
	if !claim {
		for k := range p {
			p[k] = copyPage(p[k], min(postPage, n-k*postPage), true)
			copied[k] = true
		}
	}
	for i, m := 0, len(ids)/ncols; i < m; i++ {
		id := ids[i*ncols+j]
		k, s := int(id/postPage), int(id%postPage)
		if !copied[k] {
			p[k] = copyPage(p[k], min(postPage, n-k*postPage), false)
			copied[k] = true
		}
		page := p[k]
		if len(page[s]) == len(base.rows(id)) {
			touched++
		}
		page[s] = append(page[s], n0+i)
	}
	return p, touched
}

// copyPage returns a private copy of page, size slots long; with clamp each
// list's capacity is cut to its length, so appending to it copies.
func copyPage(page [][]int, size int, clamp bool) [][]int {
	out := make([][]int, size)
	copy(out, page)
	if clamp {
		for s, l := range out {
			out[s] = l[:len(l):len(l)]
		}
	}
	return out
}
