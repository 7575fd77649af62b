// Package model defines the data model of §III.A — documents and filters as
// term sets — together with their wire encodings. It is the shared leaf
// package of the system: stores index filters, the matcher compares term
// sets, the forwarding engine ships documents, and the public API re-exports
// these types.
package model

import (
	"errors"
	"fmt"
	"sort"
	"strconv"

	"github.com/movesys/move/internal/codec"
)

// FilterID uniquely identifies a registered filter across the cluster.
type FilterID uint64

// String renders the ID for logs.
func (id FilterID) String() string { return "f" + strconv.FormatUint(uint64(id), 10) }

// MatchMode selects the matching semantics between a document and a filter.
type MatchMode int

// Matching semantics: boolean keyword filters. The paper's default is
// boolean OR ("we say that d successfully matches f if there is a term t that
// appears inside both d and f", §III.A); AND is the conjunctive form of the
// same predicate. Either verdict depends on the filter and the document
// alone, never on which node evaluates it.
const (
	// MatchAny matches when at least one filter term occurs in the document.
	MatchAny MatchMode = iota + 1
	// MatchAll matches when every filter term occurs in the document.
	MatchAll
)

// String returns the mode name.
func (m MatchMode) String() string {
	switch m {
	case MatchAny:
		return "any"
	case MatchAll:
		return "all"
	default:
		return fmt.Sprintf("mode(%d)", int(m))
	}
}

// Filter is a registered user profile: a small set of query terms (§VI.A:
// 2–3 terms on average) plus dissemination metadata.
type Filter struct {
	ID         FilterID
	Subscriber string
	Terms      []string
	Mode       MatchMode
}

// Validation errors.
var (
	// ErrNoTerms reports a filter or document with an empty term set.
	ErrNoTerms = errors.New("model: empty term set")
	// ErrBadMode reports an unknown match mode.
	ErrBadMode = errors.New("model: invalid match mode")
)

// Validate checks structural invariants.
func (f *Filter) Validate() error {
	if len(f.Terms) == 0 {
		return fmt.Errorf("filter %s: %w", f.ID, ErrNoTerms)
	}
	switch f.Mode {
	case MatchAny, MatchAll:
	default:
		return fmt.Errorf("filter %s: %w: %v", f.ID, ErrBadMode, f.Mode)
	}
	return nil
}

// KeyTerm returns the one term a MatchAll filter is held under cluster-wide:
// a document the filter matches holds all its terms and so reaches the home of
// every one of them, and one of those homes storing the filter finds every
// match. It is a function of the filter alone — the term minimising a hash of
// (ID, term) — so a registrar, the home that stores the filter and the homes
// that decline it agree with nothing exchanged, and the filters over a popular
// term spread across their other terms' homes instead of all keying on it.
func (f *Filter) KeyTerm() string {
	key, low := "", uint64(0)
	for _, t := range f.Terms {
		// FNV-1a over the term, seeded with the ID, then a 64-bit finalizer:
		// FNV's high bits alone barely depend on a short term's last bytes,
		// and the minimum is decided by the high bits.
		h := uint64(f.ID)*0x9e3779b97f4a7c15 ^ 14695981039346656037
		for i := 0; i < len(t); i++ {
			h = (h ^ uint64(t[i])) * 1099511628211
		}
		h ^= h >> 33
		h *= 0xff51afd7ed558ccd
		h ^= h >> 33
		if key == "" || h < low || (h == low && t < key) {
			key, low = t, h
		}
	}
	return key
}

// Clone returns a deep copy (term slice included), so stores can hand out
// filters without aliasing their internals.
func (f *Filter) Clone() Filter {
	out := *f
	out.Terms = append([]string(nil), f.Terms...)
	return out
}

// Encode serializes the filter.
func (f *Filter) Encode() []byte {
	w := codec.NewWriter(32 + 16*len(f.Terms))
	f.EncodeTo(w)
	return w.Bytes()
}

// EncodeTo appends the filter to an existing writer.
func (f *Filter) EncodeTo(w *codec.Writer) {
	w.Uvarint(uint64(f.ID))
	w.String(f.Subscriber)
	w.StringSlice(f.Terms)
	w.Uint8(uint8(f.Mode))
}

// DecodeFilter parses a filter from r, which it leaves just after the mode
// byte: what follows is the caller's to read.
func DecodeFilter(r *codec.Reader) (Filter, error) {
	var f Filter
	id, err := r.Uvarint()
	if err != nil {
		return f, fmt.Errorf("model: filter id: %w", err)
	}
	f.ID = FilterID(id)
	if f.Subscriber, err = r.String(); err != nil {
		return f, fmt.Errorf("model: filter subscriber: %w", err)
	}
	if f.Terms, err = r.StringSlice(); err != nil {
		return f, fmt.Errorf("model: filter terms: %w", err)
	}
	mode, err := r.Uint8()
	if err != nil {
		return f, fmt.Errorf("model: filter mode: %w", err)
	}
	if f.Mode = MatchMode(mode); f.Mode != MatchAny && f.Mode != MatchAll {
		return f, fmt.Errorf("model: filter %s: %w: %v", f.ID, ErrBadMode, f.Mode)
	}
	return f, nil
}

// Document is a published content item represented by its deduplicated term
// set (§III.A).
//
// The struct is copied by value throughout the system; copies share the
// memoized term-set view (see View), so priming it once — as the decode
// paths do — serves every downstream match against the same document.
type Document struct {
	ID    uint64
	Terms []string

	// view memoizes the term-set view. A plain pointer rather than a
	// sync.Once/atomic: Document is copied by value everywhere, and any
	// synchronization primitive would trip `go vet`'s copylocks (and cost
	// an allocation per document). The rule instead is prime-before-share:
	// call View once while the document is still owned by one goroutine.
	view *DocView
}

// Validate checks structural invariants.
func (d *Document) Validate() error {
	if len(d.Terms) == 0 {
		return fmt.Errorf("document %d: %w", d.ID, ErrNoTerms)
	}
	return nil
}

// TermSet returns the terms as a freshly built membership set the caller
// may keep and mutate. Hot paths should use View instead, which memoizes.
func (d *Document) TermSet() map[string]struct{} {
	set := make(map[string]struct{}, len(d.Terms))
	for _, t := range d.Terms {
		set[t] = struct{}{}
	}
	return set
}

// docViewMapThreshold is the term count above which DocView backs Contains
// with a hash map instead of binary search. Binary search needs no build
// cost and ≤10 string compares even on the paper's widest WT/AP documents,
// so the map only pays for itself when one view serves very many membership
// probes — the RS baseline's SIFT scan over thousands of candidate filters.
// On the MOVE path a home node evaluates only one term's posting list per
// decoded document copy, so building a map per wire hop was the single
// largest allocation source on the publish path; the threshold is set high
// enough that routed documents stay map-free.
const docViewMapThreshold = 512

// DocView is an immutable memoized view of a document's term set: the
// canonical sorted term list plus, for wide documents, a membership map.
// Views are built once (see Document.View) and then shared read-only across
// every match evaluation of the document, so they must never be mutated.
type DocView struct {
	sorted []string
	set    map[string]struct{} // nil below docViewMapThreshold
}

// NewDocView builds a view over a term list. The slice is aliased when it
// is already in canonical (sorted, deduplicated) form and copied otherwise,
// so callers keep ownership of non-canonical input.
func NewDocView(terms []string) *DocView {
	if !termsCanonical(terms) {
		terms = SortTerms(append([]string(nil), terms...))
	}
	v := &DocView{sorted: terms}
	if len(terms) >= docViewMapThreshold {
		v.set = make(map[string]struct{}, len(terms))
		for _, t := range terms {
			v.set[t] = struct{}{}
		}
	}
	return v
}

// termsCanonical reports whether terms are strictly ascending — the
// canonical form SortTerms produces.
func termsCanonical(terms []string) bool {
	for i := 1; i < len(terms); i++ {
		if terms[i] <= terms[i-1] {
			return false
		}
	}
	return true
}

// Contains reports term membership without allocating.
func (v *DocView) Contains(t string) bool {
	if v.set != nil {
		_, ok := v.set[t]
		return ok
	}
	// Open-coded binary search: sort.SearchStrings would work, but writing
	// it out guarantees no closure reaches the heap on any toolchain.
	lo, hi := 0, len(v.sorted)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if v.sorted[mid] < t {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo < len(v.sorted) && v.sorted[lo] == t
}

// Sorted returns the canonical sorted term list. Read-only: the slice is
// shared with every holder of the view (and possibly the document itself).
func (v *DocView) Sorted() []string { return v.sorted }

// Len returns the number of distinct terms.
func (v *DocView) Len() int { return len(v.sorted) }

// View returns the document's memoized term-set view, building it on first
// use. The first call is not synchronized — prime the view while the
// document is still owned by a single goroutine (the RPC decode paths do
// this), after which copies of the Document share it freely.
func (d *Document) View() *DocView {
	if d.view == nil {
		d.view = NewDocView(d.Terms)
	}
	return d.view
}

// Encode serializes the document.
func (d *Document) Encode() []byte {
	w := codec.NewWriter(16 + 16*len(d.Terms))
	d.EncodeTo(w)
	return w.Bytes()
}

// EncodeTo appends the document to an existing writer.
func (d *Document) EncodeTo(w *codec.Writer) {
	w.Uvarint(d.ID)
	w.StringSlice(d.Terms)
}

// DecodeDocument parses a document from r.
func DecodeDocument(r *codec.Reader) (Document, error) {
	var d Document
	id, err := r.Uvarint()
	if err != nil {
		return d, fmt.Errorf("model: document id: %w", err)
	}
	d.ID = id
	if d.Terms, err = r.StringSlice(); err != nil {
		return d, fmt.Errorf("model: document terms: %w", err)
	}
	return d, nil
}

// SortTerms sorts and deduplicates a term slice in place, returning the
// (possibly shortened) slice. Term sets throughout the system are kept in
// this canonical form.
func SortTerms(terms []string) []string {
	sort.Strings(terms)
	out := terms[:0]
	var prev string
	for i, t := range terms {
		if i > 0 && t == prev {
			continue
		}
		out = append(out, t)
		prev = t
	}
	return out
}
