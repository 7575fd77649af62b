package index

import (
	"sort"
	"strings"
	"sync"
)

// termDict is the index's node-local term dictionary: every
// term a registered filter names, or is posted under, gets a dense uint32
// ID on first sight, and everything below Register/Unregister/Match* speaks
// those IDs — covers are keyed and evaluated by them, posting lists are
// found by them, and a document is reduced to a set of them once per match
// call. The dictionary is also where term strings live: it keeps one copy
// per distinct term, covers name it by ID and the rare definition with its
// own term order aliases it, so a term shared by ten thousand filters costs
// its bytes once.
//
// IDs are local to the node and the process: nothing on the wire or in the
// store carries them, and a restarted node assigns fresh ones while it
// reloads. They are never reclaimed — the dictionary is bounded by the
// number of distinct filter terms ever registered on the node, not by the
// live filter count (DESIGN.md §11). A match reads the dictionary and
// writes nothing to it.
type termDict struct {
	mu    sync.RWMutex
	ids   map[string]uint32
	terms []string
}

// noTerm marks a term the dictionary has never seen: no filter names it,
// so it can neither select a posting list nor satisfy a predicate.
const noTerm = ^uint32(0)

func newTermDict() *termDict {
	return &termDict{ids: make(map[string]uint32)}
}

// intern returns term's ID, assigning the next dense one on first sight.
func (d *termDict) intern(term string) uint32 {
	if id := d.lookup(term); id != noTerm {
		return id
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if id, ok := d.ids[term]; ok {
		return id
	}
	// Clone: the caller's string may alias a decode buffer many times its
	// size, and the dictionary outlives every caller.
	term = strings.Clone(term)
	id := uint32(len(d.terms))
	d.terms = append(d.terms, term)
	d.ids[term] = id
	return id
}

// own returns the dictionary's copy of term, interning it if need be.
func (d *termDict) own(term string) string {
	id := d.intern(term)
	d.mu.RLock()
	defer d.mu.RUnlock()
	return d.terms[id]
}

// canonical spells ids into a fresh slice of dictionary-owned strings in
// canonical (string-sorted) order. ids must be distinct.
func (d *termDict) canonical(ids []uint32) []string {
	out := make([]string, len(ids))
	d.mu.RLock()
	for i, id := range ids {
		out[i] = d.terms[id]
	}
	d.mu.RUnlock()
	sort.Strings(out)
	return out
}

// term returns the term with ID id.
func (d *termDict) term(id uint32) string {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return d.terms[id]
}

// lookup returns term's ID, or noTerm.
func (d *termDict) lookup(term string) uint32 {
	d.mu.RLock()
	id, ok := d.ids[term]
	d.mu.RUnlock()
	if !ok {
		return noTerm
	}
	return id
}

// size returns the number of IDs assigned.
func (d *termDict) size() int {
	d.mu.RLock()
	n := len(d.terms)
	d.mu.RUnlock()
	return n
}

// subCache makes the stored definitions of one subscriber share one copy of
// its name: a node holds many filters per subscriber, and a name decoded
// from a frame or a segment would otherwise be a private string per filter.
// It is a fixed-size direct-mapped cache, not a table. Subscribers, unlike
// terms, come and go without bound, and an exact table — an entry per
// distinct name, counted and dropped with the subscriber's last filter —
// costs about 100 heap bytes per subscriber, several times the name it saves
// when a subscriber holds one or two filters (at 1 M single-filter
// subscribers it added half again to the aggregated index). The cache costs
// 64 KiB whatever the population: names that hash to the same slot take turns
// and the loser keeps a private copy, nothing else.
type subCache struct {
	stripes [DefaultShards]struct {
		mu    sync.Mutex
		names [subCacheSlots]string
	}
}

// subCacheSlots is the number of names one stripe remembers (32 stripes).
const subCacheSlots = 128

// share returns a copy of name that other definitions of the subscriber may
// already hold.
func (c *subCache) share(name string) string {
	if name == "" {
		return ""
	}
	h := fnv1a(name)
	st := &c.stripes[h&shardMask]
	slot := &st.names[(h>>shardBits)%subCacheSlots]
	st.mu.Lock()
	defer st.mu.Unlock()
	if *slot != name {
		*slot = strings.Clone(name)
	}
	return *slot
}
