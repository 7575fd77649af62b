// Package node implements a MOVE server node: the RPC protocol, the §V
// internals (filter store, local inverted list, meta-data store, forwarding
// engine), and the three dissemination code paths compared in the paper —
// MOVE (allocation grids), IL (plain distributed inverted list), and RS
// (rendezvous flooding with SIFT matching).
package node

import (
	"fmt"

	"github.com/movesys/move/internal/alloc"
	"github.com/movesys/move/internal/codec"
	"github.com/movesys/move/internal/model"
	"github.com/movesys/move/internal/trace"
)

// Message types (first payload byte). Retired numbers are never reused: a
// frame from an older peer must fail as "unknown message type", not decode
// as something else.
const (
	msgRegister = 1 // register a filter with posting terms
	// 2, 3 retired: msgPublish / msgPublishLocal (per-term publish frames).
	// 4 retired: msgPublishSIFT (the RS flood sends a local msgPublish
	// routing every document term).
	msgMigrate   = 5 // install allocated filters (batch)
	msgStatsPull = 6 // coordinator statistics pull
	// 7 retired: msgInstallGrid (hard-flip grid installation).
	msgInstallBloom = 8 // install the global filter-term Bloom filter
	msgGossip       = 9 // membership digest
	// 10 retired: msgDropGrid (a restart drops the table; nothing sends it).
	// 11 retired: msgUnregister (one ID; EncodeUnregister writes a one-ID
	// msgUnregisterBatch).
	// 12, 13 retired: msgAllocate / msgAllocateTerm (hard-flip allocation
	// rounds, node-wide and per-term; a node-wide round cuts over through
	// msgPrepareAlloc, and per-term rounds are gone).
	// 14–19 retired: msgPublish{,Local}Batch, msgPublish{,Local}Multi,
	// msgPublish{,Local}MultiBatch (superseded by msgPublish).
	// 20, 21 retired: msgDeliver / msgFetch (polled mailbox tier).
	// Two-phase reallocation framing (§13): the coordinator prepares a
	// pending grid on a home node (which migrates its filters and starts
	// dual-reading), then broadcasts a commit barrier or an abort.
	msgPrepareAlloc    = 22 // prepare: migrate filters + install pending grid
	msgCommitGrid      = 23 // commit barrier: promote the pending grid
	msgAbortGrid       = 24 // abort: drop pending grid, unwind journaled migrations
	msgUnregisterBatch = 25 // filter removal: one ID, or an old-placement GC batch
	// 26 retired: msgDeliverBatch with the document always inline.
	// 27 retired: the multi-item msgPublish (document table + item list).
	// 28 retired: the one-document msgPublish that spelled the routed terms
	// out as strings beside the document that already holds them.
	// The one publish frame (§12): one document and the terms the
	// destination must match it under — as positions in the document's own
	// term list — home-routed or, with the local flag, bound for a grid node
	// that matches without re-forwarding.
	msgPublish = 29
	// 30 is msgDeliverBatch (deliver.go): routed delivery batch to the
	// session owner of each matched subscriber, the document inline or by
	// reference (§14).
)

// EncodePrepareAlloc serializes a prepare-phase reallocation command for a
// home node: migrate owned filters to their new placements and install the
// grid as pending (dual-read until commit or abort). Nothing follows the
// grid: a node refuses a prepare with trailing bytes (errScopedPrepare).
func EncodePrepareAlloc(epoch uint64, g *alloc.Grid) []byte {
	gridBytes := g.Encode()
	w := codec.NewWriter(16 + len(gridBytes))
	w.Uint8(msgPrepareAlloc)
	w.Uvarint(epoch)
	w.Bytes0(gridBytes)
	return w.Bytes()
}

// EncodeCommitGrid serializes the cutover barrier promoting epoch's
// pending grid; a no-op on nodes with no matching pending grid.
func EncodeCommitGrid(epoch uint64) []byte {
	w := codec.NewWriter(12)
	w.Uint8(msgCommitGrid)
	w.Uvarint(epoch)
	return w.Bytes()
}

// EncodeAbortGrid serializes an abort of epoch's prepare: the pending grid
// is dropped and every filter copy the epoch's migrations created is
// unregistered, restoring the pre-prepare state.
func EncodeAbortGrid(epoch uint64) []byte {
	w := codec.NewWriter(12)
	w.Uint8(msgAbortGrid)
	w.Uvarint(epoch)
	return w.Bytes()
}

// EncodeUnregisterBatch serializes a batched filter removal — the
// coordinator's old-placement GC drops all of a node's stale copies in one
// frame.
func EncodeUnregisterBatch(ids []model.FilterID) []byte {
	w := codec.NewWriter(8 + 8*len(ids))
	w.Uint8(msgUnregisterBatch)
	w.Uvarint(uint64(len(ids)))
	for _, id := range ids {
		w.Uvarint(uint64(id))
	}
	return w.Bytes()
}

func decodeUnregisterBatch(r *codec.Reader) ([]model.FilterID, error) {
	n, err := r.Uvarint()
	if err != nil {
		return nil, err
	}
	if n > uint64(r.Remaining()) {
		return nil, fmt.Errorf("node: unregister batch count %d overflows payload", n)
	}
	ids := make([]model.FilterID, 0, n)
	for i := uint64(0); i < n; i++ {
		v, err := r.Uvarint()
		if err != nil {
			return nil, err
		}
		ids = append(ids, model.FilterID(v))
	}
	return ids, nil
}

// Match is one (filter, subscriber) hit returned by a match RPC.
type Match struct {
	Filter     model.FilterID
	Subscriber string
}

// --- Register ---

// RegisterReq registers one filter; PostingTerms is the subset of the
// filter's terms this node must build posting lists for (§III.B: the home
// node of t builds only t's posting list) — its share. A MatchAll filter is
// stored only where the share holds its key term (handleRegister).
type RegisterReq struct {
	Filter       model.Filter
	PostingTerms []string
}

// EncodeRegister serializes a RegisterReq.
func EncodeRegister(req RegisterReq) []byte {
	w := codec.NewWriter(64)
	w.Uint8(msgRegister)
	req.Filter.EncodeTo(w)
	w.StringSlice(req.PostingTerms)
	return w.Bytes()
}

func decodeRegister(r *codec.Reader) (RegisterReq, error) {
	var req RegisterReq
	f, err := model.DecodeFilter(r)
	if err != nil {
		return req, err
	}
	req.Filter = f
	if req.PostingTerms, err = r.StringSlice(); err != nil {
		return req, err
	}
	return req, nil
}

// --- Publish ---

// appendPublishFrame encodes the publish frame into w: type byte, local
// flag, the document, and the terms the destination must match it under. On
// a home-routed frame those are the document terms whose home the
// destination is; with local set they are the terms whose grids route the
// document through the destination, which matches and never re-forwards.
// The answer is a plain MatchResp.
//
// The routed terms are the document's, so each is sent as a uvarint: its
// position in doc.Terms plus one, or 0 and then the string for a term the
// document does not hold. Home groups are in document order, so the search
// for each position starts where the last one ended (trace.IndexFrom) and the
// whole list costs one walk of the document; a list that is not in order
// wraps around.
func appendPublishFrame(w *codec.Writer, local bool, doc *model.Document, terms []string) {
	w.Uint8(msgPublish)
	w.Bool(local)
	doc.EncodeTo(w)
	w.Uvarint(uint64(len(terms)))
	next := 0
	for _, t := range terms {
		pos := trace.IndexFrom(doc.Terms, next, t)
		if pos < 0 {
			w.Uvarint(0)
			w.String(t)
			continue
		}
		w.Uvarint(uint64(pos) + 1)
		next = pos + 1
	}
}

// boundedCap caps a wire-declared element count by what the unread bytes can
// hold at minBytes per element, so a short frame cannot force a
// preallocation many times its own size.
func boundedCap(n uint64, r *codec.Reader, minBytes int) int {
	return int(min(n, uint64(r.Remaining()/minBytes)))
}

// decodePublishFrame parses a publish frame after its type byte. The routed
// terms it returns are the decoded document's own strings (only a term the
// document does not hold is allocated). Bytes left over after the term list
// refuse the frame: it is one document, not a prefix of something longer.
func decodePublishFrame(r *codec.Reader) (local bool, doc model.Document, terms []string, err error) {
	if local, err = r.Bool(); err != nil {
		return false, doc, nil, err
	}
	if doc, err = model.DecodeDocument(r); err != nil {
		return false, doc, nil, err
	}
	n, err := r.Uvarint()
	if err != nil {
		return false, doc, nil, err
	}
	if n > uint64(r.Remaining()) {
		// Each routed term takes at least one byte (its position).
		return false, doc, nil, fmt.Errorf("node: publish frame: %d routed terms in %d bytes: %w", n, r.Remaining(), codec.ErrOverflow)
	}
	if n > 0 {
		terms = make([]string, n)
	}
	for i := range terms {
		ref, err := r.Uvarint()
		if err != nil {
			return false, doc, nil, err
		}
		switch {
		case ref == 0:
			if terms[i], err = r.String(); err != nil {
				return false, doc, nil, err
			}
		case ref <= uint64(len(doc.Terms)):
			terms[i] = doc.Terms[ref-1]
		default:
			return false, doc, nil, fmt.Errorf("node: publish frame: term position %d past the document's %d term(s)", ref-1, len(doc.Terms))
		}
	}
	if r.Remaining() != 0 {
		return false, doc, nil, fmt.Errorf("node: publish frame: %d trailing byte(s) after the term list", r.Remaining())
	}
	// Prime the document's memoized term-set view while this goroutine still
	// exclusively owns the decode (prime-before-share, model.Document.View):
	// every term's match evaluation shares it.
	doc.View()
	return local, doc, terms, nil
}

// EncodeSIFT serializes the RS flood's full-match request: a local publish
// frame routing every document term, so the node runs the SIFT matcher
// (MatchTerms over all of them) and never re-forwards.
func EncodeSIFT(doc *model.Document) []byte {
	w := codec.NewWriter(32 + 13*len(doc.Terms))
	appendPublishFrame(w, true, doc, doc.Terms)
	return w.Bytes()
}

// MatchResp is the result of any match RPC.
type MatchResp struct {
	Matches []Match
	// PostingsScanned is the matching cost incurred serving this request,
	// in posting entries (the y_p unit of the §IV cost model).
	PostingsScanned int
	// PostingLists is the number of posting lists retrieved.
	PostingLists int
	// Degraded is true when some grid columns had no live replica in any
	// partition row, so Matches may be missing that slice of the filter
	// set (§VI.D availability under failure).
	Degraded bool
	// ColumnsLost counts the grid columns whose filters could not be
	// matched by any row.
	ColumnsLost int
	// Hops is the publish-path trace recorded while serving this request
	// (the grid hops a home node took), carried back to the entry node so
	// the end-to-end span sees the full path even over TCP.
	Hops []trace.Hop
}

// EncodeMatchResp serializes the answer to a request that routed terms (nil
// for one that named none, the SIFT flood): the hop list refers to them by
// position (trace.AppendHops). The frame is built in a pooled writer and
// returned as an exact-size copy — one allocation whatever it carries — since
// the response crosses the Handler ownership boundary and cannot itself be
// pooled (DESIGN.md §11).
func EncodeMatchResp(resp MatchResp, terms []string) []byte {
	w := codec.GetWriter()
	w.Uvarint(uint64(len(resp.Matches)))
	for _, m := range resp.Matches {
		w.Uvarint(uint64(m.Filter))
		w.String(m.Subscriber)
	}
	w.Uvarint(uint64(resp.PostingsScanned))
	w.Uvarint(uint64(resp.PostingLists))
	w.Bool(resp.Degraded)
	w.Uvarint(uint64(resp.ColumnsLost))
	trace.AppendHops(w, resp.Hops, terms)
	out := make([]byte, w.Len())
	copy(out, w.Bytes())
	codec.PutWriter(w)
	return out
}

// DecodeMatchResp parses the answer to a request that routed terms — the list
// EncodeMatchResp was given on the other side, or nil.
func DecodeMatchResp(data []byte, terms []string) (MatchResp, error) {
	r := codec.NewReader(data)
	var resp MatchResp
	n, err := r.Uvarint()
	if err != nil {
		return resp, fmt.Errorf("node: match count: %w", err)
	}
	if n > uint64(r.Remaining()) {
		return resp, fmt.Errorf("node: match count %d overflows payload", n)
	}
	// A match is at least 2 bytes on the wire (filter ID + name length).
	resp.Matches = make([]Match, 0, boundedCap(n, r, 2))
	for i := uint64(0); i < n; i++ {
		id, err := r.Uvarint()
		if err != nil {
			return resp, err
		}
		sub, err := r.String()
		if err != nil {
			return resp, err
		}
		resp.Matches = append(resp.Matches, Match{Filter: model.FilterID(id), Subscriber: sub})
	}
	scanned, err := r.Uvarint()
	if err != nil {
		return resp, err
	}
	lists, err := r.Uvarint()
	if err != nil {
		return resp, err
	}
	resp.PostingsScanned = int(scanned)
	resp.PostingLists = int(lists)
	if resp.Degraded, err = r.Bool(); err != nil {
		return resp, err
	}
	lost, err := r.Uvarint()
	if err != nil {
		return resp, err
	}
	resp.ColumnsLost = int(lost)
	if resp.Hops, err = trace.DecodeHops(r, terms); err != nil {
		return resp, err
	}
	return resp, nil
}

// --- Migrate ---

// MigrateReq installs a batch of allocated filters on a grid node.
type MigrateReq struct {
	Entries []RegisterReq
	// Epoch tags the allocation round the batch belongs to.
	Epoch uint64
}

// EncodeMigrate serializes a MigrateReq.
func EncodeMigrate(req MigrateReq) []byte {
	w := codec.NewWriter(64 * (1 + len(req.Entries)))
	AppendMigrate(w, req)
	return w.Bytes()
}

// AppendMigrate is EncodeMigrate writing into a caller-supplied (typically
// pooled) writer.
func AppendMigrate(w *codec.Writer, req MigrateReq) {
	w.Uint8(msgMigrate)
	w.Uvarint(req.Epoch)
	w.Uvarint(uint64(len(req.Entries)))
	for _, e := range req.Entries {
		e.Filter.EncodeTo(w)
		w.StringSlice(e.PostingTerms)
	}
}

func decodeMigrate(r *codec.Reader) (MigrateReq, error) {
	var req MigrateReq
	epoch, err := r.Uvarint()
	if err != nil {
		return req, err
	}
	req.Epoch = epoch
	n, err := r.Uvarint()
	if err != nil {
		return req, err
	}
	if n > uint64(r.Remaining()) {
		return req, fmt.Errorf("node: migrate count %d overflows payload", n)
	}
	// An entry is at least 13 bytes on the wire (filter + posting-term count).
	req.Entries = make([]RegisterReq, 0, boundedCap(n, r, 13))
	for i := uint64(0); i < n; i++ {
		f, err := model.DecodeFilter(r)
		if err != nil {
			return req, err
		}
		terms, err := r.StringSlice()
		if err != nil {
			return req, err
		}
		req.Entries = append(req.Entries, RegisterReq{Filter: f, PostingTerms: terms})
	}
	return req, nil
}

// --- Stats ---

// StatsResp is the per-node statistics snapshot the coordinator aggregates
// into node popularity p'_i and node frequency q'_i (§V).
type StatsResp struct {
	// Filters is the number of filter definitions stored (incl. replicas) —
	// the storage cost of Figure 9(a).
	Filters int64
	// Postings is the number of (term, filter) posting entries of the
	// filters stored — an unregistered filter's leave with it.
	Postings int64
	// DocsProcessed is the number of match frames served. A publish frame
	// carries all of a document's terms bound for this node, so this counts
	// document arrivals, not routed terms.
	DocsProcessed int64
	// TermsMatched is the number of term match evaluations served — the
	// matching cost basis of Figure 9(b). Unlike DocsProcessed it is
	// invariant to how terms are framed into RPCs: a k-term arrival charges
	// k whether it came as one coalesced frame or k per-term frames.
	TermsMatched int64
	// PostingsScanned is the cumulative matching work in posting entries.
	PostingsScanned int64
	// PostingLists is the cumulative number of posting-list retrievals
	// (the y_seek unit of the cost model).
	PostingLists int64
	// HomePublishes counts home-node document arrivals (one per home-routed
	// publish frame), the numerator of the node frequency q'_i.
	HomePublishes int64
}

// EncodeStatsResp serializes a StatsResp.
func EncodeStatsResp(s StatsResp) []byte {
	w := codec.NewWriter(56)
	w.Uvarint(uint64(s.Filters))
	w.Uvarint(uint64(s.Postings))
	w.Uvarint(uint64(s.DocsProcessed))
	w.Uvarint(uint64(s.TermsMatched))
	w.Uvarint(uint64(s.PostingsScanned))
	w.Uvarint(uint64(s.PostingLists))
	w.Uvarint(uint64(s.HomePublishes))
	return w.Bytes()
}

// DecodeStatsResp parses a StatsResp.
func DecodeStatsResp(data []byte) (StatsResp, error) {
	r := codec.NewReader(data)
	var s StatsResp
	vals := make([]int64, 7)
	for i := range vals {
		v, err := r.Uvarint()
		if err != nil {
			return s, fmt.Errorf("node: stats field %d: %w", i, err)
		}
		vals[i] = int64(v)
	}
	s.Filters, s.Postings, s.DocsProcessed, s.TermsMatched, s.PostingsScanned, s.PostingLists, s.HomePublishes =
		vals[0], vals[1], vals[2], vals[3], vals[4], vals[5], vals[6]
	return s, nil
}

// EncodeStatsPull builds a statistics pull request.
func EncodeStatsPull() []byte { return []byte{msgStatsPull} }

// --- Bloom install / gossip ---

// EncodeInstallBloom serializes a Bloom-filter installation.
func EncodeInstallBloom(bloomBytes []byte) []byte {
	w := codec.NewWriter(8 + len(bloomBytes))
	w.Uint8(msgInstallBloom)
	w.Bytes0(bloomBytes)
	return w.Bytes()
}

// EncodeGossip wraps a gossip digest.
func EncodeGossip(digest []byte) []byte {
	w := codec.NewWriter(8 + len(digest))
	w.Uint8(msgGossip)
	w.Bytes0(digest)
	return w.Bytes()
}

// EncodeUnregister serializes a filter removal: a one-ID unregister batch.
func EncodeUnregister(id model.FilterID) []byte {
	return EncodeUnregisterBatch([]model.FilterID{id})
}
