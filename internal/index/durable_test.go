package index

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"slices"
	"sync"
	"testing"
	"unsafe"

	"github.com/movesys/move/internal/model"
	"github.com/movesys/move/internal/store"
	"github.com/movesys/move/internal/testutil"
)

// This file pins the rule the index and the store divide memory by: a filter
// definition and a posting entry live once in the heap, in the index's
// shards; the store's log holds them on disk, each write appended as it
// happens, and the store keeps none of them in memory.

// openDurable opens (or reopens) an aggregated index over dir.
func openDurable(t testing.TB, dir string, opts store.Options) (*Index, *store.Store) {
	t.Helper()
	s, err := store.Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	ix, err := New(s)
	if err != nil {
		t.Fatal(err)
	}
	return ix, s
}

// churnFilter is a deterministic three-term MatchAll filter for id, one of
// 64 subscribers.
func churnFilter(id model.FilterID) model.Filter {
	n := int(id)
	terms := model.SortTerms([]string{
		fmt.Sprintf("t%d", n%211), fmt.Sprintf("u%d", n%97), fmt.Sprintf("v%d", n%13),
	})
	return model.Filter{ID: id, Subscriber: fmt.Sprintf("s%03d", n%64), Terms: terms, Mode: model.MatchAll}
}

// logBytes returns the size of the store's log under dir.
func logBytes(t testing.TB, dir string) int64 {
	t.Helper()
	info, err := os.Stat(filepath.Join(dir, "commit.log"))
	if err != nil {
		t.Fatal(err)
	}
	return info.Size()
}

// TestEphemeralIndexWritesNothing: no mutation of an index over a store
// without a data directory reaches the store, which refuses writes.
func TestEphemeralIndexWritesNothing(t *testing.T) {
	s, err := store.Open("", store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	ix, err := New(s)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 5000; i++ {
		f := churnFilter(model.FilterID(i))
		if err := ix.Register(f, f.Terms); err != nil {
			t.Fatal(err)
		}
	}
	for i := 1; i <= 1000; i++ {
		if err := ix.Unregister(model.FilterID(i * 5)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 1; i <= 50; i++ { // a migration batch replayed, half of it already present
		f := churnFilter(model.FilterID(4975 + i))
		if _, err := ix.EnsureRegistered(f, f.Terms); err != nil {
			t.Fatal(err)
		}
	}
	if got := ix.NumFilters(); got != 4030 {
		t.Fatalf("NumFilters = %d, want 4030", got)
	}
	n := 0
	if err := s.CF("filters").Scan(func(string, []byte) bool { n++; return true }); err != nil || n != 0 {
		t.Errorf("the filter column family holds %d keys (%v), want nothing", n, err)
	}
}

// TestEachFilterFromShards: the walk is served by the filter shards — in
// ascending ID, stopping when told to, handing out the stored definitions in
// canonical term order, or in registration order for a filter registered out
// of it — and on a durable index it visits exactly what the store's own walk
// (what EachFilter used to be) decodes, in the same order.
func TestEachFilterFromShards(t *testing.T) {
	ix, s := openDurable(t, t.TempDir(), store.Options{})
	rng := rand.New(rand.NewSource(3))
	// Every seventh filter registers its terms in reverse: out of canonical
	// order.
	registered := func(id model.FilterID) model.Filter {
		f := churnFilter(id)
		if id%7 == 0 {
			slices.Reverse(f.Terms)
		}
		return f
	}
	for _, i := range rng.Perm(3000) {
		f := registered(model.FilterID(i + 1))
		if err := ix.Register(f, f.Terms[:1]); err != nil {
			t.Fatal(err)
		}
	}
	for i := 3; i <= 3000; i += 3 {
		if err := ix.Unregister(model.FilterID(i)); err != nil {
			t.Fatal(err)
		}
	}
	var walked []model.Filter
	if err := ix.EachFilter(func(f model.Filter) bool {
		walked = append(walked, f)
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if len(walked) != 2000 || len(walked) != ix.NumFilters() {
		t.Fatalf("EachFilter visited %d filters, NumFilters %d, want 2000", len(walked), ix.NumFilters())
	}
	if !slices.IsSortedFunc(walked, func(a, b model.Filter) int { return int(a.ID) - int(b.ID) }) {
		t.Fatal("EachFilter did not visit in ascending ID order")
	}
	fs := store.NewFilterStore(s)
	var stored []model.Filter
	if err := fs.Each(func(f model.Filter, _ []string) bool {
		stored = append(stored, f)
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(walked, stored) {
		t.Fatal("EachFilter and the store's walk disagree")
	}
	for _, f := range walked {
		want := registered(f.ID)
		if !slices.Equal(f.Terms, want.Terms) {
			t.Fatalf("EachFilter spelled %d as %v, registered as %v", f.ID, f.Terms, want.Terms)
		}
		got, _, _ := ix.GetFilter(f.ID)
		if own := f.ID%7 == 0; own != (unsafe.SliceData(got.Terms) == unsafe.SliceData(f.Terms)) {
			t.Fatalf("filter %d (own order: %v): GetFilter and EachFilter share its terms: %v; want the record's own array shared, canonical terms spelled afresh",
				f.ID, own, !own)
		}
	}
	n := 0
	if err := ix.EachFilter(func(model.Filter) bool {
		n++
		return n < 7
	}); err != nil || n != 7 {
		t.Fatalf("early stop: visited %d, err %v; want 7", n, err)
	}

	// Walks racing writers: IDs 1..2999 not divisible by 3 stay put and must
	// all be seen, in order, whatever 4000.. does meanwhile.
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				f := churnFilter(model.FilterID(4000 + w*1000 + i%500))
				if err := ix.Register(f, f.Terms); err != nil {
					t.Error(err)
					return
				}
				if err := ix.Unregister(f.ID); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	for round := 0; round < 20; round++ {
		stable, last := 0, model.FilterID(0)
		if err := ix.EachFilter(func(f model.Filter) bool {
			if f.ID <= last {
				t.Errorf("ID %d visited after %d", f.ID, last)
			}
			last = f.ID
			if f.ID < 4000 {
				stable++
			}
			return true
		}); err != nil {
			t.Fatal(err)
		}
		if stable != 2000 {
			t.Fatalf("round %d: saw %d of the 2000 untouched filters", round, stable)
		}
	}
	close(stop)
	wg.Wait()
}

// TestDurableStoreReleasesFlushedSegments: what has been written is a file,
// not a heap object, and a reopen reads all of it back.
func TestDurableStoreReleasesFlushedSegments(t *testing.T) {
	const filters = 50000
	dir := t.TempDir()
	before := testutil.HeapNow()
	ix, s := openDurable(t, dir, store.Options{})
	for i := 1; i <= filters; i++ {
		f := churnFilter(model.FilterID(i))
		if err := ix.Register(f, f.Terms); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Sync(); err != nil {
		t.Fatal(err)
	}
	ix = nil // what stays reachable from here on is the store
	held := int64(testutil.HeapNow()) - int64(before)
	runtime.KeepAlive(s)
	if held > 1<<20 {
		t.Errorf("the store holds %d bytes of heap after Sync, want under 1 MiB", held)
	}
	if bytes := logBytes(t, dir); bytes == 0 {
		t.Error("nothing on disk")
	}
	re, _ := openDurable(t, dir, store.Options{})
	if got := re.NumFilters(); got != filters {
		t.Fatalf("reopened index holds %d filters, want %d", got, filters)
	}
	if got := re.NumPostings(); got != 3*filters {
		t.Fatalf("reopened index holds %d postings, want %d", got, 3*filters)
	}
}

// TestStoreBoundedUnderChurn: subscriptions that come and go over a constant
// population keep a log the size of that population, not of the operations
// performed, all the while — a Sync after each pair, as a node answers each
// frame, rewrites the log once it has doubled, dropping deletions and
// superseded records.
func TestStoreBoundedUnderChurn(t *testing.T) {
	const population, pairs = 1000, 20000
	opts := store.Options{}
	fill := func(ix *Index) {
		t.Helper()
		for i := 1; i <= population; i++ {
			f := churnFilter(model.FilterID(i))
			if err := ix.Register(f, f.Terms); err != nil {
				t.Fatal(err)
			}
		}
	}
	freshDir := t.TempDir()
	fresh, fs := openDurable(t, freshDir, opts)
	fill(fresh)
	if err := fs.Sync(); err != nil {
		t.Fatal(err)
	}
	liveBytes := logBytes(t, freshDir)

	dir := t.TempDir()
	ix, s := openDurable(t, dir, opts)
	fill(ix)
	rng := rand.New(rand.NewSource(11))
	var peak int64
	for i := 0; i < pairs; i++ {
		f := churnFilter(model.FilterID(1 + rng.Intn(population)))
		if err := ix.Unregister(f.ID); err != nil {
			t.Fatal(err)
		}
		if err := ix.Register(f, f.Terms); err != nil {
			t.Fatal(err)
		}
		if err := s.Sync(); err != nil {
			t.Fatal(err)
		}
		bytes := logBytes(t, dir)
		if bytes > 3*liveBytes {
			t.Fatalf("%d bytes on disk after %d register/unregister pairs, live set is %d", bytes, i+1, liveBytes)
		}
		peak = max(peak, bytes)
	}
	t.Logf("live set %d bytes on disk, the log peaked at %d", liveBytes, peak)

	re, _ := openDurable(t, dir, opts)
	if a, b := re.NumFilters(), ix.NumFilters(); a != b || a != population {
		t.Fatalf("NumFilters: reopened %d, live %d, want %d", a, b, population)
	}
	var live, reopened []model.Filter
	for _, side := range []struct {
		ix  *Index
		out *[]model.Filter
	}{{ix, &live}, {re, &reopened}} {
		if err := side.ix.EachFilter(func(f model.Filter) bool {
			*side.out = append(*side.out, f)
			return true
		}); err != nil {
			t.Fatal(err)
		}
	}
	if !reflect.DeepEqual(live, reopened) {
		t.Fatal("reopened definitions differ from the live ones")
	}
	for i := 0; i < 211; i++ {
		doc := &model.Document{ID: uint64(i + 1), Terms: model.SortTerms([]string{
			fmt.Sprintf("t%d", i), fmt.Sprintf("u%d", i%97), fmt.Sprintf("v%d", i%13),
		})}
		a, ast, err := ix.MatchTerms(doc, doc.Terms)
		if err != nil {
			t.Fatal(err)
		}
		b, bst, err := re.MatchTerms(doc, doc.Terms)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(matchedIDs(a), matchedIDs(b)) || ast != bst {
			t.Fatalf("doc %v: live %v %+v, reopened %v %+v", doc.Terms, matchedIDs(a), ast, matchedIDs(b), bst)
		}
	}
}

// TestSubscriberNamesShared: the stored definitions of one subscriber share
// one copy of its name — whichever path stored them — and
// what does the sharing is a fixed-size cache: a population of subscribers
// with a filter each adds nothing to it.
func TestSubscriberNamesShared(t *testing.T) {
	ix := newIndex(t)
	const subscribers, filters = 64, 6400
	for i := 1; i <= filters; i++ {
		f := anyFilter(model.FilterID(i), "a", fmt.Sprintf("t%d", i%50))
		// A private copy per registration, as a decoded frame delivers it.
		f.Subscriber = string([]byte(fmt.Sprintf("s%03d", i%subscribers)))
		var err error
		if i%2 == 0 {
			err = ix.Register(f, f.Terms)
		} else {
			_, err = ix.EnsureRegistered(f, f.Terms)
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	copies := make(map[*byte]string)
	if err := ix.EachFilter(func(f model.Filter) bool {
		if want := fmt.Sprintf("s%03d", int(f.ID)%subscribers); f.Subscriber != want {
			t.Fatalf("filter %d: subscriber %q, want %q", f.ID, f.Subscriber, want)
		}
		copies[unsafe.StringData(f.Subscriber)] = f.Subscriber
		return true
	}); err != nil {
		t.Fatal(err)
	}
	// Two names in one cache slot take turns and keep private copies; the
	// 64 names of the benchmark's populations do not collide.
	if len(copies) != subscribers {
		t.Errorf("%d filters of %d subscribers hold %d copies of their names", filters, subscribers, len(copies))
	}
	if size := unsafe.Sizeof(subCache{}); size > 80<<10 {
		t.Errorf("the subscriber cache is %d bytes, want a small constant", size)
	}
}

// TestDurableOneRecordPerFilter: a live filter is one record of the store,
// whatever it was posted under and however often: registered under k of its
// terms, re-registered under one more with the same signature, then ensured
// as a migration replay would — which adds no posting and writes nothing —
// each filter leaves one record once the log is rewritten, and the reopened
// index posts and matches as the live one does.
func TestDurableOneRecordPerFilter(t *testing.T) {
	const filters, k = 1000, 3
	dir := t.TempDir()
	ix, s := openDurable(t, dir, store.Options{})
	filter := func(i int) model.Filter {
		terms := model.SortTerms([]string{
			fmt.Sprintf("a%d", i%50), fmt.Sprintf("b%d", i%70), fmt.Sprintf("c%d", i%30), fmt.Sprintf("d%d", i%90),
		})
		return model.Filter{ID: model.FilterID(i), Subscriber: fmt.Sprintf("s%d", i%8), Terms: terms, Mode: model.MatchAny}
	}
	for i := 1; i <= filters; i++ {
		f := filter(i)
		if err := ix.Register(f, f.Terms[:k]); err != nil {
			t.Fatal(err)
		}
		if err := ix.Register(f, f.Terms[k:]); err != nil {
			t.Fatal(err)
		}
	}
	grown := logBytes(t, dir)
	for i := 1; i <= filters; i++ {
		f := filter(i)
		if created, err := ix.EnsureRegistered(f, f.Terms); err != nil || created {
			t.Fatalf("EnsureRegistered(%d) = %v, %v; want the live copy kept", i, created, err)
		}
	}
	if after := logBytes(t, dir); after != grown {
		t.Fatalf("replaying the live filters grew the log from %d to %d bytes", grown, after)
	}
	if err := s.Sync(); err != nil { // past the rewrite floor: one record per live key
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	re, rs := openDurable(t, dir, store.Options{})
	if got := rs.Replayed().Records; got != filters {
		t.Fatalf("the log holds %d records for %d live filters", got, filters)
	}
	for i := 1; i <= filters; i++ {
		f := filter(i)
		if a, b := ix.PostedUnder(f.ID, f.Terms), re.PostedUnder(f.ID, f.Terms); !slices.Equal(a, b) || len(a) != k+1 {
			t.Fatalf("filter %d: posted under %v live, %v reopened; want all %d terms", i, a, b, k+1)
		}
	}
	for i := 0; i < 90; i++ {
		doc := &model.Document{ID: uint64(i + 1), Terms: model.SortTerms([]string{fmt.Sprintf("a%d", i%50), fmt.Sprintf("d%d", i)})}
		a, ast, err := ix.MatchTerms(doc, doc.Terms)
		if err != nil {
			t.Fatal(err)
		}
		b, bst, err := re.MatchTerms(doc, doc.Terms)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(matchedIDs(a), matchedIDs(b)) || ast != bst {
			t.Fatalf("doc %v: live %v %+v, reopened %v %+v", doc.Terms, matchedIDs(a), ast, matchedIDs(b), bst)
		}
	}
}
