package store

import (
	"bytes"
	"errors"
	"fmt"
	"reflect"
	"strconv"
	"sync"
	"testing"
	"testing/quick"

	"github.com/movesys/move/internal/model"
)

// tempCF opens a column family over a fresh data directory: flushes write
// segment files, reads go through Scan.
func tempCF(t testing.TB, opts Options) *CF {
	t.Helper()
	s, err := Open(t.TempDir(), opts)
	if err != nil {
		t.Fatal(err)
	}
	cf, err := s.CF("test")
	if err != nil {
		t.Fatal(err)
	}
	return cf
}

// lookup reads one key the only way the store is read: a Scan. It returns
// copies, since Scan's slices die with the call.
func lookup(t testing.TB, cf *CF, key string) (val []byte, ops [][]byte, ok bool) {
	t.Helper()
	err := cf.Scan(key, func(k string, v []byte, o [][]byte) bool {
		if k != key {
			return true
		}
		val, ok = append([]byte{}, v...), true
		for _, op := range o {
			ops = append(ops, append([]byte{}, op...))
		}
		return false
	})
	if err != nil {
		t.Fatalf("Scan(%q): %v", key, err)
	}
	return val, ops, ok
}

// wantValue asserts key's plain value ("" ok=false: the key is absent).
func wantValue(t testing.TB, cf *CF, key, want string, wantOK bool) {
	t.Helper()
	v, _, ok := lookup(t, cf, key)
	if ok != wantOK || string(v) != want {
		t.Fatalf("%q = %q, %v; want %q, %v", key, v, ok, want, wantOK)
	}
}

// wantOps asserts key's merge operands, oldest first.
func wantOps(t testing.TB, cf *CF, key string, want ...string) {
	t.Helper()
	_, ops, _ := lookup(t, cf, key)
	got := make([]string, len(ops))
	for i, op := range ops {
		got[i] = string(op)
	}
	if len(got) != len(want) || (len(want) > 0 && !reflect.DeepEqual(got, want)) {
		t.Fatalf("%q operands = %q, want %q", key, got, want)
	}
}

func TestPutGetDelete(t *testing.T) {
	cf := tempCF(t, Options{})
	if err := cf.Put("k1", []byte("v1")); err != nil {
		t.Fatal(err)
	}
	wantValue(t, cf, "k1", "v1", true)
	if err := cf.Put("k1", []byte("v2")); err != nil {
		t.Fatal(err)
	}
	wantValue(t, cf, "k1", "v2", true)
	if err := cf.Delete("k1"); err != nil {
		t.Fatal(err)
	}
	wantValue(t, cf, "k1", "", false)
	wantValue(t, cf, "never", "", false)
}

func TestGetSurvivesFlush(t *testing.T) {
	cf := tempCF(t, Options{})
	if err := cf.Put("k", []byte("v")); err != nil {
		t.Fatal(err)
	}
	if err := cf.Flush(); err != nil {
		t.Fatal(err)
	}
	if st := cf.Stats(); st.MemKeys != 0 || st.Segments != 1 {
		t.Fatalf("stats after flush = %+v, want the value on disk only", st)
	}
	wantValue(t, cf, "k", "v", true)
	// Tombstone over a flushed value.
	if err := cf.Delete("k"); err != nil {
		t.Fatal(err)
	}
	if err := cf.Flush(); err != nil {
		t.Fatal(err)
	}
	wantValue(t, cf, "k", "", false)
}

func TestNewestSegmentWins(t *testing.T) {
	cf := tempCF(t, Options{})
	for i := 0; i < 3; i++ {
		if err := cf.Put("k", []byte("v"+strconv.Itoa(i))); err != nil {
			t.Fatal(err)
		}
		if err := cf.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	wantValue(t, cf, "k", "v2", true)
}

func TestMergeAcrossFlushes(t *testing.T) {
	cf := tempCF(t, Options{})
	for i := 0; i < 5; i++ {
		if err := cf.Append("list", []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
		if i == 1 || i == 3 {
			if err := cf.Flush(); err != nil {
				t.Fatal(err)
			}
		}
	}
	wantOps(t, cf, "list", "\x00", "\x01", "\x02", "\x03", "\x04")
}

func TestMergeTombstoneCutsHistory(t *testing.T) {
	cf := tempCF(t, Options{})
	if err := cf.Append("list", []byte("old")); err != nil {
		t.Fatal(err)
	}
	if err := cf.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := cf.Delete("list"); err != nil {
		t.Fatal(err)
	}
	if err := cf.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := cf.Append("list", []byte("new")); err != nil {
		t.Fatal(err)
	}
	wantOps(t, cf, "list", "new")
	// The same with the tombstone still in the memtable when the append
	// lands on it, and no tombstone on disk to fall back on: the flushed
	// history must stay cut, before and after the memtable itself is flushed.
	if err := cf.Compact(); err != nil {
		t.Fatal(err)
	}
	if err := cf.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := cf.Delete("list"); err != nil {
		t.Fatal(err)
	}
	if err := cf.Append("list", []byte("newer")); err != nil {
		t.Fatal(err)
	}
	wantOps(t, cf, "list", "newer")
	if err := cf.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := cf.Append("list", []byte("newest")); err != nil {
		t.Fatal(err)
	}
	wantOps(t, cf, "list", "newer", "newest")
}

func TestAutoFlushAtThreshold(t *testing.T) {
	cf := tempCF(t, Options{FlushAt: 256})
	for i := 0; i < 100; i++ {
		if err := cf.Put("key-"+strconv.Itoa(i), []byte("0123456789")); err != nil {
			t.Fatal(err)
		}
	}
	st := cf.Stats()
	if st.Segments == 0 {
		t.Fatal("no auto flush happened")
	}
	if st.Segments >= compactAt {
		t.Fatalf("%d segments: flushing did not compact at %d", st.Segments, compactAt)
	}
	for i := 0; i < 100; i++ {
		wantValue(t, cf, "key-"+strconv.Itoa(i), "0123456789", true)
	}
}

func TestCompact(t *testing.T) {
	cf := tempCF(t, Options{})
	for i := 0; i < 4; i++ {
		if err := cf.Put("stable", []byte("s"+strconv.Itoa(i))); err != nil {
			t.Fatal(err)
		}
		// Two operands a layer: their order inside it must survive the merge.
		for _, op := range []string{"a", "b"} {
			if err := cf.Append("list", []byte(op+strconv.Itoa(i))); err != nil {
				t.Fatal(err)
			}
		}
		if err := cf.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	if err := cf.Put("gone", []byte("x")); err != nil {
		t.Fatal(err)
	}
	if err := cf.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := cf.Delete("gone"); err != nil {
		t.Fatal(err)
	}
	if err := cf.Flush(); err != nil {
		t.Fatal(err)
	}

	if err := cf.Compact(); err != nil {
		t.Fatal(err)
	}
	st := cf.Stats()
	if st.Segments != 1 {
		t.Fatalf("segments after compact = %d, want 1", st.Segments)
	}
	wantValue(t, cf, "stable", "s3", true)
	wantValue(t, cf, "gone", "", false)
	wantOps(t, cf, "list", "a0", "b0", "a1", "b1", "a2", "b2", "a3", "b3")
}

func TestScanPrefix(t *testing.T) {
	cf := tempCF(t, Options{})
	for _, k := range []string{"a:1", "a:2", "b:1", "a:3"} {
		if err := cf.Put(k, []byte(k)); err != nil {
			t.Fatal(err)
		}
	}
	if err := cf.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := cf.Delete("a:2"); err != nil {
		t.Fatal(err)
	}
	var got []string
	if err := cf.Scan("a:", func(key string, val []byte, _ [][]byte) bool {
		got = append(got, key)
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, []string{"a:1", "a:3"}) {
		t.Fatalf("Scan = %v, want [a:1 a:3]", got)
	}
}

func TestScanEarlyStop(t *testing.T) {
	cf := tempCF(t, Options{})
	for i := 0; i < 10; i++ {
		if err := cf.Put("k"+strconv.Itoa(i), nil); err != nil {
			t.Fatal(err)
		}
	}
	n := 0
	if err := cf.Scan("", func(string, []byte, [][]byte) bool {
		n++
		return n < 3
	}); err != nil {
		t.Fatal(err)
	}
	if n != 3 {
		t.Fatalf("visited %d keys, want 3", n)
	}
}

func TestPersistenceRecovery(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	cf, err := s.CF("data")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		if err := cf.Put("k"+strconv.Itoa(i), []byte("v"+strconv.Itoa(i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := cf.Append("plist", []byte("op1")); err != nil {
		t.Fatal(err)
	}
	if err := cf.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := cf.Append("plist", []byte("op2")); err != nil {
		t.Fatal(err)
	}
	if err := cf.Put("k0", []byte("newer")); err != nil {
		t.Fatal(err)
	}
	if err := s.FlushAll(); err != nil {
		t.Fatal(err)
	}

	// Reopen from disk.
	s2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	cf2, err := s2.CF("data")
	if err != nil {
		t.Fatal(err)
	}
	if st := cf2.Stats(); st.MemKeys != 0 || st.Segments != 2 {
		t.Fatalf("recovered stats = %+v, want two listed segments and nothing loaded", st)
	}
	wantValue(t, cf2, "k0", "newer", true)
	wantValue(t, cf2, "k25", "v25", true)
	wantOps(t, cf2, "plist", "op1", "op2")
}

func TestPersistenceCompactRemovesOldFiles(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	cf, err := s.CF("data")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := cf.Put(fmt.Sprintf("k%d", i), []byte("v")); err != nil {
			t.Fatal(err)
		}
		if err := cf.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	if err := cf.Compact(); err != nil {
		t.Fatal(err)
	}
	s2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	cf2, err := s2.CF("data")
	if err != nil {
		t.Fatal(err)
	}
	if st := cf2.Stats(); st.Segments != 1 || st.SegmentBytes == 0 {
		t.Fatalf("recovered stats = %+v, want 1 segment", st)
	}
	for i := 0; i < 3; i++ {
		wantValue(t, cf2, fmt.Sprintf("k%d", i), "v", true)
	}
}

func TestConcurrentMixedOps(t *testing.T) {
	cf := tempCF(t, Options{FlushAt: 1 << 10})
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				key := "w" + strconv.Itoa(w) + "-" + strconv.Itoa(i)
				if err := cf.Put(key, []byte(key)); err != nil {
					t.Errorf("put: %v", err)
					return
				}
				if err := cf.Append("shared-list", []byte(key)); err != nil {
					t.Errorf("append: %v", err)
					return
				}
				if i%50 == 0 {
					if err := cf.Scan(key, func(string, []byte, [][]byte) bool { return false }); err != nil {
						t.Errorf("scan: %v", err)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	if _, ops, _ := lookup(t, cf, "shared-list"); len(ops) != 8*200 {
		t.Fatalf("shared list has %d ops, want %d", len(ops), 8*200)
	}
	if st := cf.Stats(); st.Segments == 0 || st.Segments >= compactAt {
		t.Fatalf("stats = %+v, want 1..%d segments", st, compactAt-1)
	}
}

// TestPutGetRoundTripProperty: a Scan after the Puts visits exactly the
// stored values across arbitrary flush points.
func TestPutGetRoundTripProperty(t *testing.T) {
	prop := func(pairs map[string][]byte, flushEvery uint8) bool {
		cf := tempCF(t, Options{})
		n := 0
		for k, v := range pairs {
			if err := cf.Put(k, v); err != nil {
				return false
			}
			n++
			if flushEvery > 0 && n%int(flushEvery) == 0 {
				if err := cf.Flush(); err != nil {
					return false
				}
			}
		}
		seen := 0
		err := cf.Scan("", func(k string, got []byte, _ [][]byte) bool {
			v, ok := pairs[k]
			if ok && bytes.Equal(got, v) {
				seen++
			}
			return true
		})
		return err == nil && seen == len(pairs)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestFilterStoreRoundTrip(t *testing.T) {
	s, err := Open("", Options{})
	if err != nil {
		t.Fatal(err)
	}
	fs, err := NewFilterStore(s)
	if err != nil {
		t.Fatal(err)
	}
	f := model.Filter{ID: 42, Subscriber: "alice", Terms: []string{"cloud", "storage"}, Mode: model.MatchAny}
	if err := fs.Put(f); err != nil {
		t.Fatal(err)
	}
	all := func() []model.Filter {
		t.Helper()
		var out []model.Filter
		if err := fs.Each(func(f model.Filter) bool {
			out = append(out, f)
			return true
		}); err != nil {
			t.Fatal(err)
		}
		return out
	}
	if got := all(); !reflect.DeepEqual(got, []model.Filter{f}) {
		t.Fatalf("Each = %+v, want [%+v]", got, f)
	}
	if err := fs.Delete(43); err != nil {
		t.Fatal(err)
	}
	if got := all(); len(got) != 1 {
		t.Fatalf("deleting a missing ID left %d filters, want 1", len(got))
	}
	if err := fs.Delete(42); err != nil {
		t.Fatal(err)
	}
	if got := all(); len(got) != 0 {
		t.Fatalf("filter visible after delete: %+v", got)
	}
}

func TestFilterStoreRejectsInvalid(t *testing.T) {
	s, err := Open("", Options{})
	if err != nil {
		t.Fatal(err)
	}
	fs, err := NewFilterStore(s)
	if err != nil {
		t.Fatal(err)
	}
	if err := fs.Put(model.Filter{ID: 1, Mode: model.MatchAny}); !errors.Is(err, model.ErrNoTerms) {
		t.Fatalf("err = %v, want ErrNoTerms", err)
	}
}

func TestFilterStoreEach(t *testing.T) {
	s, err := Open("", Options{})
	if err != nil {
		t.Fatal(err)
	}
	fs, err := NewFilterStore(s)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 5; i++ {
		f := model.Filter{ID: model.FilterID(i), Terms: []string{"t" + strconv.Itoa(i)}, Mode: model.MatchAny}
		if err := fs.Put(f); err != nil {
			t.Fatal(err)
		}
	}
	var ids []model.FilterID
	if err := fs.Each(func(f model.Filter) bool {
		ids = append(ids, f.ID)
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if len(ids) != 5 {
		t.Fatalf("Each visited %d filters, want 5", len(ids))
	}
}

func TestPostingStore(t *testing.T) {
	s, err := Open("", Options{})
	if err != nil {
		t.Fatal(err)
	}
	ps, err := NewPostingStore(s)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 4; i++ {
		if err := ps.Add("news", model.FilterID(i)); err != nil {
			t.Fatal(err)
		}
	}
	// Duplicate registration must dedup on read.
	if err := ps.Add("news", 2); err != nil {
		t.Fatal(err)
	}
	got := make(map[string][]model.FilterID)
	if err := ps.Each(func(term string, ids []model.FilterID) bool {
		got[term] = ids
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, map[string][]model.FilterID{"news": {1, 2, 3, 4}}) {
		t.Fatalf("Each = %v, want news: [1 2 3 4]", got)
	}
}
