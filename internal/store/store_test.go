package store

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"sync"
	"testing"
	"testing/quick"

	"github.com/movesys/move/internal/model"
)

// tempStore opens a store over a fresh data directory.
func tempStore(t testing.TB) *Store {
	t.Helper()
	s, err := Open(t.TempDir(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = s.Close() })
	return s
}

// tempCF opens a column family of a store over a fresh data directory.
func tempCF(t testing.TB) *CF {
	t.Helper()
	return tempStore(t).CF("test")
}

// reopen closes s and opens its directory again, as a restart would.
func reopen(t testing.TB, s *Store) *Store {
	t.Helper()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s2, err := Open(s.dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = s2.Close() })
	return s2
}

// reopenCF reopens cf's store and returns the same column family in it.
func reopenCF(t testing.TB, cf *CF) *CF {
	t.Helper()
	return reopen(t, cf.s).CF(cf.name)
}

// rewrite rewrites s's log now, whatever its size.
func rewrite(t testing.TB, s *Store) {
	t.Helper()
	s.mu.Lock()
	err := s.rewriteLocked()
	s.mu.Unlock()
	if err != nil {
		t.Fatal(err)
	}
}

// logSize returns the size of s's log file.
func logSize(t testing.TB, s *Store) int64 {
	t.Helper()
	info, err := os.Stat(filepath.Join(s.dir, logName))
	if err != nil {
		t.Fatal(err)
	}
	return info.Size()
}

// lookup reads one key the only way the store is read: a Scan. It returns a
// copy, since Scan's slices die with the call.
func lookup(t testing.TB, cf *CF, key string) (val []byte, ok bool) {
	t.Helper()
	err := cf.Scan(func(k string, v []byte) bool {
		if k != key {
			return true
		}
		val, ok = append([]byte{}, v...), true
		return false
	})
	if err != nil {
		t.Fatalf("Scan: %v", err)
	}
	return val, ok
}

// wantValue asserts key's plain value ("" ok=false: the key is absent).
func wantValue(t testing.TB, cf *CF, key, want string, wantOK bool) {
	t.Helper()
	v, ok := lookup(t, cf, key)
	if ok != wantOK || string(v) != want {
		t.Fatalf("%q = %q, %v; want %q, %v", key, v, ok, want, wantOK)
	}
}

func must(t testing.TB, err error) {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
}

func TestPutGetDelete(t *testing.T) {
	cf := tempCF(t)
	must(t, cf.Put("k1", []byte("v1")))
	wantValue(t, cf, "k1", "v1", true)
	must(t, cf.Put("k1", []byte("v2")))
	wantValue(t, cf, "k1", "v2", true)
	must(t, cf.Delete("k1"))
	wantValue(t, cf, "k1", "", false)
	wantValue(t, cf, "never", "", false)
}

// TestNewestRecordWins: a key holds the value of its newest put, before a
// restart and after one; a delete over it holds across a restart and a
// rewrite, and a put after the delete starts the key afresh.
func TestNewestRecordWins(t *testing.T) {
	cf := tempCF(t)
	for i := 0; i < 3; i++ {
		must(t, cf.Put("k", []byte("v"+strconv.Itoa(i))))
		must(t, cf.Put("other", []byte("o"+strconv.Itoa(i))))
	}
	wantValue(t, cf, "k", "v2", true)
	cf = reopenCF(t, cf)
	wantValue(t, cf, "k", "v2", true)
	must(t, cf.Delete("k"))
	cf = reopenCF(t, cf)
	wantValue(t, cf, "k", "", false)
	wantValue(t, cf, "other", "o2", true)
}

// TestMergeTombstoneCutsHistory: a delete cuts a key's history, and the cut
// holds over a restart and a rewrite; a put after it starts the key afresh.
// (The log no longer has a merge record kind; the tombstone half stands.)
func TestMergeTombstoneCutsHistory(t *testing.T) {
	cf := tempCF(t)
	must(t, cf.Put("list", []byte("old")))
	must(t, cf.Put("other", []byte("kept")))
	must(t, cf.Delete("list"))
	wantValue(t, cf, "list", "", false)
	cf = reopenCF(t, cf)
	wantValue(t, cf, "list", "", false)
	rewrite(t, cf.s)
	wantValue(t, cf, "list", "", false)
	must(t, cf.Put("list", []byte("new")))
	wantValue(t, cf, "list", "new", true)
	cf = reopenCF(t, cf)
	wantValue(t, cf, "list", "new", true)
	must(t, cf.Delete("list"))
	must(t, cf.Put("list", []byte("newer")))
	rewrite(t, cf.s)
	cf = reopenCF(t, cf)
	wantValue(t, cf, "list", "newer", true)
	wantValue(t, cf, "other", "kept", true)
}

// TestSyncRewritesDoubledLog: a Sync that finds the log past rewriteFloor
// and doubled since its last rewrite rewrites it to its live keys, so the
// file stays within about twice them however long the overwrites go on, and
// a reopen reads every key back.
func TestSyncRewritesDoubledLog(t *testing.T) {
	cf := tempCF(t)
	val := bytes.Repeat([]byte("x"), 100)
	var max int64
	for i := 0; i < 20000; i++ {
		must(t, cf.Put("key-"+strconv.Itoa(i%100), val))
		must(t, cf.s.Sync())
		if size := logSize(t, cf.s); size > max {
			max = size
		}
	}
	if max > rewriteFloor+256 {
		t.Fatalf("the log reached %d bytes over 100 live keys, want at most the %d-byte floor and a record", max, rewriteFloor)
	}
	if size := logSize(t, cf.s); size >= max {
		t.Fatalf("the log is %d bytes, its peak: no rewrite happened", size)
	}
	cf = reopenCF(t, cf)
	for i := 0; i < 100; i++ {
		wantValue(t, cf, "key-"+strconv.Itoa(i), string(val), true)
	}
}

// TestCompact: a rewrite keeps every live key's newest value, drops deleted
// keys, and writes one record per live key.
func TestCompact(t *testing.T) {
	s := tempStore(t)
	cf := s.CF("test")
	for i := 0; i < 4; i++ {
		must(t, cf.Put("stable", []byte("s"+strconv.Itoa(i))))
		must(t, cf.Put("other", []byte("o"+strconv.Itoa(i))))
	}
	must(t, cf.Put("gone", []byte("x")))
	must(t, cf.Delete("gone"))
	before := logSize(t, s)
	rewrite(t, s)
	if after := logSize(t, s); after >= before {
		t.Fatalf("log is %d bytes after the rewrite, %d before", after, before)
	}
	s = reopen(t, s)
	if r := s.Replayed(); r.Records != 2 || r.Truncated != 0 {
		t.Fatalf("rewritten log replayed %+v, want 2 records and no cut", r)
	}
	cf = s.CF("test")
	wantValue(t, cf, "stable", "s3", true)
	wantValue(t, cf, "other", "o3", true)
	wantValue(t, cf, "gone", "", false)
}

func TestScanEarlyStop(t *testing.T) {
	cf := tempCF(t)
	for i := 0; i < 10; i++ {
		must(t, cf.Put("k"+strconv.Itoa(i), nil))
	}
	n := 0
	must(t, cf.Scan(func(string, []byte) bool {
		n++
		return n < 3
	}))
	if n != 3 {
		t.Fatalf("visited %d keys, want 3", n)
	}
}

// TestPersistenceRecovery: what was written is read back by a store opened
// on the directory — after a Close, and without one, as after kill -9 —
// and column families sharing the log keep apart.
func TestPersistenceRecovery(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{})
	must(t, err)
	cf := s.CF("data")
	other := s.CF("other")
	for i := 0; i < 50; i++ {
		must(t, cf.Put("k"+strconv.Itoa(i), []byte("v"+strconv.Itoa(i))))
	}
	must(t, other.Put("k0", []byte("elsewhere")))
	must(t, cf.Put("k0", []byte("newer")))
	must(t, cf.Delete("k1"))

	for _, closed := range []bool{false, true} {
		if closed {
			must(t, s.Close())
		}
		s2, err := Open(dir, Options{})
		must(t, err)
		if r := s2.Replayed(); r.Records != 53 || r.Bytes != logSize(t, s2) || r.Truncated != 0 {
			t.Fatalf("closed=%v: replayed %+v, want 53 records, the whole log and no cut", closed, r)
		}
		cf2 := s2.CF("data")
		wantValue(t, cf2, "k0", "newer", true)
		wantValue(t, cf2, "k1", "", false)
		wantValue(t, cf2, "k25", "v25", true)
		other2 := s2.CF("other")
		wantValue(t, other2, "k0", "elsewhere", true)
		must(t, s2.Close())
	}
}

// TestPersistenceCompactRemovesOldFiles: a rewrite leaves the log and
// nothing beside it, an unfinished one's temporary file is removed at Open,
// and what the rewrite kept reopens.
func TestPersistenceCompactRemovesOldFiles(t *testing.T) {
	s := tempStore(t)
	cf := s.CF("data")
	for i := 0; i < 3; i++ {
		must(t, cf.Put("k"+strconv.Itoa(i), []byte("v")))
		must(t, cf.Put("k"+strconv.Itoa(i), []byte("v"+strconv.Itoa(i))))
	}
	rewrite(t, s)
	must(t, cf.Put("after", []byte("a")))
	names := func() []string {
		entries, err := os.ReadDir(s.dir)
		must(t, err)
		var out []string
		for _, e := range entries {
			out = append(out, e.Name())
		}
		return out
	}
	if got := names(); !reflect.DeepEqual(got, []string{logName}) {
		t.Fatalf("files after a rewrite: %v, want [%s]", got, logName)
	}
	must(t, os.WriteFile(filepath.Join(s.dir, logName+".tmp"), []byte("half a rewrite"), 0o644))
	s = reopen(t, s)
	if got := names(); !reflect.DeepEqual(got, []string{logName}) {
		t.Fatalf("files after Open: %v, want [%s]", got, logName)
	}
	cf = s.CF("data")
	for i := 0; i < 3; i++ {
		wantValue(t, cf, "k"+strconv.Itoa(i), "v"+strconv.Itoa(i), true)
	}
	wantValue(t, cf, "after", "a", true)
}

// TestConcurrentMixedOps: writers, scans and syncs racing each other, the
// syncs rewriting the log along the way, lose nothing, and the last Sync
// covers every write.
func TestConcurrentMixedOps(t *testing.T) {
	cf := tempCF(t)
	val := bytes.Repeat([]byte("v"), 64)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				key := "w" + strconv.Itoa(w) + "-" + strconv.Itoa(i)
				if err := cf.Put(key, val); err != nil {
					t.Errorf("put: %v", err)
					return
				}
				if err := cf.Put("last-"+strconv.Itoa(w), []byte(key)); err != nil {
					t.Errorf("put: %v", err)
					return
				}
				if err := cf.s.Sync(); err != nil {
					t.Errorf("sync: %v", err)
					return
				}
				if i%50 == 0 {
					if err := cf.Scan(func(string, []byte) bool { return false }); err != nil {
						t.Errorf("scan: %v", err)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	if synced, written := cf.s.synced, cf.s.written.Load(); synced != written {
		t.Fatalf("%d of %d written bytes synced", synced, written)
	}
	cf = reopenCF(t, cf)
	n := 0
	must(t, cf.Scan(func(key string, val []byte) bool {
		if !strings.HasPrefix(key, "last-") {
			n++
		}
		return true
	}))
	if n != 8*200 {
		t.Fatalf("%d keys read back, want %d", n, 8*200)
	}
	for w := 0; w < 8; w++ {
		wantValue(t, cf, "last-"+strconv.Itoa(w), "w"+strconv.Itoa(w)+"-199", true)
	}
}

// TestPutGetRoundTripProperty: a Scan after the Puts visits exactly the
// stored values across arbitrary reopen points.
func TestPutGetRoundTripProperty(t *testing.T) {
	prop := func(pairs map[string][]byte, reopenEvery uint8) bool {
		cf := tempCF(t)
		n := 0
		for k, v := range pairs {
			if err := cf.Put(k, v); err != nil {
				return false
			}
			n++
			if reopenEvery > 0 && n%int(reopenEvery) == 0 {
				cf = reopenCF(t, cf)
			}
		}
		seen := 0
		err := cf.Scan(func(k string, got []byte) bool {
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

// TestEphemeralStoreRefusesWrites: without a data directory there is no
// log. Writes fail rather than vanish, Scan finds nothing, and Sync and
// Close have nothing to do.
func TestEphemeralStoreRefusesWrites(t *testing.T) {
	s, err := Open("", Options{})
	must(t, err)
	if s.Durable() {
		t.Fatal("a store without a directory reports Durable")
	}
	cf := s.CF("test")
	for _, err := range []error{cf.Put("k", []byte("v")), cf.Delete("k")} {
		if !errors.Is(err, errNoLog) {
			t.Fatalf("write = %v, want %v", err, errNoLog)
		}
	}
	n := 0
	must(t, cf.Scan(func(string, []byte) bool { n++; return true }))
	if n != 0 {
		t.Fatalf("Scan visited %d keys", n)
	}
	must(t, s.Sync())
	must(t, s.Close())
}

// filterRecord is a filter as the filter store hands it back: its definition
// and the terms it is posted under.
type filterRecord struct {
	f      model.Filter
	posted []string
}

// allFilters reads back every record of fs.
func allFilters(t testing.TB, fs *FilterStore) []filterRecord {
	t.Helper()
	var out []filterRecord
	must(t, fs.Each(func(f model.Filter, posted []string) bool {
		out = append(out, filterRecord{f, posted})
		return true
	}))
	return out
}

func TestFilterStoreRoundTrip(t *testing.T) {
	fs := NewFilterStore(tempStore(t))
	f := model.Filter{ID: 42, Subscriber: "alice", Terms: []string{"cloud", "storage"}, Mode: model.MatchAny}
	must(t, fs.Put(f, []string{"cloud"}))
	if got, want := allFilters(t, fs), []filterRecord{{f, []string{"cloud"}}}; !reflect.DeepEqual(got, want) {
		t.Fatalf("Each = %+v, want %+v", got, want)
	}
	must(t, fs.Delete(43))
	if got := allFilters(t, fs); len(got) != 1 {
		t.Fatalf("deleting a missing ID left %d filters, want 1", len(got))
	}
	must(t, fs.Delete(42))
	if got := allFilters(t, fs); len(got) != 0 {
		t.Fatalf("filter visible after delete: %+v", got)
	}
}

func TestFilterStoreRejectsInvalid(t *testing.T) {
	fs := NewFilterStore(tempStore(t))
	if err := fs.Put(model.Filter{ID: 1, Mode: model.MatchAny}, nil); !errors.Is(err, model.ErrNoTerms) {
		t.Fatalf("err = %v, want ErrNoTerms", err)
	}
}

func TestFilterStoreEach(t *testing.T) {
	fs := NewFilterStore(tempStore(t))
	for _, i := range []int{4, 1, 5, 3, 2} {
		must(t, fs.Put(model.Filter{ID: model.FilterID(i), Terms: []string{"t" + strconv.Itoa(i)}, Mode: model.MatchAny}, nil))
	}
	var ids []model.FilterID
	for _, r := range allFilters(t, fs) {
		ids = append(ids, r.f.ID)
	}
	if !reflect.DeepEqual(ids, []model.FilterID{1, 2, 3, 4, 5}) {
		t.Fatalf("Each visited %v, want IDs 1 to 5 in order", ids)
	}
}

// TestFilterStorePostedTerms: a record carries the terms its filter is
// posted under, however many — none is a value that ends at the mode byte —
// and its newest put holds them, across a restart and a rewrite.
func TestFilterStorePostedTerms(t *testing.T) {
	s := tempStore(t)
	fs := NewFilterStore(s)
	news := model.Filter{ID: 1, Subscriber: "a", Terms: []string{"go", "news", "rust"}, Mode: model.MatchAny}
	passive := model.Filter{ID: 2, Subscriber: "b", Terms: []string{"go", "news"}, Mode: model.MatchAll}
	gone := model.Filter{ID: 3, Subscriber: "c", Terms: []string{"x"}, Mode: model.MatchAny}
	must(t, fs.Put(news, []string{"go"}))
	must(t, fs.Put(news, []string{"go", "news", "rust"}))
	must(t, fs.Put(passive, nil))
	must(t, fs.Put(gone, []string{"x"}))
	must(t, fs.Delete(3))
	want := []filterRecord{{news, []string{"go", "news", "rust"}}, {passive, nil}}
	if v, _ := lookup(t, fs.cf, filterKey(2)); !bytes.Equal(v, passive.Encode()) {
		t.Fatalf("a filter posted under nothing is stored as %x, want its encoding %x alone", v, passive.Encode())
	}
	for _, step := range []string{"written", "reopened", "rewritten"} {
		switch step {
		case "reopened":
			s = reopen(t, s)
		case "rewritten":
			rewrite(t, s)
		}
		fs = NewFilterStore(s)
		if got := allFilters(t, fs); !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: Each = %+v, want %+v", step, got, want)
		}
	}
	if r := reopen(t, s).Replayed(); r.Records != 2 {
		t.Fatalf("the rewritten log replays %d records, want one per live filter", r.Records)
	}
}
