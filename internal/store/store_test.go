package store

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
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
// restart and after one, and a delete over it holds across a restart.
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

// TestMergeAcrossReopens: a merge key collects its operands oldest first
// across restarts and rewrites.
func TestMergeAcrossReopens(t *testing.T) {
	cf := tempCF(t)
	for i := 0; i < 5; i++ {
		must(t, cf.Append("list", []byte{byte(i)}))
		switch i {
		case 1:
			cf = reopenCF(t, cf)
		case 3:
			rewrite(t, cf.s)
		}
	}
	wantOps(t, cf, "list", "\x00", "\x01", "\x02", "\x03", "\x04")
	cf = reopenCF(t, cf)
	wantOps(t, cf, "list", "\x00", "\x01", "\x02", "\x03", "\x04")
}

func TestMergeTombstoneCutsHistory(t *testing.T) {
	cf := tempCF(t)
	must(t, cf.Append("list", []byte("old")))
	must(t, cf.Delete("list"))
	must(t, cf.Append("list", []byte("new")))
	wantOps(t, cf, "list", "new")
	// The cut holds over a restart and a rewrite, and what comes after it
	// appends as before.
	cf = reopenCF(t, cf)
	wantOps(t, cf, "list", "new")
	rewrite(t, cf.s)
	must(t, cf.Delete("list"))
	must(t, cf.Append("list", []byte("newer")))
	wantOps(t, cf, "list", "newer")
	cf = reopenCF(t, cf)
	must(t, cf.Append("list", []byte("newest")))
	wantOps(t, cf, "list", "newer", "newest")
	// A put over merge operands supersedes them too.
	must(t, cf.Put("list", []byte("plain")))
	cf = reopenCF(t, cf)
	wantValue(t, cf, "list", "plain", true)
	wantOps(t, cf, "list")
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

// TestCompact: a rewrite keeps every live key's newest value and every merge
// key's operands in order, drops deleted keys, and writes one record per
// live key.
func TestCompact(t *testing.T) {
	s := tempStore(t)
	cf := s.CF("test")
	for i := 0; i < 4; i++ {
		must(t, cf.Put("stable", []byte("s"+strconv.Itoa(i))))
		for _, op := range []string{"a", "b"} {
			must(t, cf.Append("list", []byte(op+strconv.Itoa(i))))
		}
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
	wantValue(t, cf, "gone", "", false)
	wantOps(t, cf, "list", "a0", "b0", "a1", "b1", "a2", "b2", "a3", "b3")
}

func TestScanPrefix(t *testing.T) {
	cf := tempCF(t)
	for _, k := range []string{"a:1", "a:2", "b:1", "a:3"} {
		must(t, cf.Put(k, []byte(k)))
	}
	must(t, cf.Delete("a:2"))
	var got []string
	must(t, cf.Scan("a:", func(key string, val []byte, _ [][]byte) bool {
		got = append(got, key)
		return true
	}))
	if !reflect.DeepEqual(got, []string{"a:1", "a:3"}) {
		t.Fatalf("Scan = %v, want [a:1 a:3]", got)
	}
}

func TestScanEarlyStop(t *testing.T) {
	cf := tempCF(t)
	for i := 0; i < 10; i++ {
		must(t, cf.Put("k"+strconv.Itoa(i), nil))
	}
	n := 0
	must(t, cf.Scan("", func(string, []byte, [][]byte) bool {
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
	must(t, cf.Append("plist", []byte("op1")))
	must(t, other.Put("k0", []byte("elsewhere")))
	must(t, cf.Append("plist", []byte("op2")))
	must(t, cf.Put("k0", []byte("newer")))
	must(t, cf.Delete("k1"))

	for _, closed := range []bool{false, true} {
		if closed {
			must(t, s.Close())
		}
		s2, err := Open(dir, Options{})
		must(t, err)
		if r := s2.Replayed(); r.Records != 55 || r.Bytes != logSize(t, s2) || r.Truncated != 0 {
			t.Fatalf("closed=%v: replayed %+v, want 55 records, the whole log and no cut", closed, r)
		}
		cf2 := s2.CF("data")
		wantValue(t, cf2, "k0", "newer", true)
		wantValue(t, cf2, "k1", "", false)
		wantValue(t, cf2, "k25", "v25", true)
		wantOps(t, cf2, "plist", "op1", "op2")
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
				if err := cf.Append("shared-list", []byte(key)); err != nil {
					t.Errorf("append: %v", err)
					return
				}
				if err := cf.s.Sync(); err != nil {
					t.Errorf("sync: %v", err)
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
	if synced, written := cf.s.synced, cf.s.written.Load(); synced != written {
		t.Fatalf("%d of %d written bytes synced", synced, written)
	}
	cf = reopenCF(t, cf)
	if _, ops, _ := lookup(t, cf, "shared-list"); len(ops) != 8*200 {
		t.Fatalf("shared list has %d ops, want %d", len(ops), 8*200)
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
	for _, err := range []error{cf.Put("k", []byte("v")), cf.Delete("k"), cf.Append("list", []byte("op"))} {
		if !errors.Is(err, errNoLog) {
			t.Fatalf("write = %v, want %v", err, errNoLog)
		}
	}
	n := 0
	must(t, cf.Scan("", func(string, []byte, [][]byte) bool { n++; return true }))
	if n != 0 {
		t.Fatalf("Scan visited %d keys", n)
	}
	must(t, s.Sync())
	must(t, s.Close())
}

func TestFilterStoreRoundTrip(t *testing.T) {
	fs := NewFilterStore(tempStore(t))
	f := model.Filter{ID: 42, Subscriber: "alice", Terms: []string{"cloud", "storage"}, Mode: model.MatchAny}
	must(t, fs.Put(f))
	all := func() []model.Filter {
		t.Helper()
		var out []model.Filter
		must(t, fs.Each(func(f model.Filter) bool {
			out = append(out, f)
			return true
		}))
		return out
	}
	if got := all(); !reflect.DeepEqual(got, []model.Filter{f}) {
		t.Fatalf("Each = %+v, want [%+v]", got, f)
	}
	must(t, fs.Delete(43))
	if got := all(); len(got) != 1 {
		t.Fatalf("deleting a missing ID left %d filters, want 1", len(got))
	}
	must(t, fs.Delete(42))
	if got := all(); len(got) != 0 {
		t.Fatalf("filter visible after delete: %+v", got)
	}
}

func TestFilterStoreRejectsInvalid(t *testing.T) {
	fs := NewFilterStore(tempStore(t))
	if err := fs.Put(model.Filter{ID: 1, Mode: model.MatchAny}); !errors.Is(err, model.ErrNoTerms) {
		t.Fatalf("err = %v, want ErrNoTerms", err)
	}
}

func TestFilterStoreEach(t *testing.T) {
	fs := NewFilterStore(tempStore(t))
	for i := 1; i <= 5; i++ {
		must(t, fs.Put(model.Filter{ID: model.FilterID(i), Terms: []string{"t" + strconv.Itoa(i)}, Mode: model.MatchAny}))
	}
	var ids []model.FilterID
	must(t, fs.Each(func(f model.Filter) bool {
		ids = append(ids, f.ID)
		return true
	}))
	if len(ids) != 5 {
		t.Fatalf("Each visited %d filters, want 5", len(ids))
	}
}

// TestPostingStore: a list reads back the IDs it holds, duplicates once,
// removals gone — and a rewrite folds it to exactly those.
func TestPostingStore(t *testing.T) {
	s := tempStore(t)
	ps := NewPostingStore(s)
	for i := 1; i <= 4; i++ {
		must(t, ps.Add("news", model.FilterID(i)))
	}
	must(t, ps.Add("news", 2)) // a duplicate registration dedups on read
	must(t, ps.Remove("news", 3))
	must(t, ps.Add("gone", 9))
	must(t, ps.Remove("gone", 9))
	want := map[string][]model.FilterID{"news": {1, 2, 4}}
	for _, rewritten := range []bool{false, true} {
		if rewritten {
			rewrite(t, s)
			_, ops, _ := lookup(t, ps.cf, "news")
			if len(ops) != 3 {
				t.Fatalf("the rewritten list holds %d operands, want 3", len(ops))
			}
		}
		got := make(map[string][]model.FilterID)
		must(t, ps.Each(func(term string, ids []model.FilterID) bool {
			got[term] = ids
			return true
		}))
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("rewritten=%v: Each = %v, want %v", rewritten, got, want)
		}
	}
}
