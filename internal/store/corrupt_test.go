package store

import (
	"encoding/binary"
	"hash/crc32"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"testing"
	"testing/quick"

	"github.com/movesys/move/internal/model"
)

// dump renders every live key of the named column families as
// "cf/key=value" or "cf/key=[op op]", sorted.
func dump(t testing.TB, s *Store, cfs ...string) []string {
	t.Helper()
	var out []string
	for _, name := range cfs {
		cf := s.CF(name)
		must(t, cf.Scan("", func(key string, val []byte, ops [][]byte) bool {
			line := name + "/" + key + "=" + string(val)
			if ops != nil {
				line = name + "/" + key + "=" + strconv.Quote(string(packOps(nil, ops...)))
			}
			out = append(out, line)
			return true
		}))
	}
	sort.Strings(out)
	return out
}

// writeLog lays data down as the log of a fresh data directory.
func writeLog(t testing.TB, data []byte) string {
	t.Helper()
	dir := t.TempDir()
	must(t, os.WriteFile(filepath.Join(dir, logName), data, 0o644))
	return dir
}

// validLog writes a log over two column families — puts, a delete, merge
// operands, an overwrite — and returns its bytes and the offset its last
// record starts at.
func validLog(t testing.TB) (data []byte, last int) {
	t.Helper()
	s := tempStore(t)
	a := s.CF("filters")
	b := s.CF("postings")
	for i := 0; i < 6; i++ {
		must(t, a.Put("f"+strconv.Itoa(i), []byte("def-"+strconv.Itoa(i))))
		must(t, b.Append("t"+strconv.Itoa(i%2), []byte{byte(i)}))
	}
	must(t, a.Delete("f2"))
	must(t, a.Put("f0", []byte("redefined")))
	last = int(logSize(t, s))
	must(t, b.Append("t1", []byte("last")))
	must(t, s.Close())
	data, err := os.ReadFile(filepath.Join(s.dir, logName))
	must(t, err)
	return data, last
}

// TestReplayCutsCorruptTail cuts the log at every byte offset of its last
// record, and flips each byte of that record in turn. Every reopen keeps
// every earlier record, reports the cut in Truncated, and takes a later
// write cleanly after it.
func TestReplayCutsCorruptTail(t *testing.T) {
	valid, last := validLog(t)
	whole := dump(t, mustOpen(t, writeLog(t, valid)), "filters", "postings")
	want := dump(t, mustOpen(t, writeLog(t, valid[:last])), "filters", "postings")
	if reflect.DeepEqual(whole, want) {
		t.Fatal("the last record changes nothing the test can see")
	}
	check := func(what string, data []byte) {
		t.Helper()
		dir := writeLog(t, data)
		s := mustOpen(t, dir)
		if r := s.Replayed(); r.Records != 14 || r.Bytes != int64(last) || r.Truncated != int64(len(data)-last) {
			t.Fatalf("%s: replayed %+v, want 14 records, %d bytes, %d truncated", what, r, last, len(data)-last)
		}
		if got := dump(t, s, "filters", "postings"); !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: read back\n%q\nwant\n%q", what, got, want)
		}
		cf := s.CF("filters")
		must(t, cf.Put("after", []byte("the cut")))
		s = reopen(t, s)
		if r := s.Replayed(); r.Records != 15 || r.Truncated != 0 {
			t.Fatalf("%s: a write after the cut replayed %+v, want 15 records and no cut", what, r)
		}
		wantAfter := append([]string{"filters/after=the cut"}, want...)
		sort.Strings(wantAfter)
		if got := dump(t, s, "filters", "postings"); !reflect.DeepEqual(got, wantAfter) {
			t.Fatalf("%s: after a write past the cut, read back %q", what, got)
		}
	}
	for cut := last; cut < len(valid); cut++ {
		check("cut at "+strconv.Itoa(cut), valid[:cut])
	}
	for i := last; i < len(valid); i++ {
		flipped := append([]byte(nil), valid...)
		flipped[i] ^= 0x5a
		check("byte "+strconv.Itoa(i)+" flipped", flipped)
	}
}

func mustOpen(t testing.TB, dir string) *Store {
	t.Helper()
	s, err := Open(dir, Options{})
	must(t, err)
	t.Cleanup(func() { _ = s.Close() })
	return s
}

// TestOpenRefusesSegmentFiles: a data directory an older build kept as
// segment files does not open as an empty store; the error names the file.
func TestOpenRefusesSegmentFiles(t *testing.T) {
	dir := t.TempDir()
	seg := filepath.Join(dir, "filters", "000003.seg")
	must(t, os.MkdirAll(filepath.Dir(seg), 0o755))
	must(t, os.WriteFile(seg, []byte{1, 0}, 0o644))
	_, err := Open(dir, Options{})
	if err == nil || !strings.Contains(err.Error(), seg) || !strings.Contains(err.Error(), "reads only the commit log") {
		t.Fatalf("Open over a segment file: %v; want an error naming %s", err, seg)
	}
}

func TestRecoveryIgnoresForeignFiles(t *testing.T) {
	dir := t.TempDir()
	cfDir := filepath.Join(dir, "data")
	must(t, os.MkdirAll(cfDir, 0o755))
	// Foreign files, a .seg name that no build wrote among them, are left be.
	must(t, os.WriteFile(filepath.Join(dir, "README.txt"), []byte("hi"), 0o644))
	must(t, os.WriteFile(filepath.Join(cfDir, "zzz.seg"), []byte("junk"), 0o644))
	s := mustOpen(t, dir)
	cf := s.CF("data")
	must(t, cf.Put("k", []byte("v")))
	s = reopen(t, s)
	if r := s.Replayed(); r.Records != 1 || r.Truncated != 0 {
		t.Fatalf("replayed %+v, want the one record", r)
	}
	cf = s.CF("data")
	wantValue(t, cf, "k", "v", true)
}

// TestMergeOrderPreservedProperty: Scan hands a merge key its operands
// oldest-first across arbitrary reopen and rewrite points, duplicates
// included.
func TestMergeOrderPreservedProperty(t *testing.T) {
	prop := func(ops []byte, reopenMask, rewriteMask uint32) bool {
		if len(ops) > 24 {
			ops = ops[:24]
		}
		cf := tempCF(t)
		for i, b := range ops {
			if err := cf.Append("k", []byte{b}); err != nil {
				return false
			}
			if rewriteMask&(1<<uint(i%32)) != 0 {
				rewrite(t, cf.s)
			}
			if reopenMask&(1<<uint(i%32)) != 0 {
				cf = reopenCF(t, cf)
			}
		}
		_, got, _ := lookup(t, cf, "k")
		if len(got) != len(ops) {
			return false
		}
		for i := range ops {
			if len(got[i]) != 1 || got[i][0] != ops[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestCompactIdempotent: rewriting a rewritten log changes no byte of it.
func TestCompactIdempotent(t *testing.T) {
	s := tempStore(t)
	ps := NewPostingStore(s)
	for i := 0; i < 10; i++ {
		must(t, ps.Add("t"+strconv.Itoa(i%3), model.FilterID(1000+i)))
		if i%4 == 0 {
			must(t, ps.Remove("t"+strconv.Itoa(i%3), model.FilterID(1000+i)))
		}
	}
	rewrite(t, s)
	once, err := os.ReadFile(filepath.Join(s.dir, logName))
	must(t, err)
	rewrite(t, s)
	twice, err := os.ReadFile(filepath.Join(s.dir, logName))
	must(t, err)
	if string(once) != string(twice) {
		t.Fatalf("a second rewrite changed the log: %d bytes, then %d", len(once), len(twice))
	}
}

// FuzzStoreReplay opens a data directory whose log is arbitrary bytes. Open
// never fails or panics on them and allocates in proportion to them; what
// it keeps is a prefix of whole records with valid checksums, cut from the
// file, and reads back as that prefix does on its own; a write after it
// reopens cleanly.
func FuzzStoreReplay(f *testing.F) {
	valid, last := validLog(f)
	f.Add(valid)
	f.Add(valid[:last+3])
	f.Add(append(append([]byte(nil), valid...), 0xff, 0, 0, 0))
	f.Fuzz(func(t *testing.T, data []byte) {
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		before := ms.TotalAlloc
		s := mustOpen(t, writeLog(t, data))
		r := s.Replayed()
		names := recordCFs(t, data[:r.Bytes], r.Records)
		got := dump(t, s, names...)
		runtime.ReadMemStats(&ms)
		if alloc := ms.TotalAlloc - before; alloc > 128*uint64(len(data))+1<<20 {
			t.Fatalf("replaying %d bytes allocated %d", len(data), alloc)
		}
		if r.Bytes+r.Truncated != int64(len(data)) || logSize(t, s) != r.Bytes {
			t.Fatalf("replayed %+v of %d bytes, the log is %d", r, len(data), logSize(t, s))
		}
		prefix := mustOpen(t, writeLog(t, data[:r.Bytes]))
		if pr := prefix.Replayed(); pr != (Replay{Records: r.Records, Bytes: r.Bytes}) {
			t.Fatalf("the kept prefix replays %+v, the whole %+v", pr, r)
		}
		if want := dump(t, prefix, names...); !reflect.DeepEqual(got, want) {
			t.Fatalf("read back %q, the kept prefix alone %q", got, want)
		}
		cf := s.CF("after")
		must(t, cf.Put("k", []byte("v")))
		if r2 := reopen(t, s).Replayed(); r2.Records != r.Records+1 || r2.Truncated != 0 {
			t.Fatalf("a write after the cut replays %+v, want %d records and no cut", r2, r.Records+1)
		}
	})
}

// recordCFs walks a log that should hold exactly n whole records with valid
// checksums, by their headers alone, and returns their column families.
func recordCFs(t *testing.T, data []byte, n int) []string {
	t.Helper()
	seen := map[string]bool{}
	for ; n > 0; n-- {
		if len(data) < headerLen {
			t.Fatalf("the kept log ends inside a header")
		}
		l := int(binary.LittleEndian.Uint32(data))
		body := data[headerLen : headerLen+l]
		if crc32.Checksum(body, crc32.MakeTable(crc32.Castagnoli)) != binary.LittleEndian.Uint32(data[4:]) {
			t.Fatalf("the kept log holds a record with a bad checksum")
		}
		cl, w := binary.Uvarint(body)
		seen[string(body[w:w+int(cl)])] = true
		data = data[headerLen+l:]
	}
	if len(data) != 0 {
		t.Fatalf("%d bytes after the replayed records", len(data))
	}
	var names []string
	for name := range seen {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}
