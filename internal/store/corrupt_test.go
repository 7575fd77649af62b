package store

import (
	"bytes"
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

	"github.com/movesys/move/internal/model"
)

// dump renders every live key of the named column families as
// "cf/key=value", sorted.
func dump(t testing.TB, s *Store, cfs ...string) []string {
	t.Helper()
	var out []string
	for _, name := range cfs {
		must(t, s.CF(name).Scan(func(key string, val []byte) bool {
			out = append(out, name+"/"+strconv.Quote(key)+"="+strconv.Quote(string(val)))
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

// validLog writes a log as the index writes one — filter records posted
// under nothing, under one term and under several, a re-registration that
// grows a posted set, an unregistration — beside a second column family,
// and returns its bytes and the offset its last record starts at.
func validLog(t testing.TB) (data []byte, last int) {
	t.Helper()
	s := tempStore(t)
	fs := NewFilterStore(s)
	other := s.CF("other")
	for i := 0; i < 6; i++ {
		f := model.Filter{ID: model.FilterID(i + 1), Subscriber: "s" + strconv.Itoa(i%2), Terms: []string{"t" + strconv.Itoa(i%3), "u"}, Mode: model.MatchMode(1 + i%2)}
		must(t, fs.Put(f, f.Terms[:i%3]))
		must(t, other.Put("k"+strconv.Itoa(i%2), []byte{byte(i)}))
	}
	must(t, fs.Delete(3))
	last = int(logSize(t, s))
	must(t, fs.Put(model.Filter{ID: 1, Subscriber: "s0", Terms: []string{"t0", "u"}, Mode: model.MatchAny}, []string{"t0", "u"}))
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
	whole := dump(t, mustOpen(t, writeLog(t, valid)), "filters", "other")
	want := dump(t, mustOpen(t, writeLog(t, valid[:last])), "filters", "other")
	if reflect.DeepEqual(whole, want) {
		t.Fatal("the last record changes nothing the test can see")
	}
	check := func(what string, data []byte) {
		t.Helper()
		dir := writeLog(t, data)
		s := mustOpen(t, dir)
		if r := s.Replayed(); r.Records != 13 || r.Bytes != int64(last) || r.Truncated != int64(len(data)-last) {
			t.Fatalf("%s: replayed %+v, want 13 records, %d bytes, %d truncated", what, r, last, len(data)-last)
		}
		if got := dump(t, s, "filters", "other"); !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: read back\n%q\nwant\n%q", what, got, want)
		}
		cf := s.CF("other")
		must(t, cf.Put("after", []byte("the cut")))
		s = reopen(t, s)
		if r := s.Replayed(); r.Records != 14 || r.Truncated != 0 {
			t.Fatalf("%s: a write after the cut replayed %+v, want 14 records and no cut", what, r)
		}
		wantAfter := append([]string{`other/"after"="the cut"`}, want...)
		sort.Strings(wantAfter)
		if got := dump(t, s, "filters", "other"); !reflect.DeepEqual(got, wantAfter) {
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
	// A power cut can leave zeros past the last write: an all-zero header
	// checks out over an empty body. Neither it nor any body too short for a
	// family and a kind is a record a write makes.
	check("a zero-filled tail", append(valid[:last:last], make([]byte, 64)...))
	for _, body := range [][]byte{{}, {0}, {5, 'f'}} {
		bad := binary.LittleEndian.AppendUint32(nil, uint32(len(body)))
		bad = binary.LittleEndian.AppendUint32(bad, crc32.Checksum(body, castagnoli))
		bad = append(append(bad, body...), valid[last:]...)
		check("a body of "+strconv.Quote(string(body)), append(valid[:last:last], bad...))
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

// TestCompactIdempotent: rewriting a rewritten log changes no byte of it.
func TestCompactIdempotent(t *testing.T) {
	s := tempStore(t)
	fs := NewFilterStore(s)
	for i := 0; i < 10; i++ {
		f := model.Filter{ID: model.FilterID(1000 + i%4), Subscriber: "s", Terms: []string{"t" + strconv.Itoa(i%3), "u"}, Mode: model.MatchAny}
		must(t, fs.Put(f, f.Terms[:1+i%2]))
		if i%4 == 0 {
			must(t, fs.Delete(f.ID))
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

// mergeLog is a commit log written by an older build, which kept posting
// lists as a second column family of merge operands: a filter put, then a
// "postings" record of kind 3 adding the filter to the list of "news".
const mergeLog = "testdata/postings-merge/commit.log"

// TestOpenRefusesMergeRecord: a log holding an older build's posting merge
// record does not open — the error names the file and the record — and is
// left byte for byte as it was, not cut back to the put before the record.
func TestOpenRefusesMergeRecord(t *testing.T) {
	data, err := os.ReadFile(mergeLog)
	must(t, err)
	dir := writeLog(t, data)
	path := filepath.Join(dir, logName)
	_, err = Open(dir, Options{})
	if err == nil || !strings.Contains(err.Error(), path) || !strings.Contains(err.Error(), "record 2 ") || !strings.Contains(err.Error(), `family "postings" kind 3`) {
		t.Fatalf("Open over a log with a merge record: %v; want an error naming %s and its record 2", err, path)
	}
	if after, err := os.ReadFile(path); err != nil || !bytes.Equal(after, data) {
		t.Fatalf("the refused log changed: %d bytes, was %d (%v)", len(after), len(data), err)
	}
}

// TestOpenRefusesUnreadableRecord: a whole record whose checksum holds but
// whose body this build cannot read fails Open and stays in the file with
// everything after it; only bytes that fail the length or checksum check are
// ever cut.
func TestOpenRefusesUnreadableRecord(t *testing.T) {
	valid, last := validLog(t)
	for _, bad := range [][]byte{
		appendRecord(nil, "filters", 9, "key", nil),                  // no such kind
		appendRecord(nil, "filters", kindDelete, "key", []byte{1}),   // a delete with a payload
		appendRecord(nil, "filters", kindPut, "", nil)[:headerLen+9], // no key
	} {
		binary.LittleEndian.PutUint32(bad, uint32(len(bad)-headerLen))
		binary.LittleEndian.PutUint32(bad[4:], crc32.Checksum(bad[headerLen:], castagnoli))
		data := append(append(append([]byte(nil), valid[:last]...), bad...), valid[last:]...)
		dir := writeLog(t, data)
		_, err := Open(dir, Options{})
		if err == nil || !strings.Contains(err.Error(), filepath.Join(dir, logName)) || !strings.Contains(err.Error(), "record 14 ") {
			t.Fatalf("Open over an unreadable record 14: %v; want an error naming the log and the record", err)
		}
		if after, err := os.ReadFile(filepath.Join(dir, logName)); err != nil || !bytes.Equal(after, data) {
			t.Fatalf("the refused log changed: %d bytes, was %d (%v)", len(after), len(data), err)
		}
	}
}

// FuzzStoreReplay opens a data directory whose log is arbitrary bytes. Open
// never panics on them and allocates in proportion to them. The records at
// the front of the file whose length and checksum hold and whose body holds
// a family and a kind are whole. When each is a put or a delete with a key,
// Open keeps exactly them — cutting the rest off the file — and reads back
// as that prefix does on its own, a write after it reopening cleanly. When
// one is not, Open fails naming the log and the first such record, and
// leaves the file byte for byte as it was.
func FuzzStoreReplay(f *testing.F) {
	valid, last := validLog(f)
	f.Add(valid)
	f.Add(valid[:last+3])
	f.Add(append(append([]byte(nil), valid...), 0xff, 0, 0, 0))
	f.Add(append(valid[:last:last], make([]byte, 64)...))
	merge, err := os.ReadFile(mergeLog)
	must(f, err)
	f.Add(merge)
	f.Fuzz(func(t *testing.T, data []byte) {
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		before := ms.TotalAlloc
		dir := writeLog(t, data)
		s, err := Open(dir, Options{})
		runtime.ReadMemStats(&ms)
		if alloc := ms.TotalAlloc - before; alloc > 128*uint64(len(data))+1<<20 {
			t.Fatalf("replaying %d bytes allocated %d", len(data), alloc)
		}
		names, n, end, unread := wholePrefix(data)
		if unread != 0 || err != nil {
			after, rerr := os.ReadFile(filepath.Join(dir, logName))
			if unread == 0 || err == nil || !strings.Contains(err.Error(), filepath.Join(dir, logName)+": record "+strconv.Itoa(unread)+" ") || rerr != nil || !bytes.Equal(after, data) {
				t.Fatalf("Open over %d whole records, record %d unreadable (0: none): %v; the file is now %d bytes of %d", n, unread, err, len(after), len(data))
			}
			return
		}
		t.Cleanup(func() { _ = s.Close() })
		r := s.Replayed()
		if r.Records != n || r.Bytes != int64(end) || r.Truncated != int64(len(data)-end) || logSize(t, s) != r.Bytes {
			t.Fatalf("replayed %+v of %d bytes, the log is %d; %d whole records end at %d", r, len(data), logSize(t, s), n, end)
		}
		got := dump(t, s, names...)
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

// wholePrefix walks the whole records at the front of data — length and
// checksum hold, the body holds a family and a kind — and returns how many
// there are, where they end, the column families they name, and the number
// of the first that is not a put or a delete with a key (0 when all are).
func wholePrefix(data []byte) (names []string, n, end, unread int) {
	seen := map[string]bool{}
	for len(data)-end >= headerLen {
		l := int(binary.LittleEndian.Uint32(data[end:]))
		if l > len(data)-end-headerLen {
			break
		}
		body := data[end+headerLen : end+headerLen+l]
		if crc32.Checksum(body, crc32.MakeTable(crc32.Castagnoli)) != binary.LittleEndian.Uint32(data[end+4:]) {
			break
		}
		cf, rest, ok := field(body)
		if !ok || len(rest) == 0 {
			break
		}
		seen[string(cf)] = true
		n, end = n+1, end+headerLen+l
		_, payload, ok := field(rest[1:])
		if unread == 0 && (!ok || rest[0] != kindPut && (rest[0] != kindDelete || len(payload) > 0)) {
			unread = n
		}
	}
	for name := range seen {
		names = append(names, name)
	}
	sort.Strings(names)
	return names, n, end, unread
}
