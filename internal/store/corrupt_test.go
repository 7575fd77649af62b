package store

import (
	"os"
	"path/filepath"
	"strconv"
	"testing"
	"testing/quick"
)

// TestLoadSegmentRejectsCorruption fuzzes truncation points of a valid
// segment file: loading must error, never panic or silently misread. Opening
// a column family only lists its files, so on a directory the error surfaces
// at the first Scan (index.New runs one per column family) or Compact — not
// at Store.CF — and a failed Compact leaves every file where it was.
func TestLoadSegmentRejectsCorruption(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	cf, err := s.CF("data")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		if err := cf.Put("key-"+strconv.Itoa(i), []byte("value-"+strconv.Itoa(i))); err != nil {
			t.Fatal(err)
		}
		if err := cf.Append("list", []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := cf.Flush(); err != nil {
		t.Fatal(err)
	}
	segPath := filepath.Join(dir, "data", segName(0))
	valid, err := os.ReadFile(segPath)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := loadSegment(segPath); err != nil {
		t.Fatalf("valid segment rejected: %v", err)
	}

	tmp := filepath.Join(t.TempDir(), "corrupt.seg")
	for _, cut := range []int{1, 2, len(valid) / 4, len(valid) / 2, len(valid) - 1} {
		if err := os.WriteFile(tmp, valid[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := loadSegment(tmp); err == nil {
			t.Errorf("truncation at %d bytes accepted", cut)
		}
	}
	// Trailing garbage is corruption too: the entry count no longer accounts
	// for the file.
	if err := os.WriteFile(tmp, append(append([]byte(nil), valid...), 0), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := loadSegment(tmp); err == nil {
		t.Error("trailing byte accepted")
	}

	// The same truncation inside a data directory, beside a good segment.
	if err := cf.Put("later", []byte("v")); err != nil {
		t.Fatal(err)
	}
	if err := cf.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(segPath, valid[:len(valid)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	s2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	cf2, err := s2.CF("data")
	if err != nil {
		t.Fatalf("CF lists segments without reading them, got %v", err)
	}
	if err := cf2.Scan("", func(string, []byte, [][]byte) bool { return true }); err == nil {
		t.Error("Scan over a truncated segment succeeded")
	}
	if err := cf2.Compact(); err == nil {
		t.Error("Compact over a truncated segment succeeded")
	}
	if st := cf2.Stats(); st.Segments != 2 {
		t.Errorf("failed Compact left %d segments listed, want 2", st.Segments)
	}
	// Bit flips in the header region must not panic.
	for i := 0; i < 8 && i < len(valid); i++ {
		mut := append([]byte(nil), valid...)
		mut[i] ^= 0xFF
		if err := os.WriteFile(tmp, mut, 0o644); err != nil {
			t.Fatal(err)
		}
		_, _ = loadSegment(tmp) // error or success, but no panic
	}
}

func TestLoadSegmentMissingFile(t *testing.T) {
	if _, err := loadSegment(filepath.Join(t.TempDir(), "nope.seg")); err == nil {
		t.Fatal("expected error for missing file")
	}
}

func TestRecoveryIgnoresForeignFiles(t *testing.T) {
	dir := t.TempDir()
	cfDir := filepath.Join(dir, "data")
	if err := os.MkdirAll(cfDir, 0o755); err != nil {
		t.Fatal(err)
	}
	// Foreign/garbage files in the CF directory must be skipped.
	if err := os.WriteFile(filepath.Join(cfDir, "README.txt"), []byte("hi"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(cfDir, "zzz.seg"), []byte("junk"), 0o644); err != nil {
		t.Fatal(err)
	}
	s, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	cf, err := s.CF("data")
	if err != nil {
		t.Fatal(err)
	}
	if err := cf.Put("k", []byte("v")); err != nil {
		t.Fatal(err)
	}
	if st := cf.Stats(); st.Segments != 0 {
		t.Fatalf("foreign files listed as %d segments", st.Segments)
	}
	wantValue(t, cf, "k", "v", true)
}

// TestMergeOrderPreservedProperty: Scan hands a merge key its operands
// oldest-first across arbitrary flush (and, every fourth segment, compaction)
// boundaries, duplicates included.
func TestMergeOrderPreservedProperty(t *testing.T) {
	prop := func(ops []byte, flushMask uint32) bool {
		if len(ops) == 0 {
			return true
		}
		if len(ops) > 24 {
			ops = ops[:24]
		}
		cf := tempCF(t, Options{})
		for i, b := range ops {
			if err := cf.Append("k", []byte{b}); err != nil {
				return false
			}
			if flushMask&(1<<uint(i%32)) != 0 {
				if err := cf.Flush(); err != nil {
					return false
				}
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

// TestCompactIdempotent: compacting twice yields the same reads.
func TestCompactIdempotent(t *testing.T) {
	cf := tempCF(t, Options{})
	for i := 0; i < 10; i++ {
		if err := cf.Put("k"+strconv.Itoa(i), []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
		if err := cf.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	if err := cf.Compact(); err != nil {
		t.Fatal(err)
	}
	if err := cf.Compact(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		wantValue(t, cf, "k"+strconv.Itoa(i), string([]byte{byte(i)}), true)
	}
	if st := cf.Stats(); st.Segments != 1 {
		t.Fatalf("segments = %d, want 1", st.Segments)
	}
}

func TestStatsAccounting(t *testing.T) {
	cf := tempCF(t, Options{})
	if st := cf.Stats(); st.MemKeys != 0 || st.Segments != 0 {
		t.Fatalf("empty stats = %+v", st)
	}
	if err := cf.Put("key", []byte("0123456789")); err != nil {
		t.Fatal(err)
	}
	st := cf.Stats()
	if st.MemKeys != 1 || st.MemBytes == 0 {
		t.Fatalf("stats after put = %+v", st)
	}
	if err := cf.Flush(); err != nil {
		t.Fatal(err)
	}
	st = cf.Stats()
	if st.MemKeys != 0 || st.MemBytes != 0 || st.Segments != 1 || st.SegmentBytes == 0 {
		t.Fatalf("stats after flush = %+v", st)
	}
	if cf.Name() != "test" {
		t.Fatalf("Name = %q", cf.Name())
	}
}

// TestEphemeralFlushKeepsMemtable: without a data directory there is nowhere
// to flush to — the memtable is the column family, whatever FlushAt says.
func TestEphemeralFlushKeepsMemtable(t *testing.T) {
	s, err := Open("", Options{FlushAt: 64})
	if err != nil {
		t.Fatal(err)
	}
	if s.Durable() {
		t.Fatal("a store without a directory reports Durable")
	}
	cf, err := s.CF("test")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		if err := cf.Put("k"+strconv.Itoa(i), []byte("0123456789")); err != nil {
			t.Fatal(err)
		}
	}
	if err := cf.Append("list", []byte("old")); err != nil {
		t.Fatal(err)
	}
	if err := cf.Delete("list"); err != nil {
		t.Fatal(err)
	}
	if err := cf.Append("list", []byte("new")); err != nil {
		t.Fatal(err)
	}
	if err := s.FlushAll(); err != nil {
		t.Fatal(err)
	}
	if err := cf.Compact(); err != nil {
		t.Fatal(err)
	}
	if st := cf.Stats(); st.MemKeys != 51 || st.Segments != 0 {
		t.Fatalf("stats = %+v, want 51 memtable keys and no segment", st)
	}
	wantValue(t, cf, "k49", "0123456789", true)
	wantOps(t, cf, "list", "new")
}
