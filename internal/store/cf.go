// Package store implements the node-local durability layer beneath two of
// MOVE's data stores (§V, Figure 3): the filter store and the local inverted
// list (posting lists). It follows the BigTable/Cassandra column-family
// design the paper builds on: writes land in a memtable, which is flushed
// into immutable sorted segment files; merge semantics support both plain
// keys and append-merge keys (the natural representation of posting lists);
// segments compact to bound the directory and the recovery scan. Nothing
// serves reads from here while a node runs — the index's shards do — so the
// only reader is Scan, which a restarted node uses once to rebuild them.
package store

import (
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"

	"github.com/movesys/move/internal/codec"
)

// record kinds inside memtable/segments.
const (
	kindPut       = 1 // plain value, replaces anything older
	kindTombstone = 2 // deletion marker
	kindMerge     = 3 // append operands; a read accumulates older ones until a Put/Tombstone
	kindMergeOver = 4 // operands appended over a deletion: a read stops here
)

func isMerge(kind int) bool { return kind == kindMerge || kind == kindMergeOver }

// memRecord is the memtable state of one key. data is the value of a
// kindPut record; for the merge kinds it holds the operands, oldest first, packed
// into one buffer — each as its uvarint length followed by its bytes — so a
// posting list of a thousand few-byte operands is one heap object, not a
// thousand and a slice header apiece.
type memRecord struct {
	kind int
	data []byte
}

// val returns the plain value (nil unless kindPut).
func (r *memRecord) val() []byte {
	if r.kind != kindPut {
		return nil
	}
	return r.data
}

// appendOp packs one more merge operand.
func (r *memRecord) appendOp(op []byte) {
	r.data = binary.AppendUvarint(r.data, uint64(len(op)))
	r.data = append(r.data, op...)
}

// ops returns the merge operands oldest first (nil for the plain kinds), each
// aliasing the packed buffer: appends only ever write past what an earlier
// call saw, so the slices stay valid and immutable.
func (r *memRecord) ops() [][]byte {
	if !isMerge(r.kind) {
		return nil
	}
	n := 0
	for buf := r.data; len(buf) > 0; n++ {
		l, w := binary.Uvarint(buf)
		buf = buf[w+int(l):]
	}
	out := make([][]byte, 0, n)
	for buf := r.data; len(buf) > 0; {
		l, w := binary.Uvarint(buf)
		end := w + int(l)
		out = append(out, buf[w:end:end])
		buf = buf[end:]
	}
	return out
}

// CF is one column family. All methods are safe for concurrent use.
//
// What a CF keeps in memory is what is not yet on disk: the memtable. With a
// data directory a flush writes the memtable out as a sorted segment file and
// lets the entries go; the segments are then a list of file names, read back
// for the duration of a Scan or a Compact and never kept. Without a directory
// there is nowhere to flush to, so the memtable is the whole column family
// and Flush does nothing.
type CF struct {
	name    string
	dir     string // "" = ephemeral
	flushAt int

	// fold, when set, rewrites a merge key's whole operand history at
	// compaction (a key it leaves without operands is dropped).
	fold func(ops [][]byte) [][]byte

	mu       sync.RWMutex
	mem      map[string]*memRecord
	memBytes int
	segs     []segFile // newest first; always empty when ephemeral
	nextSeg  int
}

// segFile is one segment on disk: its number and its size.
type segFile struct {
	id    int
	bytes int
}

// compactAt is the segment count at which a flush compacts: without it a
// directory keeps every tombstone and superseded value for ever, and
// recovery replays them all.
const compactAt = 4

// Options configures a column family.
type Options struct {
	// FlushAt flushes the memtable after roughly this many bytes of keys
	// and values. Zero means 8 MiB.
	FlushAt int
}

// openCF creates a column family, or finds the segment files of an existing
// one. The files are listed, not read: a corrupt segment is reported by the
// first Scan or Compact that loads it.
func openCF(name, dir string, opts Options) (*CF, error) {
	flushAt := opts.FlushAt
	if flushAt == 0 {
		flushAt = 8 << 20
	}
	cf := &CF{
		name:    name,
		dir:     dir,
		flushAt: flushAt,
		mem:     make(map[string]*memRecord),
	}
	if dir == "" {
		return cf, nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: create cf dir: %w", err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("store: read cf dir: %w", err)
	}
	for _, e := range entries {
		base := e.Name()
		if !strings.HasSuffix(base, ".seg") {
			continue
		}
		id, err := strconv.Atoi(strings.TrimSuffix(base, ".seg"))
		if err != nil {
			continue
		}
		info, err := e.Info()
		if err != nil {
			return nil, fmt.Errorf("store: stat segment %d: %w", id, err)
		}
		cf.segs = append(cf.segs, segFile{id: id, bytes: int(info.Size())})
		if id >= cf.nextSeg {
			cf.nextSeg = id + 1
		}
	}
	sort.Slice(cf.segs, func(i, j int) bool { return cf.segs[i].id > cf.segs[j].id })
	return cf, nil
}

func segName(id int) string { return fmt.Sprintf("%06d.seg", id) }

func (cf *CF) segPath(id int) string { return filepath.Join(cf.dir, segName(id)) }

// Name returns the column family name.
func (cf *CF) Name() string { return cf.name }

// Put stores a plain value for key.
func (cf *CF) Put(key string, val []byte) error {
	cf.mu.Lock()
	defer cf.mu.Unlock()
	cf.mem[key] = &memRecord{kind: kindPut, data: append([]byte(nil), val...)}
	cf.memBytes += len(key) + len(val) + 16
	return cf.maybeFlushLocked()
}

// Delete writes a tombstone for key.
func (cf *CF) Delete(key string) error {
	cf.mu.Lock()
	defer cf.mu.Unlock()
	cf.mem[key] = &memRecord{kind: kindTombstone}
	cf.memBytes += len(key) + 16
	return cf.maybeFlushLocked()
}

// Append adds a merge operand to key; Scan hands a merge key all its
// operands, oldest first, segments included. Put and Append must not be
// mixed on the same key.
func (cf *CF) Append(key string, op []byte) error {
	cf.mu.Lock()
	defer cf.mu.Unlock()
	rec, ok := cf.mem[key]
	if !ok {
		rec = &memRecord{kind: kindMerge}
		cf.mem[key] = rec
	} else if !isMerge(rec.kind) {
		// The tombstone this replaces must keep cutting off the segments.
		rec = &memRecord{kind: kindMergeOver}
		cf.mem[key] = rec
	}
	rec.appendOp(op)
	cf.memBytes += len(key) + len(op) + 16
	return cf.maybeFlushLocked()
}

// maybeFlushLocked flushes when the memtable is full.
func (cf *CF) maybeFlushLocked() error {
	if cf.memBytes < cf.flushAt {
		return nil
	}
	return cf.flushLocked()
}

// Scan calls fn for every live key with the given prefix, in key order: a
// plain key with its newest value, a merge key with its operands oldest
// first. val and ops are only valid during the call. Iteration stops if fn
// returns false. Every segment file is read once and dropped again.
func (cf *CF) Scan(prefix string, fn func(key string, val []byte, ops [][]byte) bool) error {
	cf.mu.RLock()
	defer cf.mu.RUnlock()
	layers, err := cf.loadSegmentsLocked()
	if err != nil {
		return err
	}
	// The memtable is the newest layer.
	merged := mergeSegments(append([]*segment{newSegmentFromMem(cf.mem)}, layers...))
	for i := range merged.entries {
		e := &merged.entries[i]
		if strings.HasPrefix(e.key, prefix) && !fn(e.key, e.val, e.ops) {
			break
		}
	}
	return nil
}

// loadSegmentsLocked reads every segment file, newest first.
func (cf *CF) loadSegmentsLocked() ([]*segment, error) {
	out := make([]*segment, 0, len(cf.segs))
	for _, sf := range cf.segs {
		seg, err := loadSegment(cf.segPath(sf.id))
		if err != nil {
			return nil, fmt.Errorf("store: cf %s segment %d: %w", cf.name, sf.id, err)
		}
		out = append(out, seg)
	}
	return out, nil
}

// Flush writes the memtable out as a new segment file. Writers and scans wait
// while it runs.
func (cf *CF) Flush() error {
	cf.mu.Lock()
	defer cf.mu.Unlock()
	return cf.flushLocked()
}

// flushLocked saves the memtable and lets it go; a failed save keeps it. The
// flush that brings the directory to compactAt segments merges them into one.
func (cf *CF) flushLocked() error {
	if cf.dir == "" || len(cf.mem) == 0 {
		return nil
	}
	id := cf.nextSeg
	size, err := newSegmentFromMem(cf.mem).save(cf.segPath(id))
	if err != nil {
		return fmt.Errorf("store: flush cf %s: %w", cf.name, err)
	}
	cf.nextSeg++
	cf.mem = make(map[string]*memRecord)
	cf.memBytes = 0
	cf.segs = append([]segFile{{id: id, bytes: size}}, cf.segs...)
	if len(cf.segs) >= compactAt {
		return cf.compactLocked()
	}
	return nil
}

// setFold installs the column family's compaction fold.
func (cf *CF) setFold(fold func(ops [][]byte) [][]byte) {
	cf.mu.Lock()
	cf.fold = fold
	cf.mu.Unlock()
}

// Compact merges all segments (not the memtable) into one, dropping
// superseded values and tombstoned history.
func (cf *CF) Compact() error {
	cf.mu.Lock()
	defer cf.mu.Unlock()
	return cf.compactLocked()
}

func (cf *CF) compactLocked() error {
	if len(cf.segs) <= 1 {
		return nil
	}
	layers, err := cf.loadSegmentsLocked()
	if err != nil {
		return err
	}
	merged := mergeSegments(layers)
	if cf.fold != nil {
		// Every segment is in the merge, so a merge key's operands are its
		// whole history.
		kept := merged.entries[:0]
		for _, e := range merged.entries {
			if isMerge(e.kind) {
				if e.ops = cf.fold(e.ops); len(e.ops) == 0 {
					continue
				}
			}
			kept = append(kept, e)
		}
		merged.entries = kept
	}
	id := cf.nextSeg
	size, err := merged.save(cf.segPath(id))
	if err != nil {
		return fmt.Errorf("store: compact cf %s: %w", cf.name, err)
	}
	cf.nextSeg++
	old := cf.segs
	cf.segs = []segFile{{id: id, bytes: size}}
	// The old files are superseded. Oldest first, stopping at a failure: a
	// leftover newer than every removed file only wastes disk, while an older
	// one whose tombstone went before it would come back to life on recovery.
	for i := len(old) - 1; i >= 0; i-- {
		if err := os.Remove(cf.segPath(old[i].id)); err != nil {
			break
		}
	}
	return nil
}

// Stats describes the column family's footprint: the memtable in memory,
// the segments on disk.
type Stats struct {
	MemKeys      int
	MemBytes     int
	Segments     int
	SegmentBytes int
}

// Stats returns a snapshot of the CF's size.
func (cf *CF) Stats() Stats {
	cf.mu.RLock()
	defer cf.mu.RUnlock()
	st := Stats{MemKeys: len(cf.mem), MemBytes: cf.memBytes, Segments: len(cf.segs)}
	for _, sf := range cf.segs {
		st.SegmentBytes += sf.bytes
	}
	return st
}

// segment is a sorted run of records: the memtable on its way to disk, or a
// segment file read back for one Scan or Compact.
type segment struct {
	entries []segEntry // sorted by key
}

type segEntry struct {
	key  string
	kind int
	val  []byte
	ops  [][]byte // oldest first
}

func newSegmentFromMem(mem map[string]*memRecord) *segment {
	seg := &segment{entries: make([]segEntry, 0, len(mem))}
	for key, rec := range mem {
		seg.entries = append(seg.entries, segEntry{key: key, kind: rec.kind, val: rec.val(), ops: rec.ops()})
	}
	sort.Slice(seg.entries, func(i, j int) bool { return seg.entries[i].key < seg.entries[j].key })
	return seg
}

// mergeSegments combines newest-first segments into one: a key keeps the
// state of the newest segment that names it, a merge key also collects the
// operands of older segments — oldest first — down to the first deletion,
// and keys whose newest state is a tombstone are dropped.
func mergeSegments(segs []*segment) *segment {
	type acc struct {
		segEntry
		done bool // nothing older can change it
	}
	accs := make(map[string]*acc)
	for _, seg := range segs {
		for i := range seg.entries {
			e := &seg.entries[i]
			a, ok := accs[e.key]
			switch {
			case !ok:
				accs[e.key] = &acc{segEntry: *e, done: e.kind != kindMerge}
			case a.done:
			case isMerge(e.kind):
				a.ops = append(e.ops[:len(e.ops):len(e.ops)], a.ops...)
				a.done = e.kind == kindMergeOver
			default:
				a.done = true
			}
		}
	}
	out := &segment{entries: make([]segEntry, 0, len(accs))}
	for _, a := range accs {
		if a.kind != kindTombstone {
			out.entries = append(out.entries, a.segEntry)
		}
	}
	sort.Slice(out.entries, func(i, j int) bool { return out.entries[i].key < out.entries[j].key })
	return out
}

// save writes the segment to path — temp file, sync, rename, so a crash
// leaves the whole segment or none of it — and returns its size.
func (s *segment) save(path string) (int, error) {
	w := codec.NewWriter(64 * len(s.entries))
	w.Uvarint(uint64(len(s.entries)))
	for i := range s.entries {
		e := &s.entries[i]
		w.String(e.key)
		w.Uint8(uint8(e.kind))
		switch e.kind {
		case kindPut:
			w.Bytes0(e.val)
		case kindMerge, kindMergeOver:
			w.Uvarint(uint64(len(e.ops)))
			for _, op := range e.ops {
				w.Bytes0(op)
			}
		}
	}
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return 0, err
	}
	_, err = f.Write(w.Bytes())
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return 0, err
	}
	return len(w.Bytes()), os.Rename(tmp, path)
}

// loadSegment reads a segment file. Values and operands alias the file's
// bytes, which live as long as the segment does.
func loadSegment(path string) (*segment, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	r := codec.NewReader(data)
	n, err := r.Uvarint()
	if err != nil {
		return nil, err
	}
	if n > uint64(r.Remaining()) {
		return nil, fmt.Errorf("store: segment %s claims %d entries", path, n)
	}
	seg := &segment{entries: make([]segEntry, 0, n)}
	for i := uint64(0); i < n; i++ {
		var e segEntry
		if e.key, err = r.String(); err != nil {
			return nil, err
		}
		kind, err := r.Uint8()
		if err != nil {
			return nil, err
		}
		e.kind = int(kind)
		switch e.kind {
		case kindPut:
			if e.val, err = r.Bytes0(); err != nil {
				return nil, err
			}
		case kindTombstone:
		case kindMerge, kindMergeOver:
			m, err := r.Uvarint()
			if err != nil {
				return nil, err
			}
			if m > uint64(r.Remaining()) {
				return nil, fmt.Errorf("store: segment %s merge op overflow", path)
			}
			e.ops = make([][]byte, 0, m)
			for j := uint64(0); j < m; j++ {
				op, err := r.Bytes0()
				if err != nil {
					return nil, err
				}
				e.ops = append(e.ops, op)
			}
		default:
			return nil, fmt.Errorf("store: segment %s bad record kind %d", path, e.kind)
		}
		seg.entries = append(seg.entries, e)
	}
	if r.Remaining() != 0 {
		return nil, fmt.Errorf("store: segment %s has %d trailing bytes", path, r.Remaining())
	}
	return seg, nil
}
