// Package store implements the node-local storage engine beneath MOVE's
// three data stores (§V, Figure 3): the filter store, the local inverted
// list (posting lists), and the meta-data store. It follows the
// BigTable/Cassandra column-family design the paper builds on: writes land
// in a memtable, which is flushed into immutable sorted segments;
// read-merge semantics support both plain keys and append-merge keys (the
// natural representation of posting lists); segments compact to bound read
// amplification; optionally the segments persist to a directory so a node
// restart recovers its registered filters.
package store

import (
	"encoding/binary"
	"errors"
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
	kindMerge     = 3 // append operand; read accumulates until a Put/Tombstone
)

// memRecord is the memtable state of one key. data is the value of a
// kindPut record; for kindMerge it holds the operands, oldest first, packed
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

// ops returns the merge operands oldest first (nil unless kindMerge), each
// aliasing the packed buffer: appends only ever write past what an earlier
// call saw, so the slices stay valid and immutable.
func (r *memRecord) ops() [][]byte {
	if r.kind != kindMerge {
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
type CF struct {
	name    string
	dir     string // "" = ephemeral
	flushAt int

	mu       sync.RWMutex
	mem      map[string]*memRecord
	memBytes int
	segments []*segment // newest first
	nextSeg  int
}

// Options configures a column family.
type Options struct {
	// FlushAt flushes the memtable after roughly this many bytes of keys
	// and values. Zero means 8 MiB.
	FlushAt int
}

// openCF creates or recovers a column family.
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
	var ids []int
	for _, e := range entries {
		base := e.Name()
		if !strings.HasSuffix(base, ".seg") {
			continue
		}
		id, err := strconv.Atoi(strings.TrimSuffix(base, ".seg"))
		if err != nil {
			continue
		}
		ids = append(ids, id)
	}
	sort.Sort(sort.Reverse(sort.IntSlice(ids))) // newest (highest id) first
	for _, id := range ids {
		seg, err := loadSegment(filepath.Join(dir, segName(id)))
		if err != nil {
			return nil, fmt.Errorf("store: recover segment %d: %w", id, err)
		}
		cf.segments = append(cf.segments, seg)
		if id >= cf.nextSeg {
			cf.nextSeg = id + 1
		}
	}
	return cf, nil
}

func segName(id int) string { return fmt.Sprintf("%06d.seg", id) }

// Name returns the column family name.
func (cf *CF) Name() string { return cf.name }

// Put stores a plain value for key.
func (cf *CF) Put(key string, val []byte) error {
	cf.mu.Lock()
	rec := &memRecord{kind: kindPut, data: append([]byte(nil), val...)}
	cf.chargeLocked(key, rec)
	cf.mem[key] = rec
	return cf.maybeFlushLocked() // unlocks
}

// Delete writes a tombstone for key.
func (cf *CF) Delete(key string) error {
	cf.mu.Lock()
	rec := &memRecord{kind: kindTombstone}
	cf.chargeLocked(key, rec)
	cf.mem[key] = rec
	return cf.maybeFlushLocked()
}

// Append adds a merge operand to key. Readers of merge keys use GetMerged,
// which concatenates all operands newest-to-oldest segments included. Put
// and Append must not be mixed on the same key.
func (cf *CF) Append(key string, op []byte) error {
	cf.mu.Lock()
	rec, ok := cf.mem[key]
	if !ok || rec.kind != kindMerge {
		rec = &memRecord{kind: kindMerge}
		cf.mem[key] = rec
	}
	rec.appendOp(op)
	cf.memBytes += len(key) + len(op) + 16
	return cf.maybeFlushLocked()
}

// chargeLocked accounts memtable size for a replace-style record.
func (cf *CF) chargeLocked(key string, rec *memRecord) {
	cf.memBytes += len(key) + len(rec.val()) + 16
}

// maybeFlushLocked flushes when the memtable is full. It releases the lock.
func (cf *CF) maybeFlushLocked() error {
	if cf.memBytes < cf.flushAt {
		cf.mu.Unlock()
		return nil
	}
	return cf.flushLocked()
}

// Get returns the plain value of key.
func (cf *CF) Get(key string) ([]byte, bool, error) {
	cf.mu.RLock()
	defer cf.mu.RUnlock()
	if rec, ok := cf.mem[key]; ok {
		switch rec.kind {
		case kindPut:
			return append([]byte(nil), rec.data...), true, nil
		case kindTombstone:
			return nil, false, nil
		case kindMerge:
			return nil, false, fmt.Errorf("store: Get on merge key %q: %w", key, ErrWrongKind)
		}
	}
	for _, seg := range cf.segments {
		e, ok := seg.get(key)
		if !ok {
			continue
		}
		switch e.kind {
		case kindPut:
			return append([]byte(nil), e.val...), true, nil
		case kindTombstone:
			return nil, false, nil
		case kindMerge:
			return nil, false, fmt.Errorf("store: Get on merge key %q: %w", key, ErrWrongKind)
		}
	}
	return nil, false, nil
}

// ErrWrongKind reports mixing plain and merge operations on one key.
var ErrWrongKind = errors.New("store: plain/merge operation mismatch")

// GetMerged returns all merge operands for key, oldest first.
func (cf *CF) GetMerged(key string) ([][]byte, error) {
	cf.mu.RLock()
	defer cf.mu.RUnlock()
	// Collect newest-to-oldest, then reverse layers: segments store ops
	// oldest-first within a layer.
	var layers [][][]byte
	if rec, ok := cf.mem[key]; ok {
		switch rec.kind {
		case kindTombstone:
			return nil, nil
		case kindPut:
			return nil, fmt.Errorf("store: GetMerged on plain key %q: %w", key, ErrWrongKind)
		case kindMerge:
			layers = append(layers, rec.ops())
		}
	}
	stop := false
	for _, seg := range cf.segments {
		if stop {
			break
		}
		e, ok := seg.get(key)
		if !ok {
			continue
		}
		switch e.kind {
		case kindTombstone:
			stop = true
		case kindPut:
			return nil, fmt.Errorf("store: GetMerged on plain key %q: %w", key, ErrWrongKind)
		case kindMerge:
			layers = append(layers, e.ops)
		}
	}
	var total int
	for _, l := range layers {
		total += len(l)
	}
	out := make([][]byte, 0, total)
	for i := len(layers) - 1; i >= 0; i-- {
		for _, op := range layers[i] {
			out = append(out, append([]byte(nil), op...))
		}
	}
	return out, nil
}

// Scan calls fn for every live key with the given prefix, in key order,
// with the key's newest plain value (merge keys are passed their
// concatenated operand count encoded implicitly — fn receives nil val and
// ops). Iteration stops if fn returns false.
func (cf *CF) Scan(prefix string, fn func(key string, val []byte, ops [][]byte) bool) error {
	type state struct {
		kind int
		val  []byte
		ops  [][]byte
		done bool // plain resolved or tombstoned
	}
	cf.mu.RLock()
	defer cf.mu.RUnlock()

	keys := make(map[string]*state)
	collect := func(key string, kind int, val []byte, ops [][]byte) {
		if !strings.HasPrefix(key, prefix) {
			return
		}
		st, ok := keys[key]
		if !ok {
			st = &state{kind: kind}
			keys[key] = st
		}
		if st.done {
			return
		}
		switch kind {
		case kindTombstone:
			st.done = true
			st.kind = kindTombstone
		case kindPut:
			st.val = append([]byte(nil), val...)
			st.kind = kindPut
			st.done = true
		case kindMerge:
			st.kind = kindMerge
			// Prepend older layers after newer ones are handled below; we
			// accumulate newest-first here and reverse at the end.
			st.ops = append(st.ops, ops...)
		}
	}
	for key, rec := range cf.mem {
		collect(key, rec.kind, rec.val(), rec.ops())
	}
	for _, seg := range cf.segments {
		for i := range seg.entries {
			e := &seg.entries[i]
			collect(e.key, e.kind, e.val, e.ops)
		}
	}

	ordered := make([]string, 0, len(keys))
	for k, st := range keys {
		if st.kind == kindTombstone {
			continue
		}
		ordered = append(ordered, k)
	}
	sort.Strings(ordered)
	for _, k := range ordered {
		st := keys[k]
		// Merge-op order across layers is unspecified in Scan; posting-list
		// consumers treat operands as a set. GetMerged provides
		// oldest-first order when it matters.
		if !fn(k, st.val, st.ops) {
			break
		}
	}
	return nil
}

// Flush forces the memtable into a new segment.
func (cf *CF) Flush() error {
	cf.mu.Lock()
	return cf.flushLocked()
}

// flushLocked writes the memtable to a segment and releases the lock.
func (cf *CF) flushLocked() error {
	if len(cf.mem) == 0 {
		cf.mu.Unlock()
		return nil
	}
	seg := newSegmentFromMem(cf.mem)
	id := cf.nextSeg
	cf.nextSeg++
	cf.mem = make(map[string]*memRecord)
	cf.memBytes = 0
	cf.segments = append([]*segment{seg}, cf.segments...)
	dir := cf.dir
	cf.mu.Unlock()

	if dir == "" {
		return nil
	}
	if err := seg.save(filepath.Join(dir, segName(id))); err != nil {
		return fmt.Errorf("store: flush cf %s: %w", cf.name, err)
	}
	return nil
}

// Compact merges all segments (not the memtable) into one, dropping
// superseded values and tombstoned history.
func (cf *CF) Compact() error {
	cf.mu.Lock()
	if len(cf.segments) <= 1 {
		cf.mu.Unlock()
		return nil
	}
	old := cf.segments
	merged := mergeSegments(old)
	id := cf.nextSeg
	cf.nextSeg++
	cf.segments = []*segment{merged}
	dir := cf.dir
	cf.mu.Unlock()

	if dir == "" {
		return nil
	}
	if err := merged.save(filepath.Join(dir, segName(id))); err != nil {
		return fmt.Errorf("store: compact cf %s: %w", cf.name, err)
	}
	// Old segment files are superseded; removal failures only waste disk.
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil
	}
	for _, e := range entries {
		if e.Name() == segName(id) || !strings.HasSuffix(e.Name(), ".seg") {
			continue
		}
		_ = os.Remove(filepath.Join(dir, e.Name()))
	}
	return nil
}

// Stats describes the column family's footprint.
type Stats struct {
	MemKeys      int
	MemBytes     int
	Segments     int
	SegmentKeys  int
	SegmentBytes int
}

// Stats returns a snapshot of the CF's size.
func (cf *CF) Stats() Stats {
	cf.mu.RLock()
	defer cf.mu.RUnlock()
	st := Stats{MemKeys: len(cf.mem), MemBytes: cf.memBytes, Segments: len(cf.segments)}
	for _, seg := range cf.segments {
		st.SegmentKeys += len(seg.entries)
		st.SegmentBytes += seg.bytes
	}
	return st
}

// segment is an immutable sorted run of records.
type segment struct {
	entries []segEntry // sorted by key
	bytes   int
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
		e := segEntry{key: key, kind: rec.kind, val: rec.val(), ops: rec.ops()}
		seg.bytes += len(key) + len(e.val) + 16
		for _, op := range e.ops {
			seg.bytes += len(op)
		}
		seg.entries = append(seg.entries, e)
	}
	sort.Slice(seg.entries, func(i, j int) bool { return seg.entries[i].key < seg.entries[j].key })
	return seg
}

func (s *segment) get(key string) (*segEntry, bool) {
	i := sort.Search(len(s.entries), func(i int) bool { return s.entries[i].key >= key })
	if i < len(s.entries) && s.entries[i].key == key {
		return &s.entries[i], true
	}
	return nil, false
}

// mergeSegments combines newest-first segments into one, applying
// supersede/merge semantics.
func mergeSegments(segs []*segment) *segment {
	type acc struct {
		kind int
		val  []byte
		ops  [][]byte // newest layer first during accumulation
		done bool
	}
	accs := make(map[string]*acc)
	for _, seg := range segs { // newest first
		for i := range seg.entries {
			e := &seg.entries[i]
			a, ok := accs[e.key]
			if !ok {
				a = &acc{kind: e.kind}
				accs[e.key] = a
			}
			if a.done {
				continue
			}
			switch e.kind {
			case kindTombstone:
				a.kind = kindTombstone
				a.done = true
			case kindPut:
				if a.kind != kindMerge {
					a.kind = kindPut
					a.val = e.val
				}
				a.done = true
			case kindMerge:
				a.kind = kindMerge
				a.ops = append(a.ops, e.ops...)
			}
		}
	}
	out := &segment{entries: make([]segEntry, 0, len(accs))}
	for key, a := range accs {
		if a.kind == kindTombstone {
			// Fully compacted: tombstones can be dropped once they are the
			// newest state across all merged segments.
			continue
		}
		e := segEntry{key: key, kind: a.kind, val: a.val}
		if a.kind == kindMerge {
			// Reverse accumulated layers to oldest-first.
			e.ops = make([][]byte, 0, len(a.ops))
			for i := len(a.ops) - 1; i >= 0; i-- {
				e.ops = append(e.ops, a.ops[i])
			}
		}
		out.bytes += len(key) + len(e.val) + 16
		for _, op := range e.ops {
			out.bytes += len(op)
		}
		out.entries = append(out.entries, e)
	}
	sort.Slice(out.entries, func(i, j int) bool { return out.entries[i].key < out.entries[j].key })
	return out
}

// save writes the segment to path atomically (write temp + rename).
func (s *segment) save(path string) error {
	w := codec.NewWriter(s.bytes + 64)
	w.Uvarint(uint64(len(s.entries)))
	for i := range s.entries {
		e := &s.entries[i]
		w.String(e.key)
		w.Uint8(uint8(e.kind))
		switch e.kind {
		case kindPut:
			w.Bytes0(e.val)
		case kindMerge:
			w.Uvarint(uint64(len(e.ops)))
			for _, op := range e.ops {
				w.Bytes0(op)
			}
		}
	}
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, w.Bytes(), 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, path)
}

// loadSegment reads a segment file.
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
	seg := &segment{entries: make([]segEntry, 0, n), bytes: len(data)}
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
			val, err := r.Bytes0()
			if err != nil {
				return nil, err
			}
			e.val = append([]byte(nil), val...)
		case kindTombstone:
		case kindMerge:
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
				e.ops = append(e.ops, append([]byte(nil), op...))
			}
		default:
			return nil, fmt.Errorf("store: segment %s bad record kind %d", path, e.kind)
		}
		seg.entries = append(seg.entries, e)
	}
	return seg, nil
}
