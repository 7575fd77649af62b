// Package store implements the node-local durability layer beneath two of
// MOVE's data stores (§V, Figure 3): the filter store and the local inverted
// list. A home's posting lists are a function of the filters it holds and
// the terms it posts each one under, so one record per filter — its
// definition and those terms — keeps both. The store is the commit log of
// the BigTable/Cassandra column families the paper builds on, and nothing
// else: each write is one record appended with its own write(2), so a
// process killed after a write returns loses none of it, and Sync makes it
// durable against a machine crash. Nothing reads the store while a node runs
// — the index's shards answer — so the only reader is Scan, which a
// restarted node runs once.
package store

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
)

// logName is the log's file name inside the data directory.
const logName = "commit.log"

// rewriteFloor is the log size below which Sync never rewrites it.
const rewriteFloor = 64 << 10

var errNoLog = errors.New("store: no log to write to (no data directory, or closed)")

// Options configures a store. It has no fields.
type Options struct{}

// Replay describes what Open read back from the log.
type Replay struct {
	Records   int   // records replayed
	Bytes     int64 // log bytes kept
	Truncated int64 // bytes of a torn or corrupt tail cut off the log
}

// Store is a set of named column families sharing one commit log in an
// (optional) data directory — one Store per MOVE node. All methods are safe
// for concurrent use.
type Store struct {
	dir    string
	replay Replay

	mu   sync.Mutex // serialises appends, reads and the rewrite
	f    *os.File   // nil without a directory, and after Close
	size int64      // bytes in the log
	base int64      // size after Open or the last rewrite
	buf  []byte     // record scratch

	written atomic.Int64 // bytes ever appended, across rewrites

	syncMu   sync.Mutex
	syncDone sync.Cond // on syncMu: an fsync ended
	syncing  bool      // an fsync runs
	synced   int64     // written as of the last fsync
}

// Open creates a store rooted at dir and replays its log, cutting off a torn
// or corrupt tail: the bytes from the first record whose length or checksum
// fails, or whose body holds no family and kind. A whole record it cannot
// read — an older build's merge records among them — fails Open, naming the
// file and the record, and the file is left as it is. dir == "" keeps
// nothing: Scan finds nothing and a write fails (the index writes to no such
// store).
func Open(dir string, _ Options) (*Store, error) {
	s := &Store{dir: dir}
	s.syncDone.L = &s.syncMu
	if dir == "" {
		return s, nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: create dir: %w", err)
	}
	// An older build kept each column family as sorted segment files; a
	// directory of them must not look empty to this one.
	if segs, _ := filepath.Glob(filepath.Join(dir, "*", "[0-9][0-9][0-9][0-9][0-9][0-9]*.seg")); len(segs) > 0 {
		return nil, fmt.Errorf("store: %s is a segment file of an older build; this build reads only the commit log %s", segs[0], logName)
	}
	path := filepath.Join(dir, logName)
	_ = os.Remove(path + ".tmp") // an unfinished rewrite: the next one truncates it anyway
	data, err := os.ReadFile(path)
	if err != nil && !errors.Is(err, os.ErrNotExist) {
		return nil, fmt.Errorf("store: read log: %w", err)
	}
	kept := 0
	for {
		_, n, err := nextRecord(data[kept:])
		if err != nil {
			return nil, fmt.Errorf("store: %s: record %d at byte %d: %w; this build reads only puts and deletes, and left the log as it is",
				path, s.replay.Records+1, kept, err)
		}
		if n == 0 {
			break
		}
		kept += n
		s.replay.Records++
	}
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("store: open log: %w", err)
	}
	// Cut a torn tail, if any, so the next record follows the last good one.
	if err := errors.Join(f.Truncate(int64(kept)), f.Sync(), syncDir(dir)); err != nil {
		f.Close()
		return nil, fmt.Errorf("store: cut and sync log: %w", err)
	}
	s.replay.Bytes, s.replay.Truncated = int64(kept), int64(len(data)-kept)
	s.f, s.size, s.base = f, int64(kept), int64(kept)
	return s, nil
}

// Durable reports whether the store has a data directory: the index writes
// through to one that has, and to no other.
func (s *Store) Durable() bool { return s.dir != "" }

// Replayed reports what Open read back from the log.
func (s *Store) Replayed() Replay { return s.replay }

// CF returns the named column family.
func (s *Store) CF(name string) *CF { return &CF{s: s, name: name} }

// write appends one record to the log with its own write(2). A failed write
// is cut off again, so no later record follows a torn one.
func (s *Store) write(cf string, kind byte, key string, payload []byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.f == nil {
		return errNoLog
	}
	s.buf = appendRecord(s.buf[:0], cf, kind, key, payload)
	if _, err := s.f.Write(s.buf); err != nil {
		return errors.Join(fmt.Errorf("store: append: %w", err), s.f.Truncate(s.size))
	}
	s.size += int64(len(s.buf))
	s.written.Add(int64(len(s.buf)))
	return nil
}

// Sync makes every record written before the call durable. It is a group
// commit: a caller whose records an earlier fsync already covered returns at
// once, and the callers that arrive while an fsync runs wait for it and then
// share the next. The Sync that finds the log doubled since its last rewrite,
// and past rewriteFloor, rewrites it instead.
func (s *Store) Sync() error {
	if s.dir == "" {
		return nil
	}
	target := s.written.Load()
	s.syncMu.Lock()
	defer s.syncMu.Unlock()
	for s.syncing && s.synced < target {
		s.syncDone.Wait()
	}
	if s.synced >= target {
		return nil
	}
	s.syncing = true
	s.syncMu.Unlock()
	end, err := s.syncLog()
	s.syncMu.Lock()
	if err == nil {
		s.synced = max(s.synced, end)
	}
	s.syncing = false
	s.syncDone.Broadcast()
	return err
}

// syncLog fsyncs or rewrites the log and returns the written bytes it covers.
func (s *Store) syncLog() (int64, error) {
	s.mu.Lock()
	f, end := s.f, s.written.Load()
	if s.size >= rewriteFloor && s.size >= 2*s.base {
		defer s.mu.Unlock()
		return end, s.rewriteLocked()
	}
	s.mu.Unlock()
	if err := f.Sync(); err != nil {
		return 0, fmt.Errorf("store: sync log: %w", err)
	}
	return end, nil
}

// Close syncs and closes the log once the fsync in flight ends. Idempotent.
func (s *Store) Close() error {
	s.syncMu.Lock()
	defer s.syncMu.Unlock()
	for s.syncing {
		s.syncDone.Wait()
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.f == nil {
		return nil
	}
	err := errors.Join(s.f.Sync(), s.f.Close())
	s.f, s.synced = nil, s.written.Load()
	return err
}

// rewriteLocked replaces the log with one record per live key through a
// temporary file: a crash leaves the old log or the new one.
func (s *Store) rewriteLocked() error {
	data, err := s.readLocked()
	if err != nil {
		return err
	}
	cfs := replay(data)
	var out []byte
	for _, cf := range sortedKeys(cfs) {
		for _, key := range sortedKeys(cfs[cf]) {
			out = appendRecord(out, cf, kindPut, key, cfs[cf][key])
		}
	}
	path := filepath.Join(s.dir, logName)
	f, err := os.OpenFile(path+".tmp", os.O_RDWR|os.O_CREATE|os.O_TRUNC|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("store: rewrite log: %w", err)
	}
	_, err = f.Write(out)
	if err = errors.Join(err, f.Sync()); err == nil {
		err = os.Rename(path+".tmp", path)
	}
	if err != nil {
		f.Close()
		os.Remove(path + ".tmp")
		return fmt.Errorf("store: rewrite log: %w", err)
	}
	_ = s.f.Close() // the renamed file holds every record it did
	s.f, s.size, s.base = f, int64(len(out)), int64(len(out))
	return syncDir(s.dir)
}

// readLocked returns the log's bytes: nothing without a data directory, an
// error once closed.
func (s *Store) readLocked() ([]byte, error) {
	if s.dir == "" {
		return nil, nil
	}
	data := make([]byte, s.size)
	if _, err := s.f.ReadAt(data, 0); err != nil {
		return nil, fmt.Errorf("store: read log: %w", err)
	}
	return data, nil
}

// syncDir makes a file's creation or rename in dir durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	return errors.Join(d.Sync(), d.Close())
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
