package store

import (
	"fmt"
	"path/filepath"
	"sync"
)

// Store is a set of named column families sharing one (optional) data
// directory — one Store per MOVE node.
type Store struct {
	dir  string
	opts Options

	mu  sync.Mutex
	cfs map[string]*CF
}

// Open creates a store rooted at dir; dir == "" keeps everything in memory
// (the mode used by tests, benchmarks, and the cluster simulator).
func Open(dir string, opts Options) (*Store, error) {
	return &Store{dir: dir, opts: opts, cfs: make(map[string]*CF)}, nil
}

// Durable reports whether the store has a data directory. Writing to one
// that has none buys nothing a restart could recover, so the index consults
// this once and skips its write-through altogether.
func (s *Store) Durable() bool { return s.dir != "" }

// CF returns (opening or recovering on first use) the named column family.
func (s *Store) CF(name string) (*CF, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if cf, ok := s.cfs[name]; ok {
		return cf, nil
	}
	dir := ""
	if s.dir != "" {
		dir = filepath.Join(s.dir, name)
	}
	cf, err := openCF(name, dir, s.opts)
	if err != nil {
		return nil, fmt.Errorf("store: open cf %s: %w", name, err)
	}
	s.cfs[name] = cf
	return cf, nil
}

// FlushAll flushes every open column family — what a clean shutdown calls,
// since there is no write-ahead log to replay the memtables from.
func (s *Store) FlushAll() error {
	s.mu.Lock()
	cfs := make([]*CF, 0, len(s.cfs))
	for _, cf := range s.cfs {
		cfs = append(cfs, cf)
	}
	s.mu.Unlock()
	for _, cf := range cfs {
		if err := cf.Flush(); err != nil {
			return err
		}
	}
	return nil
}
