package store

import (
	"encoding/binary"
	"hash/crc32"
	"strings"
)

// Record kinds. Log order cuts history: a put or a delete supersedes
// everything the key had, and a merge appends to what a merge before it
// left, or starts the key afresh.
const (
	kindPut    = 1 // plain value
	kindDelete = 2
	kindMerge  = 3 // one or more append operands
)

// A record is its body's length and the body's CRC-32C, both 4 bytes
// little-endian, then the body: the column family (a uvarint length and its
// bytes), the kind byte, the key (the same way), and the payload — a put's
// value, nothing for a delete, a merge's operands (each a uvarint length and
// its bytes).
const headerLen = 8

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// CF is one column family: a name its records carry in the store's log.
type CF struct {
	s    *Store
	name string
}

// Put stores a plain value for key.
func (cf *CF) Put(key string, val []byte) error { return cf.s.write(cf.name, kindPut, key, val) }

// Delete removes key.
func (cf *CF) Delete(key string) error { return cf.s.write(cf.name, kindDelete, key, nil) }

// Append adds a merge operand to key; Scan hands a merge key all its
// operands since it was last deleted or put, oldest first.
func (cf *CF) Append(key string, op []byte) error {
	return cf.s.write(cf.name, kindMerge, key, packOps(make([]byte, 0, len(op)+binary.MaxVarintLen64), op))
}

// Scan replays the log and calls fn for every live key with the given
// prefix, in key order: a plain key with its newest value, a merge key with
// its operands oldest first. val and ops are only valid during the call.
// Iteration stops if fn returns false.
func (cf *CF) Scan(prefix string, fn func(key string, val []byte, ops [][]byte) bool) error {
	cf.s.mu.Lock()
	data, err := cf.s.readLocked()
	cf.s.mu.Unlock()
	if err != nil {
		return err
	}
	keys := replay(data, cf.name)[cf.name]
	for _, key := range sortedKeys(keys) {
		if e := keys[key]; strings.HasPrefix(key, prefix) && !fn(key, e.val, e.ops) {
			break
		}
	}
	return nil
}

// entry is a live key: a put's value, or a merge key's operands.
type entry struct {
	merge bool
	val   []byte
	ops   [][]byte
}

// replay folds a log's records into each column family's live keys —
// only's alone, unless only is "" — up to the first record that does not
// decode. The entries alias data.
func replay(data []byte, only string) map[string]map[string]entry {
	cfs := make(map[string]map[string]entry)
	for r, n := nextRecord(data); n > 0; r, n = nextRecord(data) {
		data = data[n:]
		if only != "" && string(r.cf) != only {
			continue
		}
		keys := cfs[string(r.cf)]
		if keys == nil {
			keys = make(map[string]entry)
			cfs[string(r.cf)] = keys
		}
		switch r.kind {
		case kindPut:
			keys[string(r.key)] = entry{val: r.payload}
		case kindDelete:
			delete(keys, string(r.key))
		case kindMerge:
			e := keys[string(r.key)]
			if !e.merge {
				e = entry{merge: true}
			}
			for ops := r.payload; len(ops) > 0; {
				l, w := binary.Uvarint(ops)
				e.ops = append(e.ops, ops[w:w+int(l):w+int(l)])
				ops = ops[w+int(l):]
			}
			keys[string(r.key)] = e
		}
	}
	return cfs
}

type record struct {
	cf, key, payload []byte
	kind             byte
}

// nextRecord decodes the record at the front of b and returns it with its
// length; n == 0 means b does not start with a whole, valid record.
func nextRecord(b []byte) (r record, n int) {
	if len(b) < headerLen {
		return r, 0
	}
	l := binary.LittleEndian.Uint32(b)
	if uint64(l) > uint64(len(b)-headerLen) {
		return r, 0
	}
	body := b[headerLen : headerLen+int(l)]
	if crc32.Checksum(body, castagnoli) != binary.LittleEndian.Uint32(b[4:]) {
		return r, 0
	}
	var ok bool
	if r.cf, body, ok = field(body); !ok || len(body) == 0 {
		return r, 0
	}
	r.kind = body[0]
	if r.key, r.payload, ok = field(body[1:]); !ok {
		return r, 0
	}
	switch r.kind {
	case kindPut:
	case kindDelete:
		ok = len(r.payload) == 0
	case kindMerge:
		for ops := r.payload; ok && len(ops) > 0; {
			_, ops, ok = field(ops)
		}
	default:
		ok = false
	}
	if !ok {
		return r, 0
	}
	return r, headerLen + int(l)
}

// field splits a uvarint-length-prefixed field off the front of b.
func field(b []byte) (f, rest []byte, ok bool) {
	l, w := binary.Uvarint(b)
	if w <= 0 || l > uint64(len(b)-w) {
		return nil, nil, false
	}
	return b[w : w+int(l)], b[w+int(l):], true
}

// appendRecord encodes one record onto b.
func appendRecord(b []byte, cf string, kind byte, key string, payload []byte) []byte {
	start := len(b)
	b = append(b, make([]byte, headerLen)...)
	b = binary.AppendUvarint(b, uint64(len(cf)))
	b = append(b, cf...)
	b = append(b, kind)
	b = binary.AppendUvarint(b, uint64(len(key)))
	b = append(b, key...)
	b = append(b, payload...)
	body := b[start+headerLen:]
	binary.LittleEndian.PutUint32(b[start:], uint32(len(body)))
	binary.LittleEndian.PutUint32(b[start+4:], crc32.Checksum(body, castagnoli))
	return b
}

// packOps encodes merge operands onto b.
func packOps(b []byte, ops ...[]byte) []byte {
	for _, op := range ops {
		b = binary.AppendUvarint(b, uint64(len(op)))
		b = append(b, op...)
	}
	return b
}
