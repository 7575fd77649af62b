package store

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
)

// Record kinds. Log order cuts history: a put or a delete supersedes
// everything the key had.
const (
	kindPut    = 1 // plain value
	kindDelete = 2
)

// A record is its body's length and the body's CRC-32C, both 4 bytes
// little-endian, then the body: the column family (a uvarint length and its
// bytes), the kind byte, the key (the same way), and the payload — a put's
// value, nothing for a delete.
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

// Scan replays the log and calls fn for every live key, in key order, with
// its newest value, which is only valid during the call. Iteration stops if
// fn returns false.
func (cf *CF) Scan(fn func(key string, val []byte) bool) error {
	cf.s.mu.Lock()
	data, err := cf.s.readLocked()
	cf.s.mu.Unlock()
	if err != nil {
		return err
	}
	keys := replay(data)[cf.name]
	for _, key := range sortedKeys(keys) {
		if !fn(key, keys[key]) {
			break
		}
	}
	return nil
}

// replay folds a log's records into each column family's live keys and
// their values, which alias data. data holds whole records this build reads:
// Open cut or refused everything else.
func replay(data []byte) map[string]map[string][]byte {
	cfs := make(map[string]map[string][]byte)
	for r, n, _ := nextRecord(data); n > 0; r, n, _ = nextRecord(data) {
		data = data[n:]
		keys := cfs[string(r.cf)]
		if keys == nil {
			keys = make(map[string][]byte)
			cfs[string(r.cf)] = keys
		}
		if r.kind == kindPut {
			keys[string(r.key)] = r.payload
		} else {
			delete(keys, string(r.key))
		}
	}
	return cfs
}

type record struct {
	cf, key, payload []byte
	kind             byte
}

// nextRecord decodes the record at the front of b and returns it with its
// length. n == 0 means b does not start with a whole record whose checksum
// holds and whose body holds a family and a kind — a torn or corrupt tail,
// such as the zeros a power cut can leave past the last write (an all-zero
// header checks out over an empty body, which no write makes). A non-nil
// error means b starts with such a record, but not one this build reads.
func nextRecord(b []byte) (r record, n int, err error) {
	if len(b) < headerLen {
		return r, 0, nil
	}
	l := binary.LittleEndian.Uint32(b)
	if uint64(l) > uint64(len(b)-headerLen) {
		return r, 0, nil
	}
	body := b[headerLen : headerLen+int(l)]
	if crc32.Checksum(body, castagnoli) != binary.LittleEndian.Uint32(b[4:]) {
		return r, 0, nil
	}
	var ok bool
	if r.cf, body, ok = field(body); !ok || len(body) == 0 {
		return r, 0, nil
	}
	n = headerLen + int(l)
	r.kind = body[0]
	if r.key, r.payload, ok = field(body[1:]); !ok {
		return r, n, fmt.Errorf("family %q kind %d: no key", r.cf, r.kind)
	}
	if r.kind != kindPut && (r.kind != kindDelete || len(r.payload) != 0) {
		return r, n, fmt.Errorf("family %q kind %d key %x: not a put or a delete", r.cf, r.kind, r.key)
	}
	return r, n, nil
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
