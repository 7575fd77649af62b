package store

import (
	"strconv"
	"testing"
)

func BenchmarkPut(b *testing.B) {
	cf := tempCF(b, Options{})
	val := []byte("0123456789abcdef")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := cf.Put("key-"+strconv.Itoa(i%65536), val); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAppendPosting(b *testing.B) {
	cf := tempCF(b, Options{})
	op := []byte{1, 2, 3, 4}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := cf.Append("term-"+strconv.Itoa(i%1024), op); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkScanSegments is the recovery read: every segment file loaded,
// merged with the memtable and walked once.
func BenchmarkScanSegments(b *testing.B) {
	cf := tempCF(b, Options{})
	for i := 0; i < 65536; i++ {
		if err := cf.Put("key-"+strconv.Itoa(i), []byte("v")); err != nil {
			b.Fatal(err)
		}
		if err := cf.Append("term-"+strconv.Itoa(i%1024), []byte{byte(i)}); err != nil {
			b.Fatal(err)
		}
		if i%24576 == 24575 {
			if err := cf.Flush(); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := cf.Scan("", func(string, []byte, [][]byte) bool { return true }); err != nil {
			b.Fatal(err)
		}
	}
}
