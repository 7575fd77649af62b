package store

import (
	"strconv"
	"testing"
)

func BenchmarkPut(b *testing.B) {
	cf := tempCF(b)
	val := []byte("0123456789abcdef")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := cf.Put("key-"+strconv.Itoa(i%65536), val); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkScanLog is the recovery read: the log read and replayed, and
// every live key of the column family walked once.
func BenchmarkScanLog(b *testing.B) {
	cf := tempCF(b)
	for i := 0; i < 65536; i++ {
		if err := cf.Put("key-"+strconv.Itoa(i), []byte("v")); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := cf.Scan(func(string, []byte) bool { return true }); err != nil {
			b.Fatal(err)
		}
	}
}
