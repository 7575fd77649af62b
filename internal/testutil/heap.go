package testutil

import "runtime"

// HeapNow returns the live heap after a full collection — what the memory
// budget tests read before and after building what they price.
func HeapNow() uint64 {
	var ms runtime.MemStats
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}
