package node

import (
	"context"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/movesys/move/internal/model"
	"github.com/movesys/move/internal/ring"
	"github.com/movesys/move/internal/store"
)

// BenchmarkRegisterDurable prices a registration answered by a node over a
// data directory: the register frame through Handle, whatever the store does
// before the answer included. "serial" is one registrar; "parallel" is 8
// b.RunParallel registrars a CPU, whose frames can share an fsync. Each reports
// the p99 and the slowest of one register in µs beside ns/op. `make
// bench-durable` runs it as
//
//	go test -run='^$' -bench=BenchmarkRegisterDurable -benchtime=100000x ./internal/node
func BenchmarkRegisterDurable(b *testing.B) {
	r := ring.New(ring.Config{})
	if err := r.Add(ring.Member{ID: "solo", Rack: "r0"}); err != nil {
		b.Fatal(err)
	}
	for _, parallel := range []bool{false, true} {
		name := map[bool]string{false: "serial", true: "parallel"}[parallel]
		b.Run(name, func(b *testing.B) {
			st, err := store.Open(b.TempDir(), store.Options{})
			if err != nil {
				b.Fatal(err)
			}
			nd, err := New(Config{ID: "solo", Rack: "r0", Ring: r, Store: st})
			if err != nil {
				b.Fatal(err)
			}
			var next atomic.Int64
			var mu sync.Mutex
			var lat []time.Duration
			register := func(local *[]time.Duration) {
				id := next.Add(1)
				term := fmt.Sprintf("t%d", id%64)
				f := model.Filter{ID: model.FilterID(id), Subscriber: fmt.Sprintf("s%d", id%256), Terms: []string{term, "news"}, Mode: model.MatchAny}
				frame := EncodeRegister(RegisterReq{Filter: f, PostingTerms: f.Terms})
				start := time.Now()
				if _, err := nd.Handle(context.Background(), "client", frame); err != nil {
					b.Error(err)
				}
				*local = append(*local, time.Since(start))
			}
			b.ResetTimer()
			if parallel {
				b.SetParallelism(8)
				b.RunParallel(func(pb *testing.PB) {
					var local []time.Duration
					for pb.Next() {
						register(&local)
					}
					mu.Lock()
					lat = append(lat, local...)
					mu.Unlock()
				})
			} else {
				for i := 0; i < b.N; i++ {
					register(&lat)
				}
			}
			b.StopTimer()
			slices.Sort(lat)
			b.ReportMetric(float64(lat[len(lat)*99/100].Microseconds()), "p99-us")
			b.ReportMetric(float64(lat[len(lat)-1].Microseconds()), "max-us")
		})
	}
}
