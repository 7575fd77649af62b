package daemon

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	"github.com/movesys/move/internal/alloc"
	"github.com/movesys/move/internal/model"
	"github.com/movesys/move/internal/node"
	"github.com/movesys/move/internal/ring"
	"github.com/movesys/move/internal/transport"
)

// TestCrossingForwardsOverOneStripe starts two daemons over TCP with one
// connection each way (Conns: 1), each serving its terms through a 2×1 grid
// whose second row is the other. Each registers filters at the other, which
// forwards every copy back to its grid column across the same two
// connections, while publishes entered at both fan out through the grids:
// a handler on each side waits on the peer's reader while a handler on the
// peer waits on its own. Every call completes, because a handler detaches
// from its connection's reader before it sends (Node.send calls
// transport.Detach); without that the two readers wait on each other and
// the calls run out their deadline.
func TestCrossingForwardsOverOneStripe(t *testing.T) {
	ids := []ring.NodeID{"x0", "x1"}
	r := ring.New(ring.Config{})
	for _, id := range ids {
		if err := r.Add(ring.Member{ID: id, Rack: "rack-0"}); err != nil {
			t.Fatal(err)
		}
	}
	var mu sync.Mutex
	addrs := map[ring.NodeID]string{}
	resolve := func(id ring.NodeID) (string, error) {
		mu.Lock()
		defer mu.Unlock()
		if a, ok := addrs[id]; ok {
			return a, nil
		}
		return "", transport.ErrNodeDown
	}
	ds := make([]*Daemon, len(ids))
	for i, id := range ids {
		d, err := Start(Config{ID: id, Rack: "rack-0", Ring: r}, func(h transport.Handler) (transport.Transport, error) {
			tn, err := transport.NewTCPOpts(id, "127.0.0.1:0", h, resolve, transport.TCPOptions{Conns: 1})
			if err != nil {
				return nil, err
			}
			mu.Lock()
			addrs[id] = tn.Addr()
			mu.Unlock()
			return tn, nil
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = d.Close() })
		ds[i] = d
	}
	for i, d := range ds {
		g, err := alloc.NewGrid(2, 1, []ring.NodeID{ids[i], ids[1-i]})
		if err != nil {
			t.Fatal(err)
		}
		if !d.Node.PrepareGrid(1, g) || !d.Node.CommitGrid(1) {
			t.Fatalf("%s: grid not installed", ids[i])
		}
	}

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	const perSide = 40
	errs := make(chan error, 2*len(ds)*perSide)
	var wg sync.WaitGroup
	for i, d := range ds {
		to := ids[1-i]
		for k := 0; k < perSide; k++ {
			terms := []string{"alpha", fmt.Sprintf("t%d", k)}
			f := model.Filter{ID: model.FilterID(1000*(i+1) + k), Subscriber: "s", Terms: terms, Mode: model.MatchAny}
			doc := model.Document{ID: uint64(1000*(i+1) + k), Terms: terms}
			wg.Add(2)
			go func() {
				defer wg.Done()
				if _, err := d.tr.Send(ctx, to, node.EncodeRegister(node.RegisterReq{Filter: f, PostingTerms: terms})); err != nil {
					errs <- fmt.Errorf("%s registers filter %d at %s: %w", ids[i], f.ID, to, err)
				}
			}()
			go func() {
				defer wg.Done()
				if _, _, err := d.Node.PublishEntry(ctx, &doc); err != nil {
					errs <- fmt.Errorf("%s publishes doc %d: %w", ids[i], doc.ID, err)
				}
			}()
		}
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	// Each node holds the filters registered at it and their copies
	// forwarded from the other: its column in the other row.
	for i, d := range ds {
		if got := d.Node.Stats().Filters; got != 2*perSide {
			t.Errorf("%s holds %d filters, want %d", ids[i], got, 2*perSide)
		}
	}
}
