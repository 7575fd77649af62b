package node

import (
	"context"
	"testing"

	"github.com/movesys/move/internal/model"
	"github.com/movesys/move/internal/ring"
	"github.com/movesys/move/internal/store"
	"github.com/movesys/move/internal/transport"
)

// TestNodeRestartRecoversFilters exercises the restart path of a node with
// a persistent store: after a rebuild from the same data directory, the
// filters, posting lists, and load-accounting counters are all back.
func TestNodeRestartRecoversFilters(t *testing.T) {
	dir := t.TempDir()
	r := ring.New(ring.Config{})
	if err := r.Add(ring.Member{ID: "solo", Rack: "r0"}); err != nil {
		t.Fatal(err)
	}
	net := transport.NewNetwork(transport.NetworkConfig{})

	boot := func() *Node {
		t.Helper()
		st, err := store.Open(dir, store.Options{})
		if err != nil {
			t.Fatal(err)
		}
		nd, err := New(Config{ID: "solo", Rack: "r0", Ring: r, Store: st})
		if err != nil {
			t.Fatal(err)
		}
		tr := net.Join("solo", nd.Handle)
		nd.Attach(tr)
		return nd
	}

	nd := boot()
	ctx := context.Background()
	for i := 1; i <= 25; i++ {
		f := model.Filter{ID: model.FilterID(i), Subscriber: "s", Terms: []string{"alerts", "extra"}, Mode: model.MatchAny}
		payload := EncodeRegister(RegisterReq{Filter: f, PostingTerms: []string{"alerts"}})
		if _, err := nd.Handle(ctx, "client", payload); err != nil {
			t.Fatal(err)
		}
	}
	// "Restart" without closing anything, as after kill -9: rebuild
	// everything from the same directory.
	nd2 := boot()
	if got := nd2.Index().NumFilters(); got != 25 {
		t.Fatalf("recovered NumFilters = %d, want 25", got)
	}
	if got := nd2.Index().NumPostings(); got != 25 {
		t.Fatalf("recovered NumPostings = %d, want 25", got)
	}
	doc := &model.Document{ID: 9, Terms: []string{"alerts"}}
	matches, _, err := nd2.PublishEntry(ctx, doc)
	if err != nil {
		t.Fatal(err)
	}
	if len(matches) != 25 {
		t.Fatalf("matches after restart = %d, want 25", len(matches))
	}
}
