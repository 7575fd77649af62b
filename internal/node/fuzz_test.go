package node

import (
	"context"
	"errors"
	"runtime"
	"strings"
	"testing"

	"github.com/movesys/move/internal/alloc"
	"github.com/movesys/move/internal/bloom"
	"github.com/movesys/move/internal/codec"
	"github.com/movesys/move/internal/delivery"
	"github.com/movesys/move/internal/model"
	"github.com/movesys/move/internal/ring"
	"github.com/movesys/move/internal/testutil"
)

// handleSeeds is one real frame of every message type Handle accepts,
// publish frames first.
func handleSeeds(t testing.TB) [][]byte {
	t.Helper()
	docA := model.Document{ID: 7, Terms: []string{"alpha", "beta", "gamma"}}
	f := model.Filter{ID: 3, Subscriber: "alice", Terms: []string{"alpha", "beta"}, Mode: model.MatchAny}
	grid, err := alloc.NewGrid(1, 2, []ring.NodeID{"solo", "ghost"})
	if err != nil {
		t.Fatal(err)
	}
	bf := bloom.MustNew(64, 0.01)
	bf.Add("alpha")
	notifs := []delivery.Notification{{Sub: "alice", Filters: []model.FilterID{3}}}
	ref := encodeDeliverBatch(&delivery.Batch{DocID: docA.ID, Terms: docA.Terms, Ref: true, Notifs: notifs})
	return [][]byte{
		encodePublish(false, &docA, "alpha", "beta"),
		encodePublish(true, &docA, "beta", "gamma"),
		EncodeSIFT(&docA),
		EncodeRegister(RegisterReq{Filter: f, PostingTerms: []string{"alpha"}}),
		EncodeUnregister(3),
		EncodeUnregisterBatch([]model.FilterID{3, 4}),
		EncodeMigrate(MigrateReq{Epoch: 2, Entries: []RegisterReq{{Filter: f, PostingTerms: f.Terms}}}),
		EncodeStatsPull(),
		EncodeInstallBloom(bf.Marshal()),
		EncodeGossip([]byte{1, 2, 3}),
		EncodePrepareAlloc(2, grid),
		// An older coordinator's term-scoped prepare, refused.
		mustHex(t, termScopedPrepareHex),
		// A prepare with one byte after the grid, refused the same way.
		append(EncodePrepareAlloc(2, grid), 0),
		EncodeCommitGrid(2),
		EncodeAbortGrid(2),
		encodeDeliverBatch(&delivery.Batch{DocID: 7, Terms: docA.Terms, Notifs: notifs}),
		// The reference form names docA, which the fuzz node holds.
		ref,
		// A reference cut short: type, DocID, form and 5 of the digest's 8
		// bytes.
		ref[:8],
	}
}

// FuzzNodeHandle throws hostile bytes at the node's dispatcher — every frame
// type a peer or client can send. A frame may be refused, but it must never
// panic, never allocate beyond a fixed multiple of its own length (a length
// prefix is a claim, not a budget), and a frame refused while decoding must
// leave the node exactly as it was: counters, filters and epoch state — as
// must a prepare refused for bytes after its grid (errScopedPrepare). The
// retired drop and hard-flip types (10, 13) are unknown whatever follows
// them, so no frame takes a committed grid out of the forwarding table. The
// node has a delivery hub and holds the seeds' document, sent by the fuzz
// sender, so a reference batch resolves and enqueues within the same bound.
func FuzzNodeHandle(f *testing.F) {
	for _, seed := range handleSeeds(f) {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, payload []byte) {
		nd := newHarness(t, 1).nodes[0]
		// A resident filter and a committed grid, so publish frames reach the
		// matcher and the fan-out instead of an empty node.
		resident := model.Filter{ID: 1, Subscriber: "s", Terms: []string{"alpha"}, Mode: model.MatchAny}
		if _, err := nd.Handle(context.Background(), "seed", EncodeRegister(RegisterReq{Filter: resident, PostingTerms: resident.Terms})); err != nil {
			t.Fatal(err)
		}
		g, err := alloc.NewGrid(1, 1, []ring.NodeID{nd.ID()})
		if err != nil {
			t.Fatal(err)
		}
		if !nd.PrepareGrid(1, g) || !nd.CommitGrid(1) {
			t.Fatal("seed grid not installed")
		}
		hub := delivery.NewHub(delivery.Config{})
		defer hub.Stop()
		nd.cfg.Delivery = hub
		docA := model.Document{ID: 7, Terms: []string{"alpha", "beta", "gamma"}}
		if _, err := nd.Handle(context.Background(), "fuzz", encodePublish(false, &docA, "alpha")); err != nil {
			t.Fatal(err)
		}

		type state struct {
			stats                StatsResp
			filters              int
			committed, pendingEp uint64
			dual                 bool
		}
		snapshot := func() state {
			s := state{stats: nd.Stats(), filters: nd.Index().NumFilters()}
			s.committed, s.pendingEp, s.dual = nd.EpochInfo()
			return s
		}
		before := snapshot()
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		_, err = nd.Handle(context.Background(), "fuzz", payload)
		runtime.ReadMemStats(&m1)

		// The race detector's shadow allocations are not the frame's.
		if limit := uint64(1<<20 + 512*len(payload)); !testutil.RaceEnabled && m1.TotalAlloc-m0.TotalAlloc > limit {
			t.Fatalf("a %d-byte frame (type %d) allocated %d bytes, limit %d", len(payload), first(payload), m1.TotalAlloc-m0.TotalAlloc, limit)
		}
		if typ := first(payload); (typ == 10 || typ == 13) && (err == nil || !strings.Contains(err.Error(), "unknown message type")) {
			t.Fatalf("retired message type %d answered %v, want unknown message type", typ, err)
		}
		if g, _ := nd.Grid(); g == nil {
			t.Fatalf("frame type %d removed the committed node-wide grid; only a restart drops the table", first(payload))
		}
		if err != nil && (errors.Is(err, codec.ErrTruncated) || errors.Is(err, codec.ErrOverflow) || errors.Is(err, errScopedPrepare)) {
			if after := snapshot(); after != before {
				t.Fatalf("frame type %d refused with %v changed the node: %+v -> %+v", first(payload), err, before, after)
			}
		}
	})
}

func first(b []byte) int {
	if len(b) == 0 {
		return -1
	}
	return int(b[0])
}
