package node

import (
	"context"
	"fmt"
	"sync"

	"github.com/movesys/move/internal/codec"
	"github.com/movesys/move/internal/delivery"
	"github.com/movesys/move/internal/model"
	"github.com/movesys/move/internal/ring"
)

// msgDeliverBatch routes a matched document's notifications to the session
// owner of each subscriber: one frame per destination node carrying the
// document once plus every (subscriber, matched-filter-IDs) pair whose
// session that node owns — the same coalescing discipline as the publish
// fan-out (§12), applied to the last mile (§14).
const msgDeliverBatch = 26

// handleDeliverBatch lands a routed delivery batch on the session owner:
// the notifications enqueue into its hub's subscriber sessions. A node
// without a hub refuses the batch, so the sender accounts the notifications
// as lost (delivery.route.failures / route.lost / OnDeliveryLoss) instead of
// believing them delivered.
func (n *Node) handleDeliverBatch(r *codec.Reader) error {
	b, err := delivery.DecodeBatch(r)
	if err != nil {
		return err
	}
	hub := n.cfg.Delivery
	if hub == nil {
		return fmt.Errorf("node %s: no delivery hub: %d notification(s) for doc %d refused", n.cfg.ID, len(b.Notifs), b.DocID)
	}
	// One batched call: session lookups group by registry shard, so a
	// thousand-subscriber fan-out costs a handful of lock acquisitions
	// instead of one per subscriber.
	hub.DeliverBatch(b.DocID, b.Terms, b.Notifs)
	return nil
}

// groupMatchesBySub folds a deduplicated match set into per-subscriber
// notifications (a subscriber with several matching filters gets one
// notification carrying all their IDs), in first-match order. Every
// notification's Filters is carved from one backing array: the first pass
// counts each subscriber's matches, the second fills slices capped at their
// count, so a subscriber with several filters cannot write into its
// neighbour's.
func groupMatchesBySub(matches []Match) []delivery.Notification {
	idx := make(map[string]int, len(matches))
	notifs := make([]delivery.Notification, 0, len(matches))
	counts := make([]int, 0, len(matches))
	for _, m := range matches {
		i, ok := idx[m.Subscriber]
		if !ok {
			i = len(notifs)
			idx[m.Subscriber] = i
			notifs = append(notifs, delivery.Notification{Sub: m.Subscriber})
			counts = append(counts, 0)
		}
		counts[i]++
	}
	backing := make([]model.FilterID, len(matches))
	off := 0
	for i, n := range counts {
		notifs[i].Filters = backing[off : off : off+n]
		off += n
	}
	for _, m := range matches {
		i := idx[m.Subscriber]
		notifs[i].Filters = append(notifs[i].Filters, m.Filter)
	}
	return notifs
}

// routeDeliveries ships a matched document's notifications to each
// subscriber's session owner (the home node of "subscriber/<name>"): one
// msgDeliverBatch per distinct owner, all frames built in pooled writers
// before the first goroutine spawns (DESIGN.md §11). Routing is
// best-effort: a failed owner RPC is counted, and the affected subscribers
// are reported through OnDeliveryLoss so loss is accounted, never silent —
// publish completion does not block on slow consumers beyond these sends.
func (n *Node) routeDeliveries(ctx context.Context, doc *model.Document, matches []Match) {
	notifs := groupMatchesBySub(matches)
	batches := make(map[ring.NodeID]*delivery.Batch)
	var unrouted []string
	for i := range notifs {
		home, err := n.cfg.Ring.HomeNode("subscriber/" + notifs[i].Sub)
		if err != nil {
			unrouted = append(unrouted, notifs[i].Sub)
			continue
		}
		b := batches[home]
		if b == nil {
			b = &delivery.Batch{DocID: doc.ID, Terms: doc.Terms}
			batches[home] = b
		}
		b.Notifs = append(b.Notifs, notifs[i])
	}
	if len(unrouted) > 0 {
		n.routeFailures.Inc()
		n.routeLost.Add(int64(len(unrouted)))
		if n.cfg.OnDeliveryLoss != nil {
			n.cfg.OnDeliveryLoss(doc.ID, unrouted)
		}
	}
	if len(batches) == 0 {
		return
	}

	type dest struct {
		home  ring.NodeID
		frame *codec.Writer
		batch *delivery.Batch
	}
	dests := make([]dest, 0, len(batches))
	for home, b := range batches {
		pw := codec.GetWriter()
		pw.Uint8(msgDeliverBatch)
		delivery.AppendBatch(pw, b)
		dests = append(dests, dest{home: home, frame: pw, batch: b})
		n.routeRPCs.Inc()
		n.routeSubs.Add(int64(len(b.Notifs)))
	}
	var wg sync.WaitGroup
	for i := range dests {
		wg.Add(1)
		go func(d *dest) {
			defer wg.Done()
			_, err := n.send(ctx, d.home, d.frame.Bytes())
			codec.PutWriter(d.frame)
			if err == nil {
				return
			}
			n.routeFailures.Inc()
			n.routeLost.Add(int64(len(d.batch.Notifs)))
			if n.cfg.OnDeliveryLoss != nil {
				subs := make([]string, len(d.batch.Notifs))
				for j := range d.batch.Notifs {
					subs[j] = d.batch.Notifs[j].Sub
				}
				n.cfg.OnDeliveryLoss(doc.ID, subs)
			}
		}(&dests[i])
	}
	wg.Wait()
}
