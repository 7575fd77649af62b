package node

// The last mile (DESIGN.md §14): one msgDeliverBatch per session owner. The
// owner is usually a home that just matched the document, so it holds it
// (heldDocs) and the batch names it; an owner that does not answers "not
// held" and gets it inline. Correctness never rests on a hit, only bytes do.

import (
	"context"
	"fmt"
	"slices"
	"sync"

	"github.com/movesys/move/internal/codec"
	"github.com/movesys/move/internal/delivery"
	"github.com/movesys/move/internal/model"
	"github.com/movesys/move/internal/ring"
)

// msgDeliverBatch routes a matched document's notifications to the session
// owner of each subscriber: one frame per destination node carrying the
// document at most once plus every (subscriber, matched-filter-IDs) pair
// whose session that node owns — the same coalescing discipline as the
// publish fan-out (§12). The answer is empty, or deliverNotHeld.
const msgDeliverBatch = 30

// deliverNotHeld is the whole answer of an owner that does not hold the
// document a reference batch names. It enqueued nothing; the sender re-sends
// the batch inline.
const deliverNotHeld = 1

// heldCap is the number of documents a home holds for reference batches. A
// batch follows its publish by one round trip, so a document need outlast
// only the few that reach the same home meanwhile; a miss costs a re-send,
// never a delivery, which is why this is a constant and not a knob.
const heldCap = 256

// heldDoc is one held document; a slot whose terms are nil is free.
type heldDoc struct {
	from   ring.NodeID
	id     uint64
	digest uint64
	terms  []string
}

// heldDocs is a node's recent-document table: the documents home-routed
// publishes brought it, oldest overwritten first, each removed by the batch
// that uses it. The terms are the decode's own copies and are never mutated:
// the hub's event windows share them once used (DESIGN.md §11).
type heldDocs struct {
	mu    sync.Mutex
	next  int
	slots [heldCap]heldDoc
}

// put holds doc, sent by from, in the oldest slot.
func (h *heldDocs) put(from ring.NodeID, doc *model.Document) {
	d := heldDoc{from: from, id: doc.ID, digest: delivery.TermsDigest(doc.Terms), terms: doc.Terms}
	h.mu.Lock()
	h.slots[h.next] = d
	h.next = (h.next + 1) % heldCap
	h.mu.Unlock()
}

// take removes and returns the terms of the document from sent as id whose
// digest is digest, or nil. A held copy of the same ID with other terms is
// not it.
func (h *heldDocs) take(from ring.NodeID, id, digest uint64) []string {
	h.mu.Lock()
	defer h.mu.Unlock()
	for i := range h.slots {
		d := &h.slots[i]
		if d.id == id && d.digest == digest && d.terms != nil && d.from == from {
			terms := d.terms
			*d = heldDoc{}
			return terms
		}
	}
	return nil
}

// handleDeliverBatch lands a routed delivery batch on the session owner:
// the notifications enqueue into its hub's subscriber sessions. A node
// without a hub refuses the batch, so the sender accounts the notifications
// as lost (delivery.route.failures / route.lost / OnDeliveryLoss) instead of
// believing them delivered. An unresolved reference enqueues nothing.
func (n *Node) handleDeliverBatch(from ring.NodeID, r *codec.Reader) ([]byte, error) {
	b, err := delivery.DecodeBatch(r)
	if err != nil {
		return nil, err
	}
	hub := n.cfg.Delivery
	if hub == nil {
		return nil, fmt.Errorf("node %s: no delivery hub: %d notification(s) for doc %d refused", n.cfg.ID, len(b.Notifs), b.DocID)
	}
	if b.Ref {
		if b.Terms = n.held.take(from, b.DocID, b.Digest); b.Terms == nil {
			n.routeUnheld.Inc()
			return []byte{deliverNotHeld}, nil
		}
	}
	// One batched call: session lookups group by registry shard, so a
	// thousand-subscriber fan-out costs a handful of lock acquisitions
	// instead of one per subscriber.
	hub.DeliverBatch(b.DocID, b.Terms, b.Notifs)
	return nil, nil
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

// Deliver routes a match set gathered outside PublishEntry — the RS
// flood's — exactly as PublishEntry routes its own, the document inline in
// every batch. A node without RouteDeliveries does nothing.
func (n *Node) Deliver(ctx context.Context, doc *model.Document, matches []Match) {
	n.routeDeliveries(ctx, doc, matches, nil)
}

// routeDeliveries ships a matched document's notifications to each
// subscriber's session owner (the home node of "subscriber/<name>"): one
// msgDeliverBatch per distinct owner, all frames built in pooled writers
// before the first goroutine spawns (DESIGN.md §11). homes are the nodes that
// answered this document's publish without error: a batch to one of them
// asks for the reference form (delivery.AppendBatch). Routing is
// best-effort: a failed owner RPC is counted, and the affected subscribers
// are reported through OnDeliveryLoss so loss is accounted, never silent —
// publish completion does not block on slow consumers beyond these sends.
// It does nothing unless the node routes deliveries and something matched.
func (n *Node) routeDeliveries(ctx context.Context, doc *model.Document, matches []Match, homes []ring.NodeID) {
	if !n.cfg.RouteDeliveries || len(matches) == 0 {
		return
	}
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
			b = &delivery.Batch{DocID: doc.ID, Terms: doc.Terms, Ref: slices.Contains(homes, home)}
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
	concurrently(len(dests), func(i int) {
		d := &dests[i]
		resp, err := n.send(ctx, d.home, d.frame.Bytes())
		if err == nil && len(resp) == 1 && resp[0] == deliverNotHeld {
			// The owner does not hold the document the batch named:
			// the same batch once more, inline. A re-send is not a new
			// route RPC.
			n.routeResent.Inc()
			d.batch.Ref = false
			d.frame.Reset()
			d.frame.Uint8(msgDeliverBatch)
			delivery.AppendBatch(d.frame, d.batch)
			_, err = n.send(ctx, d.home, d.frame.Bytes())
		}
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
	})
}
