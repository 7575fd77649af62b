package node

import (
	"context"
	"errors"
	"fmt"
	"time"

	"github.com/movesys/move/internal/alloc"
	"github.com/movesys/move/internal/model"
)

// This file is the node side of the two-phase reallocation protocol (§13).
// The forwarding table is one entry per node (§V: one grid per node, not per
// term), and it cuts over in three steps:
//
//	prepare  — PrepareAllocation: install the new grid as *pending* (the
//	           dual-read window opens), then migrate every filter this home
//	           owns to its new placements. Migrations are journaled per
//	           epoch so they can be unwound.
//	commit   — CommitGrid: promote the epoch's pending grid to committed;
//	           the dual-read window closes and the epoch's journal is
//	           retired (the copies are now the authoritative placements).
//	abort    — AbortGrid: drop the epoch's pending grid and unregister
//	           exactly the filter copies its migrations created, restoring
//	           the pre-prepare state bit for bit.
//
// Ordering matters in prepare: the pending grid is installed *before* the
// filter scan. A registration racing the prepare either lands in the store
// before the scan reads it (the scan migrates it) or observes the pending
// grid after the scan's write-lock barrier (handleRegister forwards it to
// the pending placements itself) — both sides of the race deliver the
// filter, and idempotent replay makes delivering it twice harmless.

// tableEntry is the forwarding table: the grid serving the node's terms and,
// between a prepare and its commit or abort, the next epoch's. While pending
// is non-nil the node dual-reads: publishes fan out to both grids and union
// the match sets, so no match is dropped whichever placement a filter is
// physically on. Both nil is the empty table: every term matches locally.
type tableEntry struct {
	committed    *alloc.Grid
	pending      *alloc.Grid
	pendingEpoch uint64
	// dualSince marks when the current dual-read window opened.
	dualSince time.Time
}

// errScopedPrepare refuses a prepare frame that carries bytes after its
// grid: an older coordinator's term-scoped prepare, which this node must not
// install as its one grid.
var errScopedPrepare = errors.New("term-scoped prepare refused")

// PrepareGrid installs g as the pending grid for epoch, opening the
// dual-read window. Re-preparing the same epoch is idempotent (a retried
// prepare RPC must not fail); an epoch at or below the committed one is
// rejected as stale.
func (n *Node) PrepareGrid(epoch uint64, g *alloc.Grid) bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	if epoch <= n.gridEpoch {
		return false
	}
	e := &n.table
	if e.pending == nil || e.pendingEpoch != epoch {
		e.dualSince = time.Now()
	}
	e.pending = g
	e.pendingEpoch = epoch
	return true
}

// PrepareAllocation executes the prepare phase on this home node: pending
// grid first (see the ordering note above), then the filter migrations. Any
// migration failure propagates so the coordinator aborts the round.
func (n *Node) PrepareAllocation(ctx context.Context, epoch uint64, g *alloc.Grid) error {
	if !n.PrepareGrid(epoch, g) {
		return fmt.Errorf("node %s: prepare epoch %d is not newer than committed epoch", n.cfg.ID, epoch)
	}
	batches, err := n.ownedBatches(g)
	if err != nil {
		return err
	}
	return n.sendMigrations(ctx, epoch, batches)
}

// CommitGrid is the cutover barrier: it promotes the grid pending under
// epoch to committed and retires the epoch's migration journal. Broadcast to
// every node, it is a benign no-op on nodes with nothing pending under the
// epoch (non-participants, already-committed retries). Reports whether this
// call promoted anything.
func (n *Node) CommitGrid(epoch uint64) bool {
	n.mu.Lock()
	e := &n.table
	committed := epoch > n.gridEpoch && e.pending != nil && e.pendingEpoch == epoch
	if committed {
		e.committed, e.pending, e.pendingEpoch = e.pending, nil, 0
		n.hDualRead.Observe(time.Since(e.dualSince))
		n.gridEpoch = epoch
	}
	n.mu.Unlock()
	if committed {
		n.commitsC.Inc()
		n.epochG.Set(int64(epoch))
	}
	// Journals at or below the committed epoch are dead either way: their
	// copies are now authoritative (committed) or belong to rounds the
	// coordinator already resolved.
	n.clearJournalThrough(epoch)
	return committed
}

// AbortGrid unwinds epoch's prepare: the grid pending under it is dropped
// and every filter copy the epoch's migrations created is unregistered.
// Copies that existed before the prepare were never journaled and are
// untouched. Broadcast to every node; a no-op where the epoch left no state.
func (n *Node) AbortGrid(epoch uint64) error {
	n.mu.Lock()
	e := &n.table
	hadPending := e.pending != nil && e.pendingEpoch == epoch
	if hadPending {
		e.pending, e.pendingEpoch = nil, 0
	}
	n.mu.Unlock()

	n.journalMu.Lock()
	ids := n.journal[epoch]
	delete(n.journal, epoch)
	n.journalMu.Unlock()

	if hadPending || len(ids) > 0 {
		n.abortsC.Inc()
	}
	var errs []error
	for id := range ids {
		if err := n.ix.Unregister(id); err != nil {
			errs = append(errs, fmt.Errorf("node %s: abort epoch %d unregister %d: %w", n.cfg.ID, epoch, id, err))
		}
	}
	if len(ids) > 0 {
		n.updateCoverGauges()
	}
	return errors.Join(errs...)
}

// EpochInfo snapshots the node's reallocation state: the committed epoch,
// the pending epoch (zero when none), and whether the dual-read window is
// open. Surfaced on /healthz.
func (n *Node) EpochInfo() (committed, pending uint64, dualReading bool) {
	n.mu.RLock()
	defer n.mu.RUnlock()
	return n.gridEpoch, n.table.pendingEpoch, n.table.pending != nil
}

// handleMigrate installs a batch of allocated filters. Replay-safe: a
// retried or duplicated batch re-runs EnsureRegistered, which reports
// created=false for copies already present, so counters stay exact and the
// journal records each copy once. Entries created under a non-zero epoch
// are journaled for that epoch's potential abort.
func (n *Node) handleMigrate(req MigrateReq) error {
	created := 0
	for _, e := range req.Entries {
		ok, err := n.ix.EnsureRegistered(e.Filter, e.PostingTerms)
		if err != nil {
			return err
		}
		if ok {
			created++
			if req.Epoch > 0 {
				n.journalFilter(req.Epoch, e.Filter.ID)
			}
		}
	}
	if created > 0 {
		n.migratedC.Add(int64(created))
		n.updateCoverGauges()
	}
	return nil
}

// journalFilter records that epoch's migrations created id's local copy.
func (n *Node) journalFilter(epoch uint64, id model.FilterID) {
	n.journalMu.Lock()
	m := n.journal[epoch]
	if m == nil {
		m = make(map[model.FilterID]struct{})
		n.journal[epoch] = m
	}
	m[id] = struct{}{}
	n.journalMu.Unlock()
}

// clearJournalThrough retires every journal at or below epoch.
func (n *Node) clearJournalThrough(epoch uint64) {
	n.journalMu.Lock()
	for e := range n.journal {
		if e <= epoch {
			delete(n.journal, e)
		}
	}
	n.journalMu.Unlock()
}

// handleUnregisterBatch removes a batch of filter definitions — the
// coordinator's old-placement GC after a committed cutover. Unregister is
// a no-op for absent IDs, so replays and overlapping batches are safe.
func (n *Node) handleUnregisterBatch(ids []model.FilterID) error {
	var errs []error
	for _, id := range ids {
		if err := n.ix.Unregister(id); err != nil {
			errs = append(errs, err)
		}
	}
	if len(ids) > 0 {
		n.updateCoverGauges()
	}
	return errors.Join(errs...)
}
