package cluster

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"github.com/movesys/move/internal/alloc"
	"github.com/movesys/move/internal/model"
	"github.com/movesys/move/internal/node"
	"github.com/movesys/move/internal/ring"
)

// NodeLoad is one node's Figure 9 load sample: the statistics snapshot it
// answered a pull with (Filters is the storage cost of Figure 9(a),
// TermsMatched the matching cost of 9(b)).
type NodeLoad struct {
	ID ring.NodeID
	node.StatsResp
}

// Coordinator is the paper's dedicated allocation node reduced to what a
// round needs of a deployment: a way to reach its nodes, the live member
// list, and the ring the grids are drawn from. The in-process cluster and
// movectl (over TCP) each fill one in and run the same round: PullLoads →
// PlanNodes → Cutover.
type Coordinator struct {
	// Send delivers one control frame to a node and returns its answer.
	Send func(ctx context.Context, to ring.NodeID, payload []byte) ([]byte, error)
	// Members are the live nodes: the statistics-pull targets and the
	// commit/abort broadcast set.
	Members []ring.NodeID
	// Ring and Placement select the nodes a home's grid is fitted from.
	Ring      *ring.Ring
	Placement ring.Placement
	// Strategy and Rng parameterize the §IV optimizer (alloc.Compute).
	Strategy alloc.Strategy
	Rng      *rand.Rand
	// Timeout bounds the abort broadcast, which must go out even when the
	// round's own context is what failed the prepare.
	Timeout time.Duration

	// beforePrepare is the cluster's test seam for mid-prepare failures.
	beforePrepare func(home ring.NodeID) error
}

// Prep is one home node's share of a cutover: the home that prepares it and
// the grid fitted for it.
type Prep struct {
	Home  ring.NodeID
	Grid  *alloc.Grid
	Ratio float64 // the optimizer's allocation ratio r_i for the unit
}

// PullLoads fetches the per-node statistics. Degrades gracefully: a node
// that dies or errors mid-pull is skipped and the round proceeds on the
// survivors' samples — only a round where no node at all responds fails.
func (co Coordinator) PullLoads(ctx context.Context) ([]NodeLoad, error) {
	out := make([]NodeLoad, 0, len(co.Members))
	for _, id := range co.Members {
		raw, err := co.Send(ctx, id, node.EncodeStatsPull())
		if err != nil {
			continue
		}
		s, err := node.DecodeStatsResp(raw)
		if err != nil {
			continue
		}
		out = append(out, NodeLoad{ID: id, StatsResp: s})
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("cluster: stats pull: no node responded")
	}
	return out, nil
}

// PlanNodes plans a per-node round from pulled loads, aggregated into node
// popularity p'_i and node frequency q'_i (§V: all terms of a node share one
// allocation unit, keeping the forwarding table O(1) per node). in carries the
// optimizer's other inputs; a zero TotalFilters, TotalDocs or Nodes is derived
// from the loads and the member list — what a coordinator with no filter
// registry of its own (movectl) knows.
func (co Coordinator) PlanNodes(loads []NodeLoad, in alloc.Input) ([]alloc.Factor, []Prep, error) {
	var stored, publishes, scanned int64
	for _, l := range loads {
		stored += l.Filters
		publishes += l.HomePublishes
		scanned += l.PostingsScanned
	}
	if in.TotalFilters == 0 {
		in.TotalFilters = int(stored)
	}
	if in.TotalFilters == 0 {
		return nil, nil, fmt.Errorf("%w: no filters registered", ErrBadConfig)
	}
	if in.TotalDocs == 0 {
		in.TotalDocs = int(max(publishes, 1))
	}
	if in.Nodes == 0 {
		in.Nodes = len(co.Members)
	}
	in.Units = make([]alloc.Unit, 0, len(loads))
	for _, l := range loads {
		u := alloc.Unit{Key: string(l.ID)}
		// p'_i = Σ_{t on node} p_t = (posting entries on node)/P. Filter
		// definitions stored ≈ posting entries here because each home node
		// stores the definition once per owned term.
		u.Popularity = float64(l.Filters) / float64(in.TotalFilters)
		if publishes > 0 {
			u.Frequency = float64(l.HomePublishes) / float64(publishes)
		}
		// The measured matching-work share drives separation (the
		// meta-data store's statistics, §V).
		if scanned > 0 {
			u.Load = float64(l.PostingsScanned) / float64(scanned)
		}
		in.Units = append(in.Units, u)
	}

	// Solve the MOVE optimization problem over the nodes and fit a grid of
	// ring-placed peers for every home granted more than one node. A home
	// that cannot be placed (it left the ring, the cluster is too small) is
	// skipped — churn mid-round must not wedge the coordinator.
	factors, err := alloc.Compute(in, co.Strategy, co.Rng)
	if err != nil {
		return nil, nil, err
	}
	var preps []Prep
	for _, f := range factors {
		if f.Rows*f.Cols <= 1 {
			continue // nothing to allocate for this node
		}
		home := ring.NodeID(f.Key)
		peers, err := co.Ring.AllocationNodesOf(home, f.Rows*f.Cols, co.Placement)
		if err != nil {
			continue
		}
		grid, err := alloc.FitGrid(f.Rows, f.Cols, peers)
		if err != nil || grid.Size() <= 1 {
			continue
		}
		preps = append(preps, Prep{Home: home, Grid: grid, Ratio: f.Ratio})
	}
	return factors, preps, nil
}

// Cutover runs the two-phase protocol (§13) over preps under one epoch.
// Prepare: each home installs its grid as pending (opening its dual-read
// window) and migrates its filters to the new placements. The first failure
// aborts the round: an epoch-wide abort broadcast unwinds journaled migrations
// and pending grids, leaving the old epoch with no partial state, and the
// prepare error comes back joined with the broadcast's. Otherwise a commit
// broadcast promotes the pending grids; an error with committed set is that
// broadcast's — a node that missed it keeps dual-reading until a later round
// re-prepares it: extra fan-out, never lost matches.
func (co Coordinator) Cutover(ctx context.Context, epoch uint64, preps []Prep) (committed bool, err error) {
	for _, p := range preps {
		var perr error
		if co.beforePrepare != nil {
			perr = co.beforePrepare(p.Home)
		}
		if perr == nil {
			_, perr = co.Send(ctx, p.Home, node.EncodePrepareAlloc(epoch, p.Grid))
		}
		if perr != nil {
			actx, cancel := context.WithTimeout(context.WithoutCancel(ctx), co.Timeout)
			aerr := co.broadcast(actx, node.EncodeAbortGrid(epoch))
			cancel()
			return false, errors.Join(
				fmt.Errorf("cluster: allocation epoch %d aborted: prepare on %s: %w", epoch, p.Home, perr),
				aerr)
		}
	}
	return true, co.broadcast(ctx, node.EncodeCommitGrid(epoch))
}

// broadcast sends an epoch control frame (commit or abort) to every member —
// the copies an epoch migrated are journaled on the grid nodes, so the homes
// alone are not enough — aggregating per-node errors.
func (co Coordinator) broadcast(ctx context.Context, payload []byte) error {
	var errs []error
	for _, id := range co.Members {
		if _, err := co.Send(ctx, id, payload); err != nil {
			errs = append(errs, fmt.Errorf("cluster: epoch control on %s: %w", id, err))
		}
	}
	return errors.Join(errs...)
}

// coordinator is the cluster's own, over the nodes live right now.
func (c *Cluster) coordinator() Coordinator {
	return Coordinator{
		Send:          c.sendTo,
		Members:       c.liveNodes(),
		Ring:          c.ring,
		Placement:     c.cfg.Placement,
		Strategy:      c.cfg.AllocStrategy,
		Rng:           c.rng,
		Timeout:       c.cfg.ControlTimeout,
		beforePrepare: c.prepareHook,
	}
}

// PullLoads fetches the live nodes' statistics (Coordinator.PullLoads),
// counting every node that failed its pull on realloc.stats.skipped.
func (c *Cluster) PullLoads(ctx context.Context) ([]NodeLoad, error) {
	ctx, cancel := c.withTimeout(ctx)
	defer cancel()
	co := c.coordinator()
	if hook := c.pullHook; hook != nil {
		co.Send = func(ctx context.Context, id ring.NodeID, payload []byte) ([]byte, error) {
			if err := hook(id); err != nil {
				return nil, err
			}
			return c.sendTo(ctx, id, payload)
		}
	}
	loads, err := co.PullLoads(ctx)
	c.metrics.Counter("realloc.stats.skipped").Add(int64(len(co.Members) - len(loads)))
	return loads, err
}

// AllocationReport summarizes one §IV allocation round.
type AllocationReport struct {
	// Epoch is the allocation round number.
	Epoch uint64
	// Factors are the optimizer decisions per allocation unit.
	Factors []alloc.Factor
	// GridsInstalled counts units that received a (non-trivial) grid.
	GridsInstalled int
	// FiltersReplicated is the number of filter copies created by
	// migration (approximate, from placement bookkeeping).
	FiltersReplicated int
}

// Allocate runs one coordinator allocation round (SchemeMove only): pull
// per-node statistics, plan one unit per node (Coordinator.PlanNodes), and
// cut the changed grids over (cutover).
func (c *Cluster) Allocate(ctx context.Context) (AllocationReport, error) {
	if c.allocRoundHook != nil {
		c.allocRoundHook()
	}
	roundStart := time.Now()
	if c.cfg.Scheme != SchemeMove {
		return AllocationReport{}, fmt.Errorf("%w: allocation requires SchemeMove, have %v", ErrBadConfig, c.cfg.Scheme)
	}
	P := c.TotalFilters()
	if P == 0 {
		return AllocationReport{}, fmt.Errorf("%w: no filters registered", ErrBadConfig)
	}
	in := alloc.Input{
		TotalFilters: P,
		TotalDocs:    max(c.TotalDocs(), 1),
		Nodes:        c.AliveCount(),
		Capacity:     c.cfg.Capacity,
		NoSeparation: c.cfg.AllocNoSeparation,
		ForceRatio:   c.cfg.AllocRatio,
	}
	ctx, cancel := c.withTimeout(ctx)
	defer cancel()
	loads, err := c.PullLoads(ctx)
	if err != nil {
		return AllocationReport{}, err
	}
	factors, preps, err := c.coordinator().PlanNodes(loads, in)
	if err != nil {
		return AllocationReport{}, err
	}
	return c.cutover(ctx, roundStart, factors, preps)
}

// cutover takes a planned round through the two-phase protocol and its
// bookkeeping. A home whose grid equals the one it already serves is live
// as it stands and prepares nothing. An aborted round leaves everything — the
// committed epoch included — untouched. A committed one records the new
// grids, extends the placement bookkeeping, and garbage-collects the retired
// placements (with a one-round grace so publishes in flight across the
// cutover still find every copy); commit-broadcast errors degrade that GC
// instead of failing the round.
func (c *Cluster) cutover(ctx context.Context, roundStart time.Time, factors []alloc.Factor, preps []Prep) (AllocationReport, error) {
	epoch := c.allocEpoch.Add(1)
	report := AllocationReport{Epoch: epoch, Factors: factors}
	c.gridsMu.Lock()
	changed := make([]Prep, 0, len(preps))
	for _, p := range preps {
		if !p.Grid.Equal(c.committedGrids[p.Home]) {
			changed = append(changed, p)
		}
	}
	c.gridsMu.Unlock()
	report.GridsInstalled = len(preps) - len(changed) // placements already live

	committed, err := c.coordinator().Cutover(ctx, epoch, changed)
	c.metrics.Histogram("realloc.round.latency").Observe(time.Since(roundStart))
	if !committed {
		c.metrics.Counter("realloc.rounds.aborted").Inc()
		return report, err
	}
	c.committedEpoch.Store(epoch)
	c.metrics.Counter("realloc.rounds.committed").Inc()
	c.metrics.Counter("realloc.epoch").Set(int64(epoch))
	report.GridsInstalled = len(preps)

	c.gridsMu.Lock()
	for _, p := range changed {
		if old, ok := c.committedGrids[p.Home]; ok {
			c.prevGrids = append(c.prevGrids, old)
		}
		c.committedGrids[p.Home] = p.Grid
	}
	c.gridsMu.Unlock()
	for _, p := range changed {
		c.recordGridPlacement(p.Home, p.Grid)
	}
	c.runGridGC(ctx, err != nil)
	report.FiltersReplicated = c.countReplicas()
	return report, nil
}

// runGridGC drops the filter copies stranded on retired placements after a
// committed cutover. The keep set for a filter is its original homes (never
// collected — §13) plus its placements under every live grid: the committed
// one of each home, and the grids retired by the most recent round, which get one extra round of grace for publishes in flight
// across the cutover.
// When the commit broadcast had errors the GC only accumulates grace —
// nothing is dropped, because an uncommitted node may still be serving an
// old grid.
func (c *Cluster) runGridGC(ctx context.Context, conservative bool) {
	c.gridsMu.Lock()
	keepGrids := make([]*alloc.Grid, 0, len(c.committedGrids)+len(c.prevGrids))
	for _, g := range c.committedGrids {
		keepGrids = append(keepGrids, g)
	}
	keepGrids = append(keepGrids, c.prevGrids...)
	if !conservative {
		// The grace window ends here for grids retired before this round;
		// grids retired by this round were appended above and survive until
		// the next successful GC.
		c.prevGrids = nil
	}
	c.gridsMu.Unlock()
	if conservative {
		return
	}

	// Diff the holder bookkeeping against the keep set and batch the drops
	// per node.
	drops := make(map[ring.NodeID][]model.FilterID)
	c.placementMu.Lock()
	for id, holders := range c.filterHolders {
		needed := make(map[ring.NodeID]struct{}, len(holders))
		for _, h := range c.homeHolders[id] {
			needed[h] = struct{}{}
		}
		for _, g := range keepGrids {
			for _, nd := range g.FilterNodes(id) {
				needed[nd] = struct{}{}
			}
		}
		kept := make([]ring.NodeID, 0, len(holders))
		for _, h := range holders {
			if _, ok := needed[h]; ok {
				kept = append(kept, h)
			} else {
				drops[h] = append(drops[h], id)
			}
		}
		c.filterHolders[id] = kept
	}
	c.placementMu.Unlock()

	dropped := 0
	for nd, ids := range drops {
		if c.net.Failed(nd) {
			continue // unreachable; stale copies only ever add true matches
		}
		if _, err := c.sendTo(ctx, nd, node.EncodeUnregisterBatch(ids)); err != nil {
			continue // ditto: lingering copies are benign
		}
		dropped += len(ids)
	}
	if dropped > 0 {
		c.metrics.Counter("realloc.gc.filters").Add(int64(dropped))
	}
}

// recordGridPlacement extends the availability bookkeeping with the grid
// copies created for every filter homed on `home`.
func (c *Cluster) recordGridPlacement(home ring.NodeID, grid *alloc.Grid) {
	c.placementMu.Lock()
	defer c.placementMu.Unlock()
	for id, holders := range c.filterHolders {
		onHome := false
		for _, h := range holders {
			if h == home {
				onHome = true
				break
			}
		}
		if !onHome {
			continue
		}
		existing := make(map[ring.NodeID]struct{}, len(holders))
		for _, h := range holders {
			existing[h] = struct{}{}
		}
		for _, nd := range grid.FilterNodes(id) {
			if _, dup := existing[nd]; dup {
				continue
			}
			c.filterHolders[id] = append(c.filterHolders[id], nd)
		}
	}
}

// countReplicas sums holder counts beyond the first copy.
func (c *Cluster) countReplicas() int {
	c.placementMu.RLock()
	defer c.placementMu.RUnlock()
	n := 0
	for _, holders := range c.filterHolders {
		n += len(holders) - 1
	}
	return n
}

// RenewWindow resets the windowed document statistics on every live node —
// the §V refresh ("every 10 minutes, the values of q_i are renewed based on
// new incoming documents"). Called between allocation rounds so q'_i
// reflects the current pattern rather than all of history.
func (c *Cluster) RenewWindow() {
	for _, id := range c.nodeIDs {
		if c.net.Failed(id) {
			continue
		}
		c.daemons[id].Node.ResetWindowCounters()
	}
}

// StartAutoAllocate launches the periodic allocation loop: every interval
// (or sooner, when KickAllocate signals a membership change) it runs one
// Allocate round and renews the statistics window. The returned stop
// function halts the loop and waits for it to exit.
//
// The loop is unkillable: a panicking or persistently erroring round is
// recovered, reported to onErr if non-nil, counted on
// realloc.loop.failures, and followed by an exponential backoff (capped at
// 32× the interval) before the next attempt. A successful round clears the
// failure streak.
func (c *Cluster) StartAutoAllocate(interval time.Duration, onErr func(error)) (stop func()) {
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		ticker := time.NewTicker(interval)
		defer ticker.Stop()
		failG := c.metrics.Counter("realloc.loop.failures")
		failures := 0
		runOnce := func() {
			if err := c.safeAllocate(); err != nil {
				failures++
				failG.Set(int64(failures))
				if onErr != nil {
					onErr(err)
				}
				shift := failures - 1
				if shift > 5 {
					shift = 5
				}
				select {
				case <-time.After(interval << shift):
				case <-done:
				}
				return
			}
			failures = 0
			failG.Set(0)
			c.RenewWindow()
		}
		for {
			select {
			case <-ticker.C:
				runOnce()
			case <-c.allocKick:
				runOnce()
			case <-done:
				return
			}
		}
	}()
	var once sync.Once
	return func() {
		once.Do(func() {
			close(done)
			wg.Wait()
		})
	}
}

// safeAllocate runs one allocation round and recovers from a panic — a bug in
// the optimizer or a hook must not kill the auto-allocate goroutine.
func (c *Cluster) safeAllocate() (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("cluster: allocation round panicked: %v", r)
		}
	}()
	_, err = c.Allocate(context.Background())
	return err
}

// TransferStats reports document-transfer accounting for the cost model.
type TransferStats struct {
	// Total is the number of transfer attempts.
	Total int64
	// IntraRack is how many stayed within a rack.
	IntraRack int64
	// PerNodeReceived maps receivers to transfer counts.
	PerNodeReceived map[ring.NodeID]int64
	// PerNodeReceivedIntra maps receivers to intra-rack transfer counts.
	PerNodeReceivedIntra map[ring.NodeID]int64
}

// Transfers snapshots the transfer accounting.
func (c *Cluster) Transfers() TransferStats {
	c.transferMu.Lock()
	defer c.transferMu.Unlock()
	per := make(map[ring.NodeID]int64, len(c.perNodeRecv))
	for id, n := range c.perNodeRecv {
		per[id] = n
	}
	local := make(map[ring.NodeID]int64, len(c.perNodeRecvLocal))
	for id, n := range c.perNodeRecvLocal {
		local[id] = n
	}
	return TransferStats{
		Total:                c.transferTotal,
		IntraRack:            c.transferLocal,
		PerNodeReceived:      per,
		PerNodeReceivedIntra: local,
	}
}

// ResetTransferStats zeroes the transfer accounting (between experiment
// phases).
func (c *Cluster) ResetTransferStats() {
	c.transferMu.Lock()
	defer c.transferMu.Unlock()
	c.transferTotal = 0
	c.transferLocal = 0
	c.perNodeRecv = make(map[ring.NodeID]int64)
	c.perNodeRecvLocal = make(map[ring.NodeID]int64)
}
