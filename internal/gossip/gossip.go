// Package gossip implements the anti-entropy membership protocol of the
// key/value substrate ("With the help of Gossip protocol, every node in
// Dynamo maintains information about all other nodes", §II). Each node
// periodically increments its own heartbeat and exchanges its full
// membership digest with a few random peers; nodes whose heartbeats stop
// advancing are suspected and then evicted. The full-table digest is what
// gives MOVE its O(1)-hop routing: every node can resolve any home node
// locally.
package gossip

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"time"

	"github.com/movesys/move/internal/codec"
	"github.com/movesys/move/internal/ring"
)

// Status is a member's liveness state.
type Status int

// Liveness states.
const (
	// StatusAlive means heartbeats are advancing.
	StatusAlive Status = iota + 1
	// StatusSuspect means no heartbeat advance within SuspectAfter.
	StatusSuspect
	// StatusDead means the member was evicted; kept briefly as a tombstone
	// so stale digests cannot resurrect it.
	StatusDead
)

// String returns the status name.
func (s Status) String() string {
	switch s {
	case StatusAlive:
		return "alive"
	case StatusSuspect:
		return "suspect"
	case StatusDead:
		return "dead"
	default:
		return fmt.Sprintf("status(%d)", int(s))
	}
}

// Member is one row of the membership table.
type Member struct {
	ID        ring.NodeID
	Rack      string
	Addr      string
	Heartbeat uint64
	Status    Status
}

// Sender delivers a gossip payload to a peer and returns its response.
type Sender func(ctx context.Context, to ring.NodeID, payload []byte) ([]byte, error)

// Config parameterizes a Gossiper.
type Config struct {
	// Self describes the local node.
	Self Member
	// Send delivers digests; typically Transport.Send wrapped with the
	// owner's message-type envelope.
	Send Sender
	// Fanout is how many peers each round gossips to. Zero means 3.
	Fanout int
	// Interval is the gossip period. Zero means 1s.
	Interval time.Duration
	// SuspectAfter marks a silent member suspect. Zero means 5×Interval.
	SuspectAfter time.Duration
	// EvictAfter declares a suspect dead. Zero means 4×SuspectAfter.
	EvictAfter time.Duration
	// Now supplies time; nil means time.Now. Tests inject a fake clock.
	Now func() time.Time
	// Seed seeds peer selection; zero derives one from Self for
	// deterministic but distinct per-node behaviour.
	Seed int64
	// OnJoin, if set, is called (outside the lock) when a member first
	// becomes alive.
	OnJoin func(Member)
	// OnLeave, if set, is called (outside the lock) when a member is
	// declared dead.
	OnLeave func(ring.NodeID)
	// OnChange, if set, is called (outside the lock) after any membership
	// transition — a join, a rejoin, or a leave. It carries no payload on
	// purpose: the hook exists to kick the reallocation loop, which reads
	// the membership itself.
	OnChange func()
}

// entry is the internal table row.
type entry struct {
	member   Member
	lastSeen time.Time
}

// Gossiper maintains the local membership table.
type Gossiper struct {
	cfg  Config
	rng  *rand.Rand
	done chan struct{}
	wg   sync.WaitGroup

	mu      sync.Mutex
	table   map[ring.NodeID]*entry
	started bool
	stopped bool
}

// ErrBadConfig reports an unusable configuration.
var ErrBadConfig = errors.New("gossip: invalid config")

// New validates cfg and builds a Gossiper whose table contains only the
// local node.
func New(cfg Config) (*Gossiper, error) {
	if cfg.Self.ID == "" {
		return nil, fmt.Errorf("%w: empty self id", ErrBadConfig)
	}
	if cfg.Send == nil {
		return nil, fmt.Errorf("%w: nil sender", ErrBadConfig)
	}
	if cfg.Fanout == 0 {
		cfg.Fanout = 3
	}
	if cfg.Interval == 0 {
		cfg.Interval = time.Second
	}
	if cfg.SuspectAfter == 0 {
		cfg.SuspectAfter = 5 * cfg.Interval
	}
	if cfg.EvictAfter == 0 {
		cfg.EvictAfter = 4 * cfg.SuspectAfter
	}
	if cfg.Now == nil {
		cfg.Now = time.Now
	}
	seed := cfg.Seed
	if seed == 0 {
		seed = int64(ring.HashKey(string(cfg.Self.ID)))
	}
	g := &Gossiper{
		cfg:   cfg,
		rng:   rand.New(rand.NewSource(seed)),
		done:  make(chan struct{}),
		table: make(map[ring.NodeID]*entry),
	}
	self := cfg.Self
	self.Status = StatusAlive
	g.table[self.ID] = &entry{member: self, lastSeen: cfg.Now()}
	return g, nil
}

// SeedPeers primes the table with bootstrap contacts (status alive, zero
// heartbeat, so any real digest supersedes them).
func (g *Gossiper) SeedPeers(members ...Member) {
	now := g.cfg.Now()
	var joined []Member
	g.mu.Lock()
	for _, m := range members {
		if m.ID == g.cfg.Self.ID {
			continue
		}
		if _, ok := g.table[m.ID]; ok {
			continue
		}
		m.Status = StatusAlive
		g.table[m.ID] = &entry{member: m, lastSeen: now}
		joined = append(joined, m)
	}
	g.mu.Unlock()
	g.notifyJoins(joined)
}

func (g *Gossiper) notifyJoins(members []Member) {
	if g.cfg.OnJoin != nil {
		for _, m := range members {
			g.cfg.OnJoin(m)
		}
	}
	if len(members) > 0 && g.cfg.OnChange != nil {
		g.cfg.OnChange()
	}
}

// Start launches the periodic gossip loop.
func (g *Gossiper) Start() {
	g.mu.Lock()
	if g.started || g.stopped {
		g.mu.Unlock()
		return
	}
	g.started = true
	g.mu.Unlock()

	g.wg.Add(1)
	go func() {
		defer g.wg.Done()
		ticker := time.NewTicker(g.cfg.Interval)
		defer ticker.Stop()
		for {
			select {
			case <-ticker.C:
				ctx, cancel := context.WithTimeout(context.Background(), g.cfg.Interval)
				g.Tick(ctx)
				cancel()
			case <-g.done:
				return
			}
		}
	}()
}

// Stop halts the loop and waits for it to exit. Safe to call more than
// once.
func (g *Gossiper) Stop() {
	g.mu.Lock()
	if g.stopped {
		g.mu.Unlock()
		return
	}
	g.stopped = true
	g.mu.Unlock()
	close(g.done)
	g.wg.Wait()
}

// Tick runs one gossip round: bump the local heartbeat, exchange digests
// with up to Fanout random live peers, then apply failure detection.
// Exposed so tests (and the simulator) can drive rounds deterministically.
func (g *Gossiper) Tick(ctx context.Context) {
	g.mu.Lock()
	self := g.table[g.cfg.Self.ID]
	self.member.Heartbeat++
	self.lastSeen = g.cfg.Now()
	peers := g.alivePeersLocked()
	digest := g.digestLocked()
	g.mu.Unlock()

	g.rng.Shuffle(len(peers), func(i, j int) { peers[i], peers[j] = peers[j], peers[i] })
	if len(peers) > g.cfg.Fanout {
		peers = peers[:g.cfg.Fanout]
	}
	// Probe one suspect/dead member per round: without it, two sides of a
	// healed partition that declared each other dead would never exchange
	// digests again (each only gossips to peers it believes alive).
	if probe, ok := g.pickNonAlive(); ok {
		peers = append(peers, probe)
	}
	for _, peer := range peers {
		resp, err := g.cfg.Send(ctx, peer, digest)
		if err != nil {
			continue // failure detection handles persistent silence
		}
		if remote, err := decodeDigest(resp); err == nil {
			g.merge(remote)
		}
	}
	g.detectFailures()
}

// pickNonAlive returns one random suspect or dead member to probe.
func (g *Gossiper) pickNonAlive() (ring.NodeID, bool) {
	g.mu.Lock()
	var candidates []ring.NodeID
	for id, e := range g.table {
		if id == g.cfg.Self.ID || e.member.Status == StatusAlive {
			continue
		}
		candidates = append(candidates, id)
	}
	g.mu.Unlock()
	if len(candidates) == 0 {
		return "", false
	}
	sort.Slice(candidates, func(i, j int) bool { return candidates[i] < candidates[j] })
	return candidates[g.rng.Intn(len(candidates))], true
}

// alivePeersLocked lists live peer IDs (excluding self).
func (g *Gossiper) alivePeersLocked() []ring.NodeID {
	peers := make([]ring.NodeID, 0, len(g.table))
	for id, e := range g.table {
		if id == g.cfg.Self.ID || e.member.Status != StatusAlive {
			continue
		}
		peers = append(peers, id)
	}
	sort.Slice(peers, func(i, j int) bool { return peers[i] < peers[j] })
	return peers
}

// Handle processes an inbound digest and returns the local digest. Wire it
// into the owner's message router.
func (g *Gossiper) Handle(_ ring.NodeID, payload []byte) ([]byte, error) {
	remote, err := decodeDigest(payload)
	if err != nil {
		return nil, err
	}
	g.merge(remote)
	g.mu.Lock()
	digest := g.digestLocked()
	g.mu.Unlock()
	return digest, nil
}

// merge folds a remote digest into the table: higher heartbeats win; new
// members join; dead tombstones are respected unless the remote heartbeat
// is strictly newer than the tombstoned one.
func (g *Gossiper) merge(remote []Member) {
	now := g.cfg.Now()
	var joined []Member
	g.mu.Lock()
	for _, m := range remote {
		if m.ID == g.cfg.Self.ID {
			continue
		}
		cur, ok := g.table[m.ID]
		switch {
		case !ok:
			mm := m
			mm.Status = StatusAlive
			g.table[m.ID] = &entry{member: mm, lastSeen: now}
			joined = append(joined, mm)
		case m.Heartbeat > cur.member.Heartbeat:
			wasDead := cur.member.Status == StatusDead
			cur.member.Heartbeat = m.Heartbeat
			cur.member.Rack = m.Rack
			cur.member.Addr = m.Addr
			cur.member.Status = StatusAlive
			cur.lastSeen = now
			if wasDead {
				joined = append(joined, cur.member)
			}
		}
	}
	g.mu.Unlock()
	g.notifyJoins(joined)
}

// detectFailures transitions silent members to suspect/dead.
func (g *Gossiper) detectFailures() {
	now := g.cfg.Now()
	var left []ring.NodeID
	g.mu.Lock()
	for id, e := range g.table {
		if id == g.cfg.Self.ID {
			continue
		}
		silent := now.Sub(e.lastSeen)
		switch e.member.Status {
		case StatusAlive:
			if silent >= g.cfg.SuspectAfter {
				e.member.Status = StatusSuspect
			}
		case StatusSuspect:
			if silent >= g.cfg.SuspectAfter+g.cfg.EvictAfter {
				e.member.Status = StatusDead
				left = append(left, id)
			}
		case StatusDead:
			// Tombstone retained; nothing to do.
		}
	}
	g.mu.Unlock()
	if g.cfg.OnLeave != nil {
		for _, id := range left {
			g.cfg.OnLeave(id)
		}
	}
	if len(left) > 0 && g.cfg.OnChange != nil {
		g.cfg.OnChange()
	}
}

// Members returns a snapshot of the table sorted by ID.
func (g *Gossiper) Members() []Member {
	g.mu.Lock()
	out := make([]Member, 0, len(g.table))
	for _, e := range g.table {
		out = append(out, e.member)
	}
	g.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// Alive returns the alive members sorted by ID.
func (g *Gossiper) Alive() []Member {
	all := g.Members()
	out := all[:0]
	for _, m := range all {
		if m.Status == StatusAlive {
			out = append(out, m)
		}
	}
	return out
}

// StatusOf returns a member's status, or StatusDead for unknown IDs.
func (g *Gossiper) StatusOf(id ring.NodeID) Status {
	g.mu.Lock()
	defer g.mu.Unlock()
	e, ok := g.table[id]
	if !ok {
		return StatusDead
	}
	return e.member.Status
}

// digestLocked serializes the membership table.
func (g *Gossiper) digestLocked() []byte {
	w := codec.NewWriter(32 * len(g.table))
	w.Uvarint(uint64(len(g.table)))
	ids := make([]ring.NodeID, 0, len(g.table))
	for id := range g.table {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, id := range ids {
		e := g.table[id]
		w.String(string(e.member.ID))
		w.String(e.member.Rack)
		w.String(e.member.Addr)
		w.Uvarint(e.member.Heartbeat)
		w.Uint8(uint8(e.member.Status))
	}
	return w.Bytes()
}

// decodeDigest parses a serialized membership table.
func decodeDigest(data []byte) ([]Member, error) {
	r := codec.NewReader(data)
	n, err := r.Uvarint()
	if err != nil {
		return nil, err
	}
	if n > uint64(r.Remaining()) {
		return nil, fmt.Errorf("gossip: digest claims %d members in %d bytes", n, r.Remaining())
	}
	out := make([]Member, 0, n)
	for i := uint64(0); i < n; i++ {
		var m Member
		id, err := r.String()
		if err != nil {
			return nil, err
		}
		if id == "" {
			return nil, errors.New("gossip: digest member with an empty id")
		}
		m.ID = ring.NodeID(id)
		if m.Rack, err = r.String(); err != nil {
			return nil, err
		}
		if m.Addr, err = r.String(); err != nil {
			return nil, err
		}
		if m.Heartbeat, err = r.Uvarint(); err != nil {
			return nil, err
		}
		st, err := r.Uint8()
		if err != nil {
			return nil, err
		}
		m.Status = Status(st)
		out = append(out, m)
	}
	return out, nil
}
