// Command movectl is the client for a moved cluster: it registers filters
// on the home nodes of their terms (§III.B) and publishes documents through
// the §V dissemination path, printing the matching subscribers.
//
//	movectl -peers n0=...,n1=... register -sub alice -query "breaking news"
//	movectl -peers n0=...,n1=... publish -text "breaking news tonight"
//	movectl subscribe -addr 127.0.0.1:7100 -sub alice   # live session (moved -subscribe.addr)
//	movectl -peers n0=...,n1=... allocate          # run a §IV allocation round
//	movectl -peers n0=...,n1=... stats
package main

import (
	"cmp"
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"slices"
	"strings"
	"sync"
	"text/tabwriter"
	"time"

	"github.com/movesys/move/internal/alloc"
	"github.com/movesys/move/internal/cluster"
	"github.com/movesys/move/internal/delivery"
	"github.com/movesys/move/internal/model"
	"github.com/movesys/move/internal/node"
	"github.com/movesys/move/internal/ring"
	"github.com/movesys/move/internal/text"
	"github.com/movesys/move/internal/trace"
	"github.com/movesys/move/internal/transport"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintf(os.Stderr, "movectl: %v\n", err)
		os.Exit(1)
	}
}

// client is an off-ring entry node: it shares the ring computation with the
// servers, so control frames go straight to their home nodes (O(1)-hop, no
// proxy) and documents enter through the same node.PublishEntry as every
// other entry point.
type client struct {
	ring  *ring.Ring
	tn    *transport.TCPNode
	entry *node.Node
	out   io.Writer

	// lost collects the subscribers OnDeliveryLoss reported for the publish
	// in flight; lostMu orders the routing goroutines' concurrent reports.
	lostMu sync.Mutex
	lost   []string
}

func newClient(peersFlag string, out io.Writer) (*client, error) {
	peers, err := transport.ParsePeers(peersFlag)
	if err != nil {
		return nil, err
	}
	if len(peers) == 0 {
		return nil, fmt.Errorf("-peers is required")
	}
	c := &client{ring: ring.New(ring.Config{}), out: out}
	for pid := range peers {
		if err := c.ring.Add(ring.Member{ID: pid, Rack: "rack-0"}); err != nil {
			return nil, err
		}
	}
	c.entry, err = node.New(node.Config{
		ID: "movectl-client", Ring: c.ring, RouteDeliveries: true,
		OnDeliveryLoss: func(_ uint64, subs []string) {
			c.lostMu.Lock()
			c.lost = append(c.lost, subs...)
			c.lostMu.Unlock()
		},
	})
	if err != nil {
		return nil, err
	}
	c.tn, err = transport.NewTCP(c.entry.ID(), "127.0.0.1:0", rejectInbound, transport.StaticResolver(peers))
	if err != nil {
		return nil, err
	}
	c.entry.Attach(c.tn)
	return c, nil
}

func rejectInbound(context.Context, ring.NodeID, []byte) ([]byte, error) {
	return nil, fmt.Errorf("movectl is a client; it serves no requests")
}

func (c *client) close() {
	_ = c.tn.Close()
}

func run() error {
	peersFlag := flag.String("peers", "", "comma-separated id=host:port cluster map")
	timeout := flag.Duration("timeout", 10*time.Second, "per-operation timeout")
	flag.Parse()
	args := flag.Args()
	if len(args) == 0 {
		return fmt.Errorf("usage: movectl -peers ... <register|publish|subscribe|allocate|stats> [options]")
	}

	// subscribe talks the subscriber session protocol directly to one
	// moved's -subscribe.addr listener; it needs no cluster client.
	if args[0] == "subscribe" {
		fs := flag.NewFlagSet("subscribe", flag.ExitOnError)
		addr := fs.String("addr", "", "subscriber session address of the owner node (moved -subscribe.addr)")
		sub := fs.String("sub", "", "subscriber name")
		resume := fs.Uint64("resume", 0, "last acknowledged sequence number (resume cursor)")
		if err := fs.Parse(args[1:]); err != nil {
			return err
		}
		if *addr == "" || *sub == "" {
			return fmt.Errorf("subscribe requires -addr and -sub")
		}
		return subscribe(*addr, *sub, *resume)
	}

	c, err := newClient(*peersFlag, os.Stdout)
	if err != nil {
		return err
	}
	defer c.close()
	ctx, cancel := context.WithTimeout(context.Background(), *timeout)
	defer cancel()

	switch args[0] {
	case "register":
		fs := flag.NewFlagSet("register", flag.ExitOnError)
		sub := fs.String("sub", "", "subscriber name")
		query := fs.String("query", "", "keyword query")
		id := fs.Uint64("id", uint64(time.Now().UnixNano()), "filter id (default derived from time)")
		if err := fs.Parse(args[1:]); err != nil {
			return err
		}
		if *sub == "" || *query == "" {
			return fmt.Errorf("register requires -sub and -query")
		}
		return c.register(ctx, model.FilterID(*id), *sub, *query)
	case "publish":
		fs := flag.NewFlagSet("publish", flag.ExitOnError)
		content := fs.String("text", "", "document text")
		showTrace := fs.Bool("trace", false, "print the per-term hop path (home hops, grid columns, failovers)")
		if err := fs.Parse(args[1:]); err != nil {
			return err
		}
		if *content == "" {
			return fmt.Errorf("publish requires -text")
		}
		return c.publish(ctx, *content, *showTrace)
	case "allocate":
		fs := flag.NewFlagSet("allocate", flag.ExitOnError)
		capacity := fs.Int("capacity", 3_000_000, "per-node filter capacity C")
		epoch := fs.Uint64("epoch", uint64(time.Now().Unix()), "allocation epoch")
		if err := fs.Parse(args[1:]); err != nil {
			return err
		}
		return c.allocate(ctx, *capacity, *epoch, *timeout)
	case "stats":
		return c.stats(ctx)
	default:
		return fmt.Errorf("unknown command %q", args[0])
	}
}

// allocate runs one §IV allocation round with the client acting as the
// paper's dedicated coordinator node — the same round the in-process cluster
// runs (cluster.Coordinator), over TCP: pull per-node statistics, solve the
// MOVE optimization problem, and cut each hot home node over to its grid
// with the two-phase protocol (§13). If any prepare fails the epoch is
// aborted on every node and the cluster stays on its previous grids.
func (c *client) allocate(ctx context.Context, capacity int, epoch uint64, timeout time.Duration) error {
	co := cluster.Coordinator{
		Send:      c.tn.Send,
		Ring:      c.ring,
		Placement: ring.PlacementHybrid,
		Strategy:  alloc.StrategyGeneral,
		Timeout:   timeout,
	}
	for _, m := range c.ring.Members() {
		co.Members = append(co.Members, m.ID)
	}
	loads, err := co.PullLoads(ctx)
	if err != nil {
		return err
	}
	_, preps, err := co.PlanNodes(loads, alloc.Input{Capacity: capacity})
	if err != nil {
		return err
	}
	committed, err := co.Cutover(ctx, epoch, preps)
	if !committed {
		return err
	}
	for _, p := range preps {
		fmt.Fprintf(c.out, "prepared %s onto a %dx%d grid (r=%.2f)\n", p.Home, p.Grid.Rows(), p.Grid.Cols(), p.Ratio)
	}
	fmt.Fprintf(c.out, "allocation epoch %d: %d grid(s) committed across %d nodes\n", epoch, len(preps), len(co.Members))
	if err != nil {
		return fmt.Errorf("allocation epoch %d: commit: %w", epoch, err)
	}
	return nil
}

// subscribe opens a persistent delivery session and streams matched
// documents as they are published, acknowledging each batch so the server
// prunes its redelivery window. On reconnect, pass the last printed seq as
// -resume to receive exactly the unacknowledged tail.
func subscribe(addr, sub string, resume uint64) error {
	cl, err := delivery.Dial(addr, sub, resume)
	if err != nil {
		return err
	}
	defer cl.Close()
	h := cl.Hello()
	fmt.Printf("subscribed %s at %s (ack=%d next=%d redeliver=%d)\n", sub, addr, h.AckSeq, h.NextSeq, h.Redeliver)
	for {
		msg, err := cl.Recv()
		if err != nil {
			return fmt.Errorf("session closed: %w", err)
		}
		if msg.Bye != "" {
			fmt.Printf("server closed session: %s\n", msg.Bye)
			return nil
		}
		for _, ev := range msg.Events {
			fmt.Printf("seq=%d doc=%d filters=%v terms=%v\n", ev.Seq, ev.DocID, ev.Filters, ev.Terms)
		}
		if len(msg.Events) > 0 {
			if err := cl.Ack(msg.Events[len(msg.Events)-1].Seq); err != nil {
				return err
			}
		}
	}
}

// register places the filter on the home node of each of its terms.
func (c *client) register(ctx context.Context, id model.FilterID, sub, query string) error {
	terms := text.Terms(query, text.Options{})
	if len(terms) == 0 {
		return fmt.Errorf("query has no indexable terms")
	}
	f := model.Filter{ID: id, Subscriber: sub, Terms: terms, Mode: model.MatchAny}
	// No Bloom filter: nothing installs one on moved daemons.
	byHome, err := cluster.RegisterShares(c.ring, &f, nil)
	if err != nil {
		return err
	}
	for home, postingTerms := range byHome {
		payload := node.EncodeRegister(node.RegisterReq{Filter: f, PostingTerms: postingTerms})
		if _, err := c.tn.Send(ctx, home, payload); err != nil {
			return fmt.Errorf("register on %s: %w", home, err)
		}
	}
	fmt.Fprintf(c.out, "registered filter %s for %s: terms=%v on %d home node(s)\n", f.ID, sub, terms, len(byHome))
	return nil
}

// publish disseminates the document through node.PublishEntry and prints
// what it returns: the deduplicated matches in filter-ID order, then any
// subscribers whose session owner refused or could not be reached for the
// routed delivery (a node without -subscribe.addr has no hub). Delivery loss
// is reported, not an error — the match succeeded. With showTrace, the hop
// path (home hops, grid columns visited, failover substitutions) is printed
// before the matches.
func (c *client) publish(ctx context.Context, content string, showTrace bool) error {
	terms := text.Terms(content, text.Options{})
	if len(terms) == 0 {
		return fmt.Errorf("document has no indexable terms")
	}
	doc := model.Document{ID: uint64(time.Now().UnixNano()), Terms: terms}
	sp := trace.New("publish", doc.ID)
	matches, _, err := c.entry.PublishEntry(trace.With(ctx, sp), &doc)
	if showTrace {
		c.printHops(sp.Summary().Hops)
	}
	fmt.Fprintf(c.out, "published doc %d with %d terms; %d matching filter(s)\n", doc.ID, len(terms), len(matches))
	slices.SortFunc(matches, func(a, b node.Match) int { return cmp.Compare(a.Filter, b.Filter) })
	for _, m := range matches {
		fmt.Fprintf(c.out, "  -> %s (%s)\n", m.Subscriber, m.Filter)
	}
	// Every routing goroutine has reported by the time PublishEntry returns.
	if len(c.lost) > 0 {
		slices.Sort(c.lost)
		fmt.Fprintf(c.out, "%d subscriber(s) not reached: %s\n", len(c.lost), strings.Join(c.lost, ", "))
		c.lost = nil
	}
	return err
}

// printHops renders a publish hop path, one line per hop, flagging
// failovers (a column served by a substitute partition row) and lost
// columns (every replica row exhausted).
func (c *client) printHops(hops []trace.Hop) {
	fmt.Fprintf(c.out, "trace (%d hop(s)):\n", len(hops))
	for _, h := range hops {
		line := fmt.Sprintf("  [%s]", h.Stage)
		if h.Term != "" {
			line += fmt.Sprintf(" term=%q", h.Term)
		}
		if h.To != "" {
			line += " -> " + h.To
		}
		if h.Stage == "column" {
			line += fmt.Sprintf(" row=%d col=%d", h.Row, h.Col)
		}
		if h.Failover {
			line += fmt.Sprintf(" FAILOVER(attempt=%d)", h.Attempt)
		}
		if h.Lost {
			line += " LOST"
		}
		if h.Err != "" {
			line += " err=" + h.Err
		}
		line += fmt.Sprintf(" (%.2fms)", float64(h.ElapsedNS)/1e6)
		fmt.Fprintln(c.out, line)
	}
}

// stats pulls and prints every node's counters.
func (c *client) stats(ctx context.Context) error {
	w := tabwriter.NewWriter(c.out, 2, 4, 2, ' ', 0)
	fmt.Fprintf(w, "node\tfilters\tpostings\tdocs\tpostings-scanned\n")
	for _, m := range c.ring.Members() {
		raw, err := c.tn.Send(ctx, m.ID, node.EncodeStatsPull())
		if err != nil {
			fmt.Fprintf(w, "%s\t(down: %v)\n", m.ID, err)
			continue
		}
		s, err := node.DecodeStatsResp(raw)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "%s\t%d\t%d\t%d\t%d\n", m.ID, s.Filters, s.Postings, s.DocsProcessed, s.PostingsScanned)
	}
	return w.Flush()
}
