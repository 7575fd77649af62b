package trace

import (
	"fmt"
	"slices"

	"github.com/movesys/move/internal/codec"
)

// The hop list of a match response (DESIGN.md §12). A response answers a
// request that named the terms to match under, so almost everything a hop
// says the receiver already holds: the stage is one of four names, the term
// is one of the request's, the nodes are the same two or three throughout.
// The encoding says each once and round-trips []Hop exactly:
//
//	uvarint  hop count
//	per hop:
//	  byte     bits 0–2 stage (index into stageNames; 0 = a string follows),
//	           bit 3 Failover, bit 4 Lost, bit 5 Pending,
//	           bit 6 grid group present, bit 7 RPC group present
//	  [string] Stage                      when the stage bits are 0
//	  node     To
//	  term     Term
//	  [uvarint Row, Col, Attempt]         grid group: when any is non-zero
//	  [node From, uvarint ElapsedNS,
//	   string Err]                        RPC group: when any is non-zero
//
// A node is a uvarint reference into the names this response has spelled out
// so far: 0 is "", k ≤ the count so far is the k-th, count+1 introduces the
// string that follows. A term is a uvarint: 0 is "", 1 a string that follows,
// k ≥ 2 position k−2 of the request's term list. A "local" hop is 3 bytes, a
// served "column" hop 11 or so.

// stageNames is the stage vocabulary of Hop, indexed by wire code; code 0
// escapes to a literal.
var stageNames = [...]string{1: "home", 2: "column", 3: "flood", 4: "local"}

const (
	hopStageMask = 0x07
	hopFailover  = 1 << 3
	hopLost      = 1 << 4
	hopPending   = 1 << 5
	hopGrid      = 1 << 6 // Row, Col, Attempt follow
	hopRPC       = 1 << 7 // From, ElapsedNS, Err follow

	// minHopBytes is the smallest hop: flags, To, Term.
	minHopBytes = 3

	termEmpty, termLiteral, termBase = 0, 1, 2
)

// AppendHops appends the hop list of a response to the request that routed
// terms (nil when the request named none — every term is then spelled out).
func AppendHops(w *codec.Writer, hops []Hop, terms []string) {
	w.Uvarint(uint64(len(hops)))
	var nameBuf [8]string
	names := nameBuf[:0]
	next := 0 // hops mostly walk the request's terms in order
	for i := range hops {
		h := &hops[i]
		stage := slices.Index(stageNames[1:], h.Stage) + 1
		flags := byte(stage)
		if h.Failover {
			flags |= hopFailover
		}
		if h.Lost {
			flags |= hopLost
		}
		if h.Pending {
			flags |= hopPending
		}
		if h.Row != 0 || h.Col != 0 || h.Attempt != 0 {
			flags |= hopGrid
		}
		if h.From != "" || h.ElapsedNS != 0 || h.Err != "" {
			flags |= hopRPC
		}
		w.Uint8(flags)
		if stage == 0 {
			w.String(h.Stage)
		}
		names = appendNode(w, names, h.To)

		if h.Term == "" {
			w.Uvarint(termEmpty)
		} else if pos := IndexFrom(terms, next, h.Term); pos >= 0 {
			w.Uvarint(uint64(pos) + termBase)
			next = pos + 1
		} else {
			w.Uvarint(termLiteral)
			w.String(h.Term)
		}

		if flags&hopGrid != 0 {
			w.Uvarint(uint64(h.Row))
			w.Uvarint(uint64(h.Col))
			w.Uvarint(uint64(h.Attempt))
		}
		if flags&hopRPC != 0 {
			names = appendNode(w, names, h.From)
			w.Uvarint(uint64(h.ElapsedNS))
			w.String(h.Err)
		}
	}
}

// IndexFrom is slices.Index starting at position from and wrapping around:
// a list that names terms in the order terms holds them is resolved in one
// walk, whatever the gaps, and any other order is still found.
func IndexFrom(terms []string, from int, term string) int {
	if i := slices.Index(terms[from:], term); i >= 0 {
		return from + i
	}
	return slices.Index(terms[:from], term)
}

// appendNode writes the reference of one node name, introducing it on first
// use.
func appendNode(w *codec.Writer, names []string, name string) []string {
	if name == "" {
		w.Uvarint(0)
		return names
	}
	if i := slices.Index(names, name); i >= 0 {
		w.Uvarint(uint64(i) + 1)
		return names
	}
	w.Uvarint(uint64(len(names)) + 1)
	w.String(name)
	return append(names, name)
}

// DecodeHops parses a hop list written by AppendHops for a request that
// routed terms. Decoded Term strings are the request's own; each node name is
// allocated once per response.
func DecodeHops(r *codec.Reader, terms []string) ([]Hop, error) {
	n, err := r.Uvarint()
	if err != nil {
		return nil, err
	}
	if n == 0 {
		return nil, nil
	}
	if n > uint64(r.Remaining()/minHopBytes) {
		return nil, fmt.Errorf("trace: hop count %d overflows payload", n)
	}
	hops := make([]Hop, n)
	var nameBuf [8]string
	names := nameBuf[:0]
	for i := range hops {
		h := &hops[i]
		flags, err := r.Uint8()
		if err != nil {
			return nil, err
		}
		switch stage := int(flags & hopStageMask); {
		case stage == 0:
			if h.Stage, err = r.String(); err != nil {
				return nil, err
			}
		case stage < len(stageNames):
			h.Stage = stageNames[stage]
		default:
			return nil, fmt.Errorf("trace: hop %d: unknown stage code %d", i, stage)
		}
		h.Failover = flags&hopFailover != 0
		h.Lost = flags&hopLost != 0
		h.Pending = flags&hopPending != 0
		if h.To, names, err = decodeNode(r, names); err != nil {
			return nil, fmt.Errorf("trace: hop %d: to: %w", i, err)
		}

		ref, err := r.Uvarint()
		if err != nil {
			return nil, err
		}
		switch {
		case ref == termEmpty:
		case ref == termLiteral:
			if h.Term, err = r.String(); err != nil {
				return nil, err
			}
		case ref-termBase < uint64(len(terms)):
			h.Term = terms[ref-termBase]
		default:
			return nil, fmt.Errorf("trace: hop %d: term position %d past the request's %d term(s)", i, ref-termBase, len(terms))
		}

		if flags&hopGrid != 0 {
			var row, col, attempt uint64
			if row, err = r.Uvarint(); err != nil {
				return nil, err
			}
			if col, err = r.Uvarint(); err != nil {
				return nil, err
			}
			if attempt, err = r.Uvarint(); err != nil {
				return nil, err
			}
			h.Row, h.Col, h.Attempt = int(row), int(col), int(attempt)
		}
		if flags&hopRPC != 0 {
			if h.From, names, err = decodeNode(r, names); err != nil {
				return nil, fmt.Errorf("trace: hop %d: from: %w", i, err)
			}
			elapsed, err := r.Uvarint()
			if err != nil {
				return nil, err
			}
			h.ElapsedNS = int64(elapsed)
			if h.Err, err = r.String(); err != nil {
				return nil, err
			}
		}
	}
	return hops, nil
}

// decodeNode reads one node reference, learning the name it introduces.
func decodeNode(r *codec.Reader, names []string) (string, []string, error) {
	ref, err := r.Uvarint()
	if err != nil {
		return "", names, err
	}
	switch {
	case ref == 0:
		return "", names, nil
	case ref <= uint64(len(names)):
		return names[ref-1], names, nil
	case ref == uint64(len(names))+1:
		name, err := r.String()
		if err != nil {
			return "", names, err
		}
		return name, append(names, name), nil
	}
	return "", names, fmt.Errorf("node reference %d with %d name(s) introduced", ref, len(names))
}
