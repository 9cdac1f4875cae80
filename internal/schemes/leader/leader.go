// Package leader certifies leader-election validity: exactly one node in
// the (connected) network carries the leader flag. This is the kind of
// output-checking predicate the paper's introduction motivates — the
// election algorithm produces the flag, and the scheme certifies it.
//
// The deterministic scheme roots a spanning tree at the leader: every node
// is labeled with the leader's identity and its distance to the leader.
// Locally, nodes agree on the leader identity with every neighbor, a node
// flags itself as leader iff its distance is 0 and the named leader is
// itself, and a positive-distance node has some neighbor one step closer.
// No leader ⇒ the minimum-distance node rejects; two leaders ⇒ they name
// different identities (identities are unique), and some edge on the path
// between them sees the disagreement.
package leader

import (
	"rpls/internal/bitstring"
	"rpls/internal/core"
	"rpls/internal/graph"
)

// Predicate decides whether exactly one node has FlagLeader set.
type Predicate struct{}

var _ core.Predicate = Predicate{}

// Name implements core.Predicate.
func (Predicate) Name() string { return "one-leader" }

// Eval implements core.Predicate.
func (Predicate) Eval(c *graph.Config) bool {
	leaders := 0
	for _, s := range c.States {
		if s.Flags&graph.FlagLeader != 0 {
			leaders++
		}
	}
	return leaders == 1
}

const distBits = 32

// NewPLS returns the deterministic O(log n) scheme.
func NewPLS() core.PLS { return pls{} }

type pls struct{}

var _ core.PLS = pls{}

func (pls) Name() string { return "one-leader-det" }

func (pls) Label(c *graph.Config) ([]core.Label, error) {
	if !(Predicate{}).Eval(c) || !c.G.IsConnected() {
		return nil, core.ErrIllegalConfig
	}
	leaderNode := -1
	for v, s := range c.States {
		if s.Flags&graph.FlagLeader != 0 {
			leaderNode = v
		}
	}
	dist := c.G.BFSDist(leaderNode)
	labels := make([]core.Label, c.G.N())
	for v := range labels {
		var w bitstring.Writer
		w.WriteUint(c.States[leaderNode].ID, 64)
		w.WriteUint(uint64(dist[v]), distBits)
		labels[v] = w.String()
	}
	return labels, nil
}

type decoded struct {
	leaderID uint64
	dist     uint64
}

func decode(l core.Label) (decoded, bool) {
	r := bitstring.NewReader(l)
	id, err := r.ReadUint(64)
	if err != nil {
		return decoded{}, false
	}
	dist, err := r.ReadUint(distBits)
	if err != nil || r.Remaining() != 0 {
		return decoded{}, false
	}
	return decoded{leaderID: id, dist: dist}, true
}

// Verify is allocation-free.
//
//pls:hotpath
func (pls) Verify(view core.View, own core.Label, nbrs []core.Label) bool {
	me, ok := decode(own)
	if !ok || len(nbrs) != view.Deg {
		return false
	}
	isLeader := view.State.Flags&graph.FlagLeader != 0
	if isLeader != (me.dist == 0) {
		return false
	}
	if me.dist == 0 && me.leaderID != view.State.ID {
		return false
	}
	closer := false
	for _, nl := range nbrs {
		n, ok := decode(nl)
		if !ok {
			return false
		}
		if n.leaderID != me.leaderID {
			return false
		}
		if n.dist+1 == me.dist {
			closer = true
		}
	}
	return me.dist == 0 || closer
}

// NewRPLS returns the compiled randomized scheme.
func NewRPLS() core.RPLS { return core.Compile(NewPLS()) }
