// Package spanningtree implements the introductory example of the paper
// (§1): certifying that a set of parent pointers {p(v)} forms a spanning
// tree of the network.
//
// The classic O(log n)-bit proof labels every node with the identity of the
// root and its distance to it; a node accepts when it agrees with all
// neighbors on the root, its distance is one more than its parent's, and
// the root itself has distance 0. Compiling the scheme (Theorem 3.1) gives
// an O(log log n)-bit randomized certificate.
package spanningtree

import (
	"rpls/internal/bitstring"
	"rpls/internal/core"
	"rpls/internal/graph"
)

// Predicate decides whether the parent ports in the node states form a
// spanning tree of the graph: exactly one root, and every node reaches it
// by following parent pointers without cycles.
type Predicate struct{}

var _ core.Predicate = Predicate{}

// Name implements core.Predicate.
func (Predicate) Name() string { return "spanning-tree" }

// Eval implements core.Predicate.
func (Predicate) Eval(c *graph.Config) bool {
	n := c.G.N()
	if n == 0 {
		return false
	}
	root := -1
	for v := 0; v < n; v++ {
		p := c.States[v].Parent
		if p == 0 {
			if root != -1 {
				return false // two roots
			}
			root = v
		} else if p < 1 || p > c.G.Degree(v) {
			return false
		}
	}
	if root == -1 {
		return false
	}
	// Every node must reach the root; memoize along the way.
	status := make([]int8, n) // 0 unknown, 1 reaches root, 2 in progress
	status[root] = 1
	for v := 0; v < n; v++ {
		var path []int
		cur := v
		for status[cur] == 0 {
			status[cur] = 2
			path = append(path, cur)
			cur = c.G.Neighbor(cur, c.States[cur].Parent).To
			if status[cur] == 2 {
				return false // cycle among parent pointers
			}
		}
		ok := status[cur] == 1
		for _, u := range path {
			if ok {
				status[u] = 1
			} else {
				return false
			}
		}
	}
	return true
}

const distBits = 32

// NewPLS returns the deterministic (id(root), dist) scheme of §1.
func NewPLS() core.PLS { return pls{} }

type pls struct{}

var _ core.PLS = pls{}

func (pls) Name() string { return "spanning-tree-det" }

func (pls) Label(c *graph.Config) ([]core.Label, error) {
	if !(Predicate{}).Eval(c) {
		return nil, core.ErrIllegalConfig
	}
	n := c.G.N()
	root := -1
	for v := 0; v < n; v++ {
		if c.States[v].Parent == 0 {
			root = v
		}
	}
	dist := make([]int, n)
	for v := 0; v < n; v++ {
		d := 0
		for cur := v; cur != root; cur = c.G.Neighbor(cur, c.States[cur].Parent).To {
			d++
		}
		dist[v] = d
	}
	labels := make([]core.Label, n)
	for v := 0; v < n; v++ {
		var w bitstring.Writer
		w.WriteUint(c.States[root].ID, 64)
		w.WriteUint(uint64(dist[v]), distBits)
		labels[v] = w.String()
	}
	return labels, nil
}

type decoded struct {
	rootID uint64
	dist   uint64
}

func decode(l core.Label) (decoded, bool) {
	r := bitstring.NewReader(l)
	rootID, err := r.ReadUint(64)
	if err != nil {
		return decoded{}, false
	}
	dist, err := r.ReadUint(distBits)
	if err != nil || r.Remaining() != 0 {
		return decoded{}, false
	}
	return decoded{rootID: rootID, dist: dist}, true
}

// Verify is allocation-free: of the neighbors' labels it keeps only the
// parent's.
//
//pls:hotpath
func (pls) Verify(view core.View, own core.Label, nbrs []core.Label) bool {
	me, ok := decode(own)
	if !ok || len(nbrs) != view.Deg {
		return false
	}
	p := view.State.Parent
	var parent decoded
	for i, nl := range nbrs {
		n, ok := decode(nl)
		if !ok {
			return false
		}
		// Everyone must agree on the root identity (§1).
		if n.rootID != me.rootID {
			return false
		}
		if i == p-1 {
			parent = n
		}
	}
	if p == 0 {
		// The root: p(r) = ⊥, checks d(r) = 0 and that it is the named root.
		return me.dist == 0 && me.rootID == view.State.ID
	}
	if p < 1 || p > view.Deg {
		return false
	}
	// d(p(v)) = d(v) − 1.
	return me.dist >= 1 && parent.dist == me.dist-1
}

// NewRPLS returns the compiled randomized scheme with O(log log n)-bit
// certificates.
func NewRPLS() core.RPLS { return core.Compile(NewPLS()) }
