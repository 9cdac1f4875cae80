package spanningtree_test

import (
	"testing"

	"rpls/internal/core"
	"rpls/internal/engine"
	"rpls/internal/graph"
	"rpls/internal/prng"
	"rpls/internal/schemes/schemetest"
	"rpls/internal/schemes/spanningtree"
)

// treeConfig builds a configuration whose parent pointers are a BFS
// spanning tree of g rooted at root.
func treeConfig(t *testing.T, g *graph.Graph, root int) *graph.Config {
	t.Helper()
	c := graph.NewConfig(g)
	parents := g.SpanningTreeParents(root)
	if parents == nil {
		t.Fatal("graph not connected")
	}
	for v, p := range parents {
		c.States[v].Parent = p
	}
	return c
}

func TestPredicateAcceptsSpanningTrees(t *testing.T) {
	rng := prng.New(1)
	for trial := 0; trial < 30; trial++ {
		n := 1 + rng.Intn(40)
		g := graph.RandomConnected(n, rng.Intn(n), rng)
		c := treeConfig(t, g, rng.Intn(n))
		if !(spanningtree.Predicate{}).Eval(c) {
			t.Fatalf("trial %d: BFS tree rejected by predicate", trial)
		}
	}
}

func TestPredicateRejectsTwoRoots(t *testing.T) {
	c := treeConfig(t, graph.Path(5), 0)
	c.States[3].Parent = 0 // second root; pointer structure now a forest
	if (spanningtree.Predicate{}).Eval(c) {
		t.Error("two-root forest accepted as spanning tree")
	}
}

func TestPredicateRejectsParentCycle(t *testing.T) {
	g, err := graph.Cycle(4)
	if err != nil {
		t.Fatal(err)
	}
	c := graph.NewConfig(g)
	// Everyone points clockwise: a 1-factor with a cycle, no root.
	for v := 0; v < 4; v++ {
		p, _ := c.G.PortTo(v, (v+1)%4)
		c.States[v].Parent = p
	}
	if (spanningtree.Predicate{}).Eval(c) {
		t.Error("cyclic parent pointers accepted")
	}
}

func TestCompletenessAcrossTopologies(t *testing.T) {
	rng := prng.New(2)
	det := spanningtree.NewPLS()
	rand := spanningtree.NewRPLS()
	topologies := []*graph.Graph{
		graph.Path(12),
		graph.Star(9),
		graph.Complete(7),
		graph.RandomConnected(25, 20, rng),
	}
	for i, g := range topologies {
		c := treeConfig(t, g, 0)
		c.AssignRandomIDs(rng)
		h := schemetest.New(uint64(i))
		h.LegalAccepted(t, det, c)
		h.LegalAcceptedRPLS(t, rand, c, 40+i)
	}
}

func TestProverRefusesIllegal(t *testing.T) {
	c := treeConfig(t, graph.Path(5), 0)
	c.States[2].Parent = 0 // break: two roots
	schemetest.New(1).ProverRefuses(t, spanningtree.NewPLS(), c)
}

func TestSoundnessTwoRootsTransplant(t *testing.T) {
	g := graph.RandomConnected(12, 8, prng.New(3))
	legal := treeConfig(t, g, 0)
	illegal := legal.Clone()
	// Re-root one subtree at itself: the pointer set is now a two-tree
	// forest, not a spanning tree.
	for v := 1; v < 12; v++ {
		if illegal.States[v].Parent != 0 {
			illegal.States[v].Parent = 0
			break
		}
	}
	h := schemetest.New(3)
	h.TransplantRejected(t, spanningtree.NewPLS(), legal, illegal)
	h.TransplantRejectedRPLS(t, spanningtree.NewRPLS(), legal, illegal, 300, 100)
}

func TestSoundnessPointerCycleAllLabelings(t *testing.T) {
	// On a 4-cycle with clockwise pointers, no labeling may be accepted:
	// dist must strictly decrease along pointers, which a cycle forbids.
	g, err := graph.Cycle(4)
	if err != nil {
		t.Fatal(err)
	}
	illegal := graph.NewConfig(g)
	for v := 0; v < 4; v++ {
		p, _ := illegal.G.PortTo(v, (v+1)%4)
		illegal.States[v].Parent = p
	}
	schemetest.New(4).RandomLabelsRejected(t, spanningtree.NewPLS(), illegal, 300, 100)

	// Structured attack: consistent rootID with crafted distances cannot
	// satisfy d(p(v)) = d(v) − 1 around a cycle; verify a best-effort
	// assignment (increasing distances) still fails.
	legalPath := treeConfig(t, graph.Path(4), 0)
	labels, err := spanningtree.NewPLS().Label(legalPath)
	if err != nil {
		t.Fatal(err)
	}
	if engine.Verify(engine.FromPLS(spanningtree.NewPLS()), illegal, labels).Accepted {
		t.Error("path labels fooled the cycle")
	}
}

func TestLabelAndCertSizes(t *testing.T) {
	rng := prng.New(5)
	for _, n := range []int{8, 64, 256} {
		g := graph.RandomConnected(n, n/2, rng)
		c := treeConfig(t, g, 0)
		// Θ(log n): 64-bit identity + 32-bit distance.
		h := schemetest.New(uint64(n))
		h.LabelBitsAtMost(t, spanningtree.NewPLS(), c, 96)
		// Compiled: O(log κ) with κ = 96.
		h.CertBitsAtMost(t, spanningtree.NewRPLS(), c, 40)
	}
}

func TestSingleNodeTree(t *testing.T) {
	c := graph.NewConfig(graph.New(1))
	if !(spanningtree.Predicate{}).Eval(c) {
		t.Fatal("single root node should satisfy the predicate")
	}
	schemetest.New(1).LegalAccepted(t, spanningtree.NewPLS(), c)
}

// TestVerifyAllocationFree pins the //pls:hotpath contract of Verify: the
// compiled scheme's plan runs it once per node per estimation call, and
// the lane path relies on it allocating nothing.
func TestVerifyAllocationFree(t *testing.T) {
	c := treeConfig(t, graph.RandomConnected(64, 32, prng.New(2)), 0)
	s := spanningtree.NewPLS()
	labels, err := s.Label(c)
	if err != nil {
		t.Fatal(err)
	}
	nbrs := make([][]core.Label, c.G.N())
	for v := range nbrs {
		for _, h := range c.G.AdjView(v) {
			nbrs[v] = append(nbrs[v], labels[h.To])
		}
	}
	allocs := testing.AllocsPerRun(5, func() {
		for v := range nbrs {
			if !s.Verify(core.ViewOf(c, v), labels[v], nbrs[v]) {
				t.Fatalf("node %d rejects honest labels", v)
			}
		}
	})
	if allocs != 0 {
		t.Fatalf("Verify allocates %v times per sweep, want 0", allocs)
	}
}
