package leader_test

import (
	"testing"

	"rpls/internal/core"
	"rpls/internal/graph"
	"rpls/internal/prng"
	"rpls/internal/schemes/leader"
	"rpls/internal/schemes/schemetest"
)

func leaderConfig(g *graph.Graph, who int) *graph.Config {
	c := graph.NewConfig(g)
	c.States[who].Flags |= graph.FlagLeader
	return c
}

func TestPredicate(t *testing.T) {
	c := leaderConfig(graph.Path(5), 2)
	if !(leader.Predicate{}).Eval(c) {
		t.Error("single leader rejected")
	}
	c.States[4].Flags |= graph.FlagLeader
	if (leader.Predicate{}).Eval(c) {
		t.Error("two leaders accepted")
	}
	if (leader.Predicate{}).Eval(graph.NewConfig(graph.Path(5))) {
		t.Error("zero leaders accepted")
	}
}

func TestCompleteness(t *testing.T) {
	rng := prng.New(1)
	det := leader.NewPLS()
	rand := leader.NewRPLS()
	for trial := 0; trial < 15; trial++ {
		n := 1 + rng.Intn(30)
		g := graph.RandomConnected(n, rng.Intn(n), rng)
		c := leaderConfig(g, rng.Intn(n))
		c.States[rng.Intn(n)].Flags |= 0 // no-op; leaders stay unique
		c.AssignRandomIDs(rng)
		h := schemetest.New(uint64(trial))
		h.LegalAccepted(t, det, c)
		h.LegalAcceptedRPLS(t, rand, c, 30)
	}
}

func TestProverRefusesIllegal(t *testing.T) {
	h := schemetest.New(1)
	h.ProverRefuses(t, leader.NewPLS(), graph.NewConfig(graph.Path(4)))
	two := leaderConfig(graph.Path(4), 0)
	two.States[3].Flags |= graph.FlagLeader
	h.ProverRefuses(t, leader.NewPLS(), two)
}

func TestSoundnessZeroLeaders(t *testing.T) {
	g := graph.RandomConnected(10, 5, prng.New(2))
	legal := leaderConfig(g, 3)
	illegal := legal.Clone()
	illegal.States[3].Flags &^= graph.FlagLeader
	h := schemetest.New(3)
	h.TransplantRejected(t, leader.NewPLS(), legal, illegal)
	h.TransplantRejectedRPLS(t, leader.NewRPLS(), legal, illegal, 300, 100)
	h.RandomLabelsRejected(t, leader.NewPLS(), illegal, 200, 100)
}

func TestSoundnessTwoLeaders(t *testing.T) {
	g := graph.RandomConnected(10, 5, prng.New(4))
	legal := leaderConfig(g, 3)
	illegal := legal.Clone()
	illegal.States[7].Flags |= graph.FlagLeader
	h := schemetest.New(5)
	h.TransplantRejected(t, leader.NewPLS(), legal, illegal)
	h.TransplantRejectedRPLS(t, leader.NewRPLS(), legal, illegal, 300, 100)
	h.RandomLabelsRejected(t, leader.NewPLS(), illegal, 200, 100)
}

func TestLabelAndCertSizes(t *testing.T) {
	rng := prng.New(6)
	for _, n := range []int{8, 64, 512} {
		g := graph.RandomConnected(n, n/3, rng)
		c := leaderConfig(g, 0)
		h := schemetest.New(uint64(n))
		h.LabelBitsAtMost(t, leader.NewPLS(), c, 96)
		h.CertBitsAtMost(t, leader.NewRPLS(), c, 40)
	}
}

func TestSingleNodeLeader(t *testing.T) {
	c := leaderConfig(graph.New(1), 0)
	schemetest.New(1).LegalAccepted(t, leader.NewPLS(), c)
}

// TestVerifyAllocationFree pins the //pls:hotpath contract of Verify.
func TestVerifyAllocationFree(t *testing.T) {
	c := leaderConfig(graph.RandomConnected(64, 32, prng.New(2)), 5)
	c.AssignRandomIDs(prng.New(3))
	s := leader.NewPLS()
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
