package core

import (
	"testing"
	"testing/quick"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/metrics"
	"repro/internal/rng"
)

// Property: on arbitrary random graphs and k, Spinner produces a complete,
// valid labeling.
func TestPartitionProducesValidLabelsProperty(t *testing.T) {
	f := func(seed uint16, kRaw uint8) bool {
		k := int(kRaw%15) + 1
		s := rng.New(uint64(seed))
		n := 50 + s.Intn(200)
		g := gen.ErdosRenyi(n, int64(3*n), true, uint64(seed))
		w := graph.Convert(g)
		opts := DefaultOptions(k)
		opts.Seed = uint64(seed)
		opts.MaxIterations = 30
		opts.NumWorkers = 2
		p, err := NewPartitioner(opts)
		if err != nil {
			return false
		}
		res, err := p.PartitionWeighted(w)
		if err != nil {
			return false
		}
		if len(res.Labels) != n {
			return false
		}
		return metrics.ValidateLabels(res.Labels, k) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// Property: the per-iteration history reports loads consistent with the
// final labeling — the recorded final rho must match a recomputation from
// scratch (load-conservation of the aggregator bookkeeping).
func TestAggregatedLoadsMatchRecomputationProperty(t *testing.T) {
	f := func(seed uint16) bool {
		s := rng.New(uint64(seed))
		n := 100 + s.Intn(150)
		g := gen.WattsStrogatz(n, 4, 0.3, uint64(seed))
		w := graph.Convert(g)
		k := 2 + s.Intn(6)
		opts := DefaultOptions(k)
		opts.Seed = uint64(seed) + 1
		opts.MaxIterations = 25
		opts.NumWorkers = 3
		p, err := NewPartitioner(opts)
		if err != nil {
			return false
		}
		res, err := p.PartitionWeighted(w)
		if err != nil || len(res.History) == 0 {
			return false
		}
		want := metrics.Rho(w, res.Labels, k)
		got := res.FinalRho()
		diff := want - got
		if diff < 0 {
			diff = -diff
		}
		return diff < 1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

// Property: adaptation never produces an invalid labeling and preserves
// every unmoved vertex's label domain.
func TestAdaptValidProperty(t *testing.T) {
	f := func(seed uint16) bool {
		s := rng.New(uint64(seed))
		n := 100 + s.Intn(100)
		g := gen.WattsStrogatz(n, 4, 0.2, uint64(seed))
		w := graph.Convert(g)
		k := 2 + s.Intn(4)
		opts := DefaultOptions(k)
		opts.Seed = uint64(seed)
		opts.MaxIterations = 20
		opts.NumWorkers = 2
		p, err := NewPartitioner(opts)
		if err != nil {
			return false
		}
		base, err := p.PartitionWeighted(w)
		if err != nil {
			return false
		}
		grown := w.Clone()
		mut := gen.GrowthBatch(grown, 0.05, uint64(seed)+7)
		if _, err := mut.Apply(grown); err != nil {
			return false
		}
		res, err := p.Adapt(grown, base.Labels, mut.TouchedVertices())
		if err != nil {
			return false
		}
		return metrics.ValidateLabels(res.Labels, k) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Fatal(err)
	}
}

// Property: elastic relabeling is deterministic per seed and only ever
// moves vertices in the directions §III-E allows.
func TestElasticRelabelProperty(t *testing.T) {
	f := func(seed uint16, oldKRaw, newKRaw uint8) bool {
		oldK := int(oldKRaw%10) + 1
		newK := int(newKRaw%10) + 1
		s := rng.New(uint64(seed))
		prev := make([]int32, 500)
		for i := range prev {
			prev[i] = int32(s.Intn(oldK))
		}
		a, err := ElasticRelabel(prev, oldK, newK, uint64(seed))
		if err != nil {
			return false
		}
		b, err := ElasticRelabel(prev, oldK, newK, uint64(seed))
		if err != nil {
			return false
		}
		for i := range a {
			if a[i] != b[i] {
				return false // nondeterministic
			}
			if a[i] < 0 || a[i] >= int32(newK) {
				return false // out of range
			}
			if newK > oldK && a[i] != prev[i] && a[i] < int32(oldK) {
				return false // grow may only move to new partitions
			}
			if newK < oldK && prev[i] < int32(newK) && a[i] != prev[i] {
				return false // shrink may not move surviving vertices
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// Ablation: without the probabilistic migration step, balance degrades
// (this is the design rationale for ComputeMigrations, §IV-A3).
func TestAblationUnboundedMigrationHurtsBalance(t *testing.T) {
	g := gen.BarabasiAlbert(3000, 8, 83)
	w := graph.Convert(g)

	bounded := DefaultOptions(8)
	bounded.Seed = 85
	rb, err := mustPartitioner(t, bounded).PartitionWeighted(w)
	if err != nil {
		t.Fatal(err)
	}

	unbounded := bounded
	unbounded.UnboundedMigration = true
	ru, err := mustPartitioner(t, unbounded).PartitionWeighted(w)
	if err != nil {
		t.Fatal(err)
	}

	rhoB := metrics.Rho(w, rb.Labels, 8)
	rhoU := metrics.Rho(w, ru.Labels, 8)
	// The bounded variant must respect c; the unbounded one is free to
	// wander. We assert the bounded property rather than strict ordering
	// (the unbounded run can get lucky).
	if rhoB > 1.15 {
		t.Fatalf("bounded rho=%.3f", rhoB)
	}
	t.Logf("ablation: bounded rho=%.3f unbounded rho=%.3f", rhoB, rhoU)
}
