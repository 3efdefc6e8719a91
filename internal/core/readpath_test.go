package core

import (
	"runtime"
	"slices"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/pregel"
)

// runProbed drives prog over vs as Partitioner.run does, calling probe
// single-threaded after every superstep's barrier and master computation,
// when the engine's state is quiescent.
func runProbed(t *testing.T, opts Options, prog *program, vs []vertex, probe func(eng *engine, step int)) {
	t.Helper()
	var eng *engine
	eng = pregel.NewEngine[vval, graph.WeightedArc, msg](pregel.Config{
		NumWorkers:     opts.NumWorkers,
		MaxSupersteps:  maxSupersteps(opts.MaxIterations),
		AfterSuperstep: func(step int) { probe(eng, step) },
	}, prog)
	prog.register(eng)
	if err := eng.SetVertices(vs); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Run(); err != nil {
		t.Fatal(err)
	}
}

// reAddedEdgeGraph is a ring lattice (each vertex joined to the next three,
// at weight 1 or 2) in which every fifth vertex's edge to its successor is
// added a second time, at weight 3: the one arc per row holds 4 or 5.
func reAddedEdgeGraph(n int) *graph.Weighted {
	w := graph.NewWeighted(n)
	for u := 0; u < n; u++ {
		for j := 1; j <= 3; j++ {
			w.AddEdge(graph.VertexID(u), graph.VertexID((u+j)%n), int32(1+(u+j)%2))
		}
		if u%5 == 0 {
			w.AddEdge(graph.VertexID(u), graph.VertexID((u+1)%n), 3)
		}
	}
	return w
}

// TestReAddedEdgesReachTheHistogram: an edge added twice is one arc holding
// both weights, and the bar of the neighbour's label holds all of it — read
// so in iteration 1, and moved so by the one announcement a migration sends
// along the arc — so after every ComputeScores superstep each vertex's bars
// add up to its weighted degree, and no row names a neighbour twice. The
// labels are the ones recorded when each re-added edge was two parallel
// arcs, each announced: merging them moved no label.
func TestReAddedEdgesReachTheHistogram(t *testing.T) {
	const n, k = 120, 4
	want := map[int]uint64{1: 0x90928194f01a6897, 4: 0x881aaaa50683aea5}
	for _, workers := range []int{1, 4} {
		opts := DefaultOptions(k)
		opts.Seed = 42
		opts.NumWorkers = workers
		if err := opts.normalize(); err != nil {
			t.Fatal(err)
		}
		prog := newProgram(opts, n, nil, nil)
		merged, supersteps := 0, 0
		runProbed(t, opts, prog, verticesOn(reAddedEdgeGraph(n)), func(eng *engine, step int) {
			// The master has already advanced the phase: ComputeMigrations
			// next means ComputeScores just ran.
			if prog.phase != phaseComputeMigrations {
				return
			}
			supersteps++
			for _, v := range eng.Vertices() {
				var barW int64
				for _, b := range v.Value.hist {
					barW += b
				}
				if float64(barW) != v.Value.degW {
					t.Fatalf("workers=%d superstep %d: vertex %d's bars hold %d of its weighted degree %v: %v",
						workers, step, v.ID, barW, v.Value.degW, v.Value.hist)
				}
				seen := map[graph.VertexID]bool{}
				for _, a := range v.Edges {
					if seen[a.To] {
						t.Fatalf("workers=%d: vertex %d holds two arcs to %d", workers, v.ID, a.To)
					}
					seen[a.To] = true
					if a.Weight > 3 {
						merged++
					}
				}
			}
		})
		if supersteps == 0 || merged != supersteps*2*(n/5) {
			t.Fatalf("workers=%d: %d merged arcs seen over %d ComputeScores supersteps, want %d each", workers, merged, supersteps, 2*(n/5))
		}
		if got := hashLabels(prog.labels); got != want[workers] {
			t.Errorf("workers=%d: labels %#x, recorded %#x", workers, got, want[workers])
		}
	}
}

// TestInitialLabelsAreReadNotSent pins the read path from both ends. Inside
// the engine: the Initialization superstep sends nothing and the first
// ComputeScores receives nothing, yet after it every vertex's histogram is
// the scan of its arcs over its neighbours' starting labels; and every
// message of the run is a migration announcement, so each ComputeMigrations
// superstep sends exactly the degrees of the vertices that moved in it. From
// outside: Result.Messages of a warm start is that sum, and the caller's
// previous labels are not the run's array.
func TestInitialLabelsAreReadNotSent(t *testing.T) {
	const n, k = 2000, 8
	w := graph.Convert(gen.WattsStrogatz(n, 8, 0.3, 7))
	for _, workers := range []int{1, 2, 4} {
		opts := DefaultOptions(k)
		opts.Seed = 42
		opts.NumWorkers = workers
		if err := opts.normalize(); err != nil {
			t.Fatal(err)
		}
		prog := newProgram(opts, n, nil, nil)
		var before []int32 // the labels before the current iteration's migrations
		var announced int64
		iterations, histograms := 0, 0
		runProbed(t, opts, prog, verticesOn(w), func(eng *engine, step int) {
			st := &eng.Stats()[step]
			switch {
			case before == nil && prog.phase == phaseComputeScores: // Initialization just ran
				var received int64
				for _, r := range st.Received {
					received += r
				}
				if st.TotalSent() != 0 || received != 0 {
					t.Fatalf("workers=%d: Initialization sent %d messages, %d delivered to iteration 1", workers, st.TotalSent(), received)
				}
				before = slices.Clone(prog.labels)
			case len(prog.history) > iterations: // a ComputeMigrations just ran
				iterations = len(prog.history)
				var want int64
				for v, l := range prog.labels {
					if l != before[v] {
						want += int64(len(eng.Vertices()[v].Edges))
					}
				}
				if st.TotalSent() != want {
					t.Fatalf("workers=%d iteration %d: %d messages sent, the migrated vertices have %d arcs",
						workers, iterations, st.TotalSent(), want)
				}
				announced += want
				copy(before, prog.labels)
			case prog.iter == 1: // the first ComputeScores just ran
				for _, v := range eng.Vertices() {
					histograms++
					want, held := scanHistogram(v.Edges, before, k)
					if !slices.Equal(v.Value.hist, want) || !slices.Equal(v.Value.held, held) {
						t.Fatalf("workers=%d: vertex %d read the histogram %v of labels %v, its neighbours start at %v of labels %v",
							workers, v.ID, v.Value.hist, heldLabels(v.Value.held), want, heldLabels(held))
					}
				}
			}
		})
		if announced == 0 || iterations < 5 || histograms != n {
			t.Fatalf("workers=%d: %d announcements over %d iterations, %d histograms checked; the probe saw no run",
				workers, announced, iterations, histograms)
		}

		// Warm starts through the public API.
		base, err := mustPartitioner(t, opts).PartitionWeighted(w)
		if err != nil {
			t.Fatal(err)
		}
		grown := w.Clone()
		if _, err := gen.GrowthBatch(grown, 0.02, 99).Apply(grown); err != nil {
			t.Fatal(err)
		}
		prev := slices.Clone(base.Labels)
		ropts := opts
		ropts.K = k + 2
		relabeled, err := ElasticRelabel(prev, k, ropts.K, ropts.Seed)
		if err != nil {
			t.Fatal(err)
		}
		for name, c := range map[string]struct {
			opts  Options
			on    *graph.Weighted
			start []int32
			run   func(*Partitioner) (*Result, error)
		}{
			"Adapt":  {opts, grown, prev, func(p *Partitioner) (*Result, error) { return p.Adapt(grown, prev, nil) }},
			"Resize": {ropts, w, relabeled, func(p *Partitioner) (*Result, error) { return p.Resize(w, prev, k) }},
		} {
			before := slices.Clone(c.start)
			var want int64
			c.opts.IterationSnapshot = func(_ int, labels []int32) {
				for v, l := range labels {
					if l != before[v] {
						want += int64(c.on.Degree(graph.VertexID(v)))
					}
				}
				before = labels
			}
			res, err := c.run(mustPartitioner(t, c.opts))
			if err != nil {
				t.Fatal(err)
			}
			if res.Messages != want || want == 0 {
				t.Errorf("%s workers=%d: Result.Messages = %d, the migrated vertices have %d arcs", name, workers, res.Messages, want)
			}
			if !slices.Equal(prev, base.Labels) {
				t.Fatalf("%s workers=%d: the run wrote into the caller's previous labels", name, workers)
			}
			if &res.Labels[0] == &prev[0] {
				t.Fatalf("%s workers=%d: Result.Labels is the caller's slice", name, workers)
			}
		}
	}
}

// TestPartitionAllocationBudget: a from-scratch run allocates its vertex
// array, the histogram and label-bitmap arenas and the engine's message
// buffers, which hold migration announcements only; the arcs are the
// graph's rows, read in place. At most 22 B per arc on WS(50 000, 16, 0.3),
// k = 32 (20.0 measured; 27.9 when a bar also held its label; 26.8 before
// each vertex kept a label bitmap; 37 when the run copied every arc into an
// edge arena of its own, 106 when every arc also carried a starting label
// through an outbox and an inbox arena). A per-arc buffer that comes back
// fails here rather than in a benchmark.
func TestPartitionAllocationBudget(t *testing.T) {
	w := graph.Convert(gen.WattsStrogatz(50_000, 16, 0.3, 7))
	opts := DefaultOptions(32)
	opts.Seed = 42
	opts.NumWorkers = 2
	p := mustPartitioner(t, opts)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if _, err := p.PartitionWeighted(w); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	perArc := float64(after.TotalAlloc-before.TotalAlloc) / float64(2*w.NumEdges())
	t.Logf("%.1f B/arc", perArc)
	if perArc > 22 {
		t.Fatalf("PartitionWeighted allocated %.1f B per arc, budget 22", perArc)
	}
}
