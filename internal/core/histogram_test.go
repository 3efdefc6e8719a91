package core

import (
	"fmt"
	"runtime"
	"slices"
	"testing"
	"unsafe"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/pregel"
	"repro/internal/rng"
)

// scanHistogram is the reference the incremental histogram must equal: a
// fresh scan of every arc over the current labels — the distinct
// neighbour labels as a bitmap of ⌈k/64⌉ words, and their weights, summed,
// in label order.
func scanHistogram(arcs []graph.WeightedArc, labels []int32, k int) (hist []int64, held []uint64) {
	sum := map[int32]int64{}
	held = make([]uint64, (k+63)/64)
	for _, a := range arcs {
		l := labels[a.To]
		sum[l] += int64(a.Weight)
		held[l>>6] |= 1 << (l & 63)
	}
	for _, l := range heldLabels(held) {
		hist = append(hist, sum[l])
	}
	return hist, held
}

// heldLabels lists the set bits of a label bitmap in ascending order: the
// labels of a histogram's bars.
func heldLabels(held []uint64) []int32 {
	var ls []int32
	for l := range int32(64 * len(held)) {
		if held[l>>6]&(1<<(l&63)) != 0 {
			ls = append(ls, l)
		}
	}
	return ls
}

// runChecked drives prog over vs as Partitioner.run does and, after every
// ComputeScores superstep, compares every vertex's histogram with a fresh
// scan of its arcs over the labels they had when the superstep ran (the
// migrations it announced have not run yet): the same held labels, the
// same weights in label order, and each label's rank its bar's index. It
// returns the number of vertex-histograms compared, and how many
// of their bars sit at a bitmap word boundary past the first word's start
// (labels 63, 64, 127, 128, …), where a rank must count the words before.
func runChecked(t *testing.T, what string, opts Options, prog *program, vs []vertex) (checked, boundary int) {
	t.Helper()
	var eng *engine
	cfg := pregel.Config{
		NumWorkers:    opts.NumWorkers,
		MaxSupersteps: maxSupersteps(opts.MaxIterations),
		AfterSuperstep: func(step int) {
			// The master has already advanced the phase: ComputeMigrations
			// next means ComputeScores just ran — unless the iteration's
			// ComputeMigrations ran and the master halted there, which its
			// metrics entry tells.
			if prog.phase != phaseComputeMigrations || len(prog.history) == prog.iter || t.Failed() {
				return
			}
			for i := range eng.Vertices() {
				v := &eng.Vertices()[i]
				want, held := scanHistogram(v.Edges, prog.labels, opts.K)
				if !slices.Equal(v.Value.hist, want) || !slices.Equal(v.Value.held, held) {
					t.Errorf("%s: superstep %d (iteration %d) vertex %d:\nhistogram %v of labels %v\narc scan  %v of labels %v",
						what, step, prog.iter, i, v.Value.hist, heldLabels(v.Value.held), want, heldLabels(held))
					return
				}
				if c := min(len(v.Edges), opts.K); cap(v.Value.hist) != c {
					t.Errorf("%s: vertex %d histogram capacity %d, want min(deg, k) = %d", what, i, cap(v.Value.hist), c)
					return
				}
				for j, l := range heldLabels(held) {
					if l >= 63 && (l%64 == 63 || l%64 == 0) {
						boundary++
					}
					if r, _ := rank(v.Value.held, l); r != j {
						t.Errorf("%s: vertex %d: rank of label %d is %d, want %d", what, i, l, r, j)
						return
					}
				}
				checked++
			}
		},
	}
	eng = pregel.NewEngine[vval, graph.WeightedArc, msg](cfg, prog)
	prog.register(eng)
	if err := eng.SetVertices(vs); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	return checked, boundary
}

// TestHistogramMatchesEdgeScanProperty: on random graphs (hubs above k, k
// above every degree, pairs the churn batch re-adds), from every entry
// point (from scratch, a churned and grown graph, a resize either way) and
// under random option mixes, the histogram that the migration announcements
// maintain equals a scan of every arc over the labels after every
// ComputeScores superstep. Seeds 1–40 draw k below 26;
// the fixed cases after them run k = 63, 64, 65 and 130 at 1 and 4 workers,
// so a label bitmap spans one, two and three words.
func TestHistogramMatchesEdgeScanProperty(t *testing.T) {
	type fixed struct{ k, workers int }
	cases := make([]fixed, 40)
	for _, k := range []int{63, 64, 65, 130} {
		cases = append(cases, fixed{k, 1}, fixed{k, 4})
	}
	total, wide := 0, 0
	for i, c := range cases {
		seed := uint64(i + 1)
		s := rng.New(seed)
		n := 60 + s.Intn(400)
		var g *graph.Graph
		var gname string
		switch s.Intn(3) {
		case 0:
			g, gname = gen.ErdosRenyi(n, int64((1+s.Intn(6))*n), true, seed), "er"
		case 1:
			g, gname = gen.BarabasiAlbert(n, 2+s.Intn(8), seed), "ba"
		default:
			g, gname = gen.WattsStrogatz(n, 2+s.Intn(10), 0.5, seed), "ws" // rewiring repeats arcs, which Convert merges
		}
		k := 2 + s.Intn(24)
		opts := DefaultOptions(k)
		opts.Seed = seed
		opts.NumWorkers = 1 + s.Intn(4)
		if c.k > 0 {
			k, opts.K, opts.NumWorkers = c.k, c.k, c.workers
		}
		opts.MaxIterations = 12 + s.Intn(20)
		opts.UnboundedMigration = s.Bool(0.15)
		opts.AffectedOnly = s.Bool(0.25)
		if s.Bool(0.25) {
			opts.CapacityFractions = make([]float64, k)
			for l := range opts.CapacityFractions {
				opts.CapacityFractions[l] = 1 + float64(s.Intn(4))
			}
		}
		if err := opts.normalize(); err != nil {
			t.Fatal(err)
		}
		what := fmt.Sprintf("seed %d %s n=%d k=%d %+v", seed, gname, n, k, opts)

		check := func(what string, opts Options, prog *program, vs []vertex) {
			checked, boundary := runChecked(t, what, opts, prog, vs)
			total += checked
			if opts.K > 64 {
				wide += boundary
			}
		}

		// From scratch.
		w := graph.Convert(g)
		base := newProgram(opts, n, nil, nil)
		vs := verticesOn(w)
		check(what+" PartitionWeighted", opts, base, vs)
		prev := base.labels

		// Adapt after churn that also appends vertices. Triadic closure
		// re-adds existing pairs at weight 2, and a new vertex may draw one
		// neighbour twice, at differing weights: each pair merges into one
		// arc.
		grown := w.Clone()
		mut := gen.ChurnBatch(grown, 0.05, 0.03, seed+1000)
		mut.NewVertices = 1 + s.Intn(10)
		for i := 0; i < mut.NewVertices; i++ {
			mut.NewEdges = append(mut.NewEdges, graph.WeightedEdgeRecord{
				U: graph.VertexID(n + i), V: graph.VertexID(s.Intn(n)), Weight: int32(1 + s.Intn(3)),
			})
		}
		if _, err := mut.Apply(grown); err != nil {
			t.Fatal(err)
		}
		for u := range grown.NumVertices() {
			seen := map[graph.VertexID]bool{}
			for _, a := range grown.Neighbors(graph.VertexID(u)) {
				if seen[a.To] {
					t.Fatalf("%s: vertex %d holds two arcs to %d after churn", what, u, a.To)
				}
				seen[a.To] = true
			}
		}
		init := make([]int32, grown.NumVertices())
		copy(init, prev)
		SeedNewVertices(grown, init, n, k)
		var mask []bool
		if opts.AffectedOnly {
			mask = make([]bool, len(init))
			for _, v := range mut.TouchedVertices() {
				mask[v] = true
			}
		}
		check(what+" Adapt", opts, newProgram(opts, len(init), init, mask), verticesOn(grown))

		// Resize up or down.
		newK := max(1, k+s.Intn(7)-3)
		relabeled, err := ElasticRelabel(prev, k, newK, seed)
		if err != nil {
			t.Fatal(err)
		}
		ropts := opts
		ropts.K = newK
		ropts.CapacityFractions = nil // sized for k
		check(what+" Resize", ropts, newProgram(ropts, n, relabeled, nil), verticesOn(w))
		if t.Failed() {
			return
		}
	}
	if total < 100_000 {
		t.Fatalf("only %d histograms compared: the probe is not running", total)
	}
	if wide < 1000 {
		t.Fatalf("only %d bars at a word boundary with k > 64: multiword rank is barely exercised", wide)
	}
}

// TestCarveHandsOutDisjointWindows: histograms carved from one worker's
// arena never overlap, whatever the mix of sizes, and a request larger than
// a chunk gets a chunk of its own.
func TestCarveHandsOutDisjointWindows(t *testing.T) {
	ws := &workerScratch{}
	s := rng.New(3)
	var hists [][]int64
	for i := 0; i < 5000; i++ {
		n := s.Intn(40)
		if i%1000 == 999 {
			n = histChunkMax + 7
		}
		h := carve(&ws.bars, n)
		if len(h) != 0 || cap(h) != n {
			t.Fatalf("carve(%d) returned len %d cap %d", n, len(h), cap(h))
		}
		for j := 0; j < n; j++ {
			h = append(h, int64(i)<<32|int64(j))
		}
		hists = append(hists, h)
	}
	for i, h := range hists {
		for j, b := range h {
			if b != int64(i)<<32|int64(j) {
				t.Fatalf("histogram %d bar %d overwritten: %#x", i, j, b)
			}
		}
	}
}

// TestWorkerScratchDoesNotShareCacheLines: no 64-byte line holds the hot
// scratch of two workers — the struct's fields and the vectors a worker
// writes on every vertex — at label counts whose vectors fall into the
// allocator's small size classes.
func TestWorkerScratchDoesNotShareCacheLines(t *testing.T) {
	const workers = 8
	for _, k := range []int{1, 3, 10, 32, 65} {
		p := newProgram(DefaultOptions(k), 1, nil, nil)
		var live []*workerScratch // keeps every worker's scratch allocated until the check ends
		owner := map[uintptr]int{}
		for wk := 0; wk < workers; wk++ {
			ws := p.InitWorker(wk, workers).(*workerScratch)
			live = append(live, ws)
			fields := unsafe.Offsetof(ws.words) + unsafe.Sizeof(ws.words) - unsafe.Offsetof(ws.refreshedAt)
			for _, r := range []struct {
				what string
				at   unsafe.Pointer
				size uintptr
			}{
				{"fields", unsafe.Pointer(&ws.refreshedAt), fields},
				{"localLoads", unsafe.Pointer(unsafe.SliceData(ws.localLoads)), uintptr(len(ws.localLoads)) * 8},
				{"penalty", unsafe.Pointer(unsafe.SliceData(ws.penalty)), uintptr(len(ws.penalty)) * 8},
				{"sum", unsafe.Pointer(unsafe.SliceData(ws.sum)), uintptr(len(ws.sum)) * 8},
				{"seen", unsafe.Pointer(unsafe.SliceData(ws.seen)), uintptr(len(ws.seen)) * 8},
			} {
				for line := uintptr(r.at) / 64; line <= (uintptr(r.at)+r.size-1)/64; line++ {
					if o, ok := owner[line]; ok && o != wk {
						t.Fatalf("k=%d: worker %d's %s shares the line at %#x with worker %d", k, wk, r.what, line*64, o)
					}
					owner[line] = wk
				}
			}
		}
		runtime.KeepAlive(live)
	}
}

// TestAffectedOnlyRestricts pins §III-D's first strategy: only vertices
// affected by the change, and vertices that later see a neighbour migrate,
// evaluate migration. The starting labels every vertex reads in iteration 1
// are not label changes and must not count.
func TestAffectedOnlyRestricts(t *testing.T) {
	const n, k = 5000, 8
	w := graph.Convert(gen.WattsStrogatz(n, 8, 0.3, 7))
	o := DefaultOptions(k)
	o.Seed = 42
	o.NumWorkers = 2
	o.MaxIterations = 3 // far from converged: every vertex would like to move
	start, err := mustPartitioner(t, o).PartitionWeighted(w)
	if err != nil {
		t.Fatal(err)
	}

	o.MaxIterations = 50
	o.AffectedOnly = true
	p := mustPartitioner(t, o)

	// Unchanged graph, nothing listed: nobody is affected, nobody moves.
	res, err := p.Adapt(w, start.Labels, nil)
	if err != nil {
		t.Fatal(err)
	}
	var migrations int64
	for _, it := range res.History {
		migrations += it.Migrations
	}
	if migrations != 0 || !slices.Equal(res.Labels, start.Labels) {
		t.Fatalf("AffectedOnly on an unchanged graph made %d migrations", migrations)
	}

	// A growth batch with new vertices: a vertex may move in iteration t
	// only if it is new, listed, or adjacent to a vertex that moved before t.
	grown := w.Clone()
	mut := gen.GrowthBatch(grown, 0.01, 99)
	mut.NewVertices = 20
	for i := 0; i < mut.NewVertices; i++ {
		mut.NewEdges = append(mut.NewEdges, graph.WeightedEdgeRecord{U: graph.VertexID(n + i), V: graph.VertexID(i * 97 % n), Weight: 2})
	}
	if _, err := mut.Apply(grown); err != nil {
		t.Fatal(err)
	}
	eligible := make([]bool, grown.NumVertices())
	for v := n; v < len(eligible); v++ {
		eligible[v] = true
	}
	for _, v := range mut.TouchedVertices() {
		eligible[v] = true
	}
	// The snapshot of iteration 1 is compared with the seeded start.
	prev := make([]int32, grown.NumVertices())
	copy(prev, start.Labels)
	SeedNewVertices(grown, prev, n, k)
	moved := 0
	o.IterationSnapshot = func(iter int, labels []int32) {
		var movers []int
		for v := range labels {
			if labels[v] == prev[v] {
				continue
			}
			if !eligible[v] {
				t.Errorf("iteration %d: vertex %d moved, but it is not new, not listed and no neighbour had migrated", iter, v)
			}
			movers = append(movers, v)
		}
		moved += len(movers)
		for _, v := range movers {
			for _, a := range grown.Neighbors(graph.VertexID(v)) {
				eligible[a.To] = true
			}
		}
		prev = labels
	}
	if _, err := mustPartitioner(t, o).Adapt(grown, start.Labels, mut.TouchedVertices()); err != nil {
		t.Fatal(err)
	}
	if moved == 0 {
		t.Fatal("no affected vertex moved: the restriction test saw nothing")
	}
}
