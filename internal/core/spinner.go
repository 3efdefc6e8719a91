package core

import (
	"fmt"
	"slices"
	"time"

	"repro/internal/graph"
	"repro/internal/pregel"
)

// Partitioner computes k-way balanced partitionings with the Spinner
// algorithm. A Partitioner is immutable and safe for reuse across runs.
type Partitioner struct {
	opts Options
}

// NewPartitioner validates opts (filling defaults) and returns a
// Partitioner.
func NewPartitioner(opts Options) (*Partitioner, error) {
	if err := opts.normalize(); err != nil {
		return nil, err
	}
	return &Partitioner{opts: opts}, nil
}

// Options returns the normalized options in effect.
func (p *Partitioner) Options() Options { return p.opts }

// Partition partitions g from scratch: it converts g to the weighted
// undirected graph of Eq. 3 with graph.Convert, which drops repeated arcs
// and self-loops, and partitions that with PartitionWeighted. The package
// doc says why the conversion runs before the engine, not in it (Fig. 2).
func (p *Partitioner) Partition(g *graph.Graph) (*Result, error) {
	return p.PartitionWeighted(graph.Convert(g))
}

// PartitionWeighted partitions a weighted undirected graph from scratch.
// The run reads w's rows in place and never writes them; w must not change
// until it returns.
func (p *Partitioner) PartitionWeighted(w *graph.Weighted) (*Result, error) {
	return p.run(newProgram(p.opts, w.NumVertices(), nil, nil), verticesOn(w))
}

// Adapt incrementally repartitions w after graph changes (§III-D). prev
// holds the previous labels; if w has grown, vertices beyond len(prev) are
// new and are seeded on the least-loaded partitions so the balance
// constraint is not violated. affected optionally lists the vertices
// adjacent to the changes; it is consulted only when Options.AffectedOnly
// restricts migration evaluation (the paper's default lets every vertex
// participate, and so does ours when AffectedOnly is false).
func (p *Partitioner) Adapt(w *graph.Weighted, prev []int32, affected []graph.VertexID) (*Result, error) {
	n := w.NumVertices()
	if len(prev) > n {
		return nil, fmt.Errorf("core: previous labeling has %d labels but graph has %d vertices", len(prev), n)
	}
	for v, l := range prev {
		if l < 0 || int(l) >= p.opts.K {
			return nil, fmt.Errorf("core: previous label %d of vertex %d outside [0,%d)", l, v, p.opts.K)
		}
	}
	init := make([]int32, n)
	copy(init, prev)
	SeedNewVertices(w, init, len(prev), p.opts.K)

	var mask []bool
	if p.opts.AffectedOnly {
		mask = make([]bool, n)
		for v := len(prev); v < n; v++ {
			mask[v] = true
		}
		for _, v := range affected {
			if v >= 0 && int(v) < n {
				mask[v] = true
			}
		}
	}
	return p.run(newProgram(p.opts, n, init, mask), verticesOn(w))
}

// Resize adapts a partitioning from oldK partitions to Options.K
// partitions (§III-E). When partitions are added, each vertex moves to a
// uniformly chosen new partition with probability n/(k+n) (Eq. 11); when
// partitions are removed, vertices on removed partitions move to a
// uniformly chosen surviving one. The LPA iterations then repair locality.
func (p *Partitioner) Resize(w *graph.Weighted, prev []int32, oldK int) (*Result, error) {
	if len(prev) != w.NumVertices() {
		return nil, fmt.Errorf("core: previous labeling has %d labels but graph has %d vertices", len(prev), w.NumVertices())
	}
	if oldK < 1 {
		return nil, fmt.Errorf("core: oldK=%d", oldK)
	}
	init, err := ElasticRelabel(prev, oldK, p.opts.K, p.opts.Seed)
	if err != nil {
		return nil, err
	}
	return p.run(newProgram(p.opts, len(init), init, nil), verticesOn(w))
}

// maxSupersteps is the length of a run that reaches maxIterations: one
// Initialization superstep, then a ComputeScores and a ComputeMigrations
// superstep per LPA iteration.
func maxSupersteps(maxIterations int) int { return 1 + 2*maxIterations }

// run drives the Pregel engine and packages the Result.
func (p *Partitioner) run(prog *program, vs []vertex) (*Result, error) {
	start := time.Now()
	cfg := pregel.Config{
		NumWorkers:    p.opts.NumWorkers,
		MaxSupersteps: maxSupersteps(p.opts.MaxIterations),
	}
	if hook := p.opts.IterationSnapshot; hook != nil {
		// An LPA iteration completes when the master appends its metrics
		// entry, so history growth is the snapshot signal; the engine calls
		// this after the barrier, when the labels are quiescent.
		snapped := 0
		cfg.AfterSuperstep = func(int) {
			if len(prog.history) == snapped {
				return
			}
			snapped = len(prog.history)
			hook(snapped, slices.Clone(prog.labels))
		}
	}
	eng := pregel.NewEngine[vval, graph.WeightedArc, msg](cfg, prog)
	prog.register(eng)
	if err := eng.SetVertices(vs); err != nil {
		return nil, err
	}
	steps, err := eng.Run()
	if err != nil {
		return nil, err
	}
	var msgs int64
	durations := make([]time.Duration, 0, len(eng.Stats()))
	for _, st := range eng.Stats() {
		msgs += st.TotalSent()
		durations = append(durations, st.Duration)
	}
	return &Result{
		Labels:             prog.labels,
		K:                  p.opts.K,
		Iterations:         len(prog.history),
		Converged:          prog.converged,
		History:            prog.history,
		Supersteps:         steps,
		Messages:           msgs,
		Runtime:            time.Since(start),
		SuperstepDurations: durations,
	}, nil
}

// verticesOn hands the engine w's rows by reference: a vertex's arcs are
// its row of w. No program phase writes an arc, so the run costs no per-arc
// storage of its own.
func verticesOn(w *graph.Weighted) []vertex {
	vs := make([]vertex, w.NumVertices())
	for i := range vs {
		vs[i].ID = graph.VertexID(i)
		vs[i].Edges = w.Neighbors(graph.VertexID(i))
	}
	return vs
}
