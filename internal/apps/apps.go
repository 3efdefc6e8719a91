// Package apps implements the three analytical applications used in the
// paper's application-performance experiments (§V-F, Fig. 9, Table IV) as
// Pregel programs on internal/pregel:
//
//   - PageRank (PR): fixed-iteration ranking, the Table IV workload;
//   - Single-Source Shortest Paths via BFS (SP): connectivity/centrality;
//   - Weakly Connected Components (CC): community discovery.
//
// Each app accepts a vertex→worker placement so experiments can compare
// hash placement against Spinner-derived placement: exactly the mechanism
// of §V-F, where Giraph is instructed to place vertices with the same
// label on the same physical worker.
package apps

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/graph"
	"repro/internal/pregel"
)

// RunConfig configures an application run.
type RunConfig struct {
	// NumWorkers is the number of Pregel workers (default
	// pregel.DefaultWorkers, 8, on every host).
	NumWorkers int
	// Placement maps vertices to workers. Nil means the engine default
	// (contiguous ranges). Use PlacementFromLabels to derive one from a
	// partitioning.
	Placement func(graph.VertexID) int
}

// PlacementFromLabels maps each vertex to worker labels[v] mod numWorkers,
// so vertices sharing a partition share a worker — the paper's vertex-id
// wrapper hashed on the label field.
func PlacementFromLabels(labels []int32, numWorkers int) func(graph.VertexID) int {
	return func(v graph.VertexID) int {
		return int(labels[v]) % numWorkers
	}
}

// HashPlacement is Giraph's default placement: h(v) mod numWorkers.
func HashPlacement(numWorkers int) func(graph.VertexID) int {
	return func(v graph.VertexID) int {
		x := uint64(v) + 0x9e3779b97f4a7c15
		x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
		x = (x ^ (x >> 27)) * 0x94d049bb133111eb
		return int((x ^ (x >> 31)) % uint64(numWorkers))
	}
}

// Result captures an application run's outputs relevant to the
// experiments: the per-superstep engine statistics that the cluster cost
// model converts into simulated runtime.
type Result struct {
	// Supersteps executed.
	Supersteps int
	// Stats is the engine's per-superstep accounting.
	Stats []pregel.SuperstepStats
}

// RemoteMessages sums cross-worker messages across supersteps; this is the
// network traffic a partitioning is supposed to reduce.
func (r *Result) RemoteMessages() int64 {
	var t int64
	for _, st := range r.Stats {
		for _, x := range st.SentRemote {
			t += x
		}
	}
	return t
}

// --- PageRank ---

type prProg struct{ iterations int }

func (p *prProg) Compute(ctx *pregel.Context[float64, graph.VertexID, float64], v *pregel.Vertex[float64, graph.VertexID], msgs []float64) {
	if ctx.Superstep() > 0 {
		sum := 0.0
		for _, m := range msgs {
			sum += m
		}
		v.Value = 0.15/float64(ctx.NumVertices()) + 0.85*sum
	}
	ctx.CountEdges(len(v.Edges))
	if ctx.Superstep() < p.iterations {
		if len(v.Edges) > 0 {
			share := v.Value / float64(len(v.Edges))
			for _, to := range v.Edges {
				ctx.SendTo(to, share)
			}
		}
	}
}

func (p *prProg) MasterCompute(m *pregel.Master) {
	if m.Superstep() >= p.iterations {
		m.Halt()
	}
}

// PageRank runs the given number of PageRank iterations over the directed
// graph g and returns the ranks and run statistics.
func PageRank(g *graph.Graph, iterations int, cfg RunConfig) ([]float64, *Result, error) {
	if iterations < 1 {
		return nil, nil, errors.New("apps: PageRank needs iterations >= 1")
	}
	n := g.NumVertices()
	vs := make([]pregel.Vertex[float64, graph.VertexID], n)
	for i := range vs {
		vs[i].ID = graph.VertexID(i)
		vs[i].Value = 1 / float64(n)
		vs[i].Edges = g.Neighbors(graph.VertexID(i)) // read in place, never written
	}
	eng := pregel.NewEngine[float64, graph.VertexID, float64](pregel.Config{
		NumWorkers: cfg.NumWorkers, Placement: cfg.Placement,
		MaxSupersteps: iterations + 2,
	}, &prProg{iterations: iterations})
	eng.SetCombiner(func(a, b float64) float64 { return a + b })
	if err := eng.SetVertices(vs); err != nil {
		return nil, nil, fmt.Errorf("apps: PageRank: %w", err)
	}
	steps, err := eng.Run()
	if err != nil {
		return nil, nil, fmt.Errorf("apps: PageRank: %w", err)
	}
	ranks := make([]float64, n)
	for i := range eng.Vertices() {
		ranks[i] = eng.Vertices()[i].Value
	}
	return ranks, &Result{Supersteps: steps, Stats: eng.Stats()}, nil
}

// --- SSSP / BFS ---

type ssspProg struct{ source graph.VertexID }

func (p *ssspProg) Compute(ctx *pregel.Context[float64, graph.VertexID, float64], v *pregel.Vertex[float64, graph.VertexID], msgs []float64) {
	ctx.CountEdges(len(v.Edges))
	best := v.Value
	if ctx.Superstep() == 0 {
		if v.ID == p.source {
			best = 0
		}
	} else {
		for _, m := range msgs {
			if m < best {
				best = m
			}
		}
	}
	if best < v.Value || (ctx.Superstep() == 0 && v.ID == p.source) {
		v.Value = best
		for _, to := range v.Edges {
			ctx.SendTo(to, best+1)
		}
	}
	// Vote to halt; a better distance reactivates the vertex.
	v.VoteToHalt()
}

// SSSP computes BFS distances (unit edge weights) from source. Like the
// paper's connectivity study, the BFS runs over the symmetrized graph
// (followers are reachable from followees and vice versa); unreachable
// vertices report +Inf.
func SSSP(g *graph.Graph, source graph.VertexID, cfg RunConfig) ([]float64, *Result, error) {
	n := g.NumVertices()
	if source < 0 || int(source) >= n {
		return nil, nil, fmt.Errorf("apps: SSSP source %d out of range", source)
	}
	sym := make([][]graph.VertexID, n)
	g.Edges(func(u, v graph.VertexID) {
		sym[u] = append(sym[u], v)
		if g.Directed() {
			sym[v] = append(sym[v], u)
		}
	})
	vs := make([]pregel.Vertex[float64, graph.VertexID], n)
	for i := range vs {
		vs[i].ID = graph.VertexID(i)
		vs[i].Value = math.Inf(1)
		vs[i].Edges = sym[i]
	}
	eng := pregel.NewEngine[float64, graph.VertexID, float64](pregel.Config{
		NumWorkers: cfg.NumWorkers, Placement: cfg.Placement,
	}, &ssspProg{source: source})
	eng.SetCombiner(func(a, b float64) float64 {
		if a < b {
			return a
		}
		return b
	})
	if err := eng.SetVertices(vs); err != nil {
		return nil, nil, fmt.Errorf("apps: SSSP: %w", err)
	}
	steps, err := eng.Run()
	if err != nil {
		return nil, nil, fmt.Errorf("apps: SSSP: %w", err)
	}
	dist := make([]float64, n)
	for i := range eng.Vertices() {
		dist[i] = eng.Vertices()[i].Value
	}
	return dist, &Result{Supersteps: steps, Stats: eng.Stats()}, nil
}

// --- Weakly Connected Components ---

type wccProg struct{}

func (wccProg) Compute(ctx *pregel.Context[float64, graph.VertexID, float64], v *pregel.Vertex[float64, graph.VertexID], msgs []float64) {
	ctx.CountEdges(len(v.Edges))
	best := v.Value
	if ctx.Superstep() == 0 {
		best = float64(v.ID)
	}
	for _, m := range msgs {
		if m < best {
			best = m
		}
	}
	if best < v.Value || ctx.Superstep() == 0 {
		v.Value = best
		for _, to := range v.Edges {
			ctx.SendTo(to, best)
		}
	}
	v.VoteToHalt()
}

// WCC labels each vertex with the smallest vertex ID in its weakly
// connected component. Directed inputs are symmetrized when the Pregel
// vertices are built (exactly what a Giraph WCC job does).
func WCC(g *graph.Graph, cfg RunConfig) ([]int32, *Result, error) {
	n := g.NumVertices()
	// Symmetrize.
	sym := make([][]graph.VertexID, n)
	g.Edges(func(u, v graph.VertexID) {
		sym[u] = append(sym[u], v)
		if g.Directed() {
			sym[v] = append(sym[v], u)
		}
	})
	vs := make([]pregel.Vertex[float64, graph.VertexID], n)
	for i := range vs {
		vs[i].ID = graph.VertexID(i)
		vs[i].Value = math.Inf(1)
		vs[i].Edges = sym[i]
	}
	eng := pregel.NewEngine[float64, graph.VertexID, float64](pregel.Config{
		NumWorkers: cfg.NumWorkers, Placement: cfg.Placement,
	}, wccProg{})
	eng.SetCombiner(func(a, b float64) float64 {
		if a < b {
			return a
		}
		return b
	})
	if err := eng.SetVertices(vs); err != nil {
		return nil, nil, fmt.Errorf("apps: WCC: %w", err)
	}
	steps, err := eng.Run()
	if err != nil {
		return nil, nil, fmt.Errorf("apps: WCC: %w", err)
	}
	comp := make([]int32, n)
	for i := range eng.Vertices() {
		comp[i] = int32(eng.Vertices()[i].Value)
	}
	return comp, &Result{Supersteps: steps, Stats: eng.Stats()}, nil
}
