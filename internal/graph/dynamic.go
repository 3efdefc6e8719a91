package graph

import (
	"fmt"
	"slices"
)

// Mutation describes a batch of changes to apply to a weighted undirected
// graph: new vertices and new edges. It models the "graphs are naturally
// dynamic" scenario of §III-D: the incremental experiments (Fig. 7) build a
// Mutation holding x% new edges and apply it between partitioning rounds.
type Mutation struct {
	// NewVertices is the number of vertices to append.
	NewVertices int
	// NewEdges are undirected edges to insert with the given weight.
	// Endpoints may refer to appended vertices.
	NewEdges []WeightedEdgeRecord
	// RemovedEdges are undirected edges to delete. Removing an absent edge
	// is an error (it indicates a stale batch).
	RemovedEdges []Edge
	// Tenant optionally tags the batch with the submitting tenant, used by
	// the serving layer (internal/serve) for admission control and
	// weighted-fair draining. It is an admission-time attribute, not part
	// of the graph delta: the binary journal encoding does not carry it,
	// and recovery replays records under the default tenant.
	Tenant string
}

// WeightedEdgeRecord is an undirected edge with an explicit weight.
type WeightedEdgeRecord struct {
	U, V   VertexID
	Weight int32
}

// Apply applies m to w in place and returns the ID of the first appended
// vertex (or -1 if none). Application is atomic: the whole batch is
// validated against the pre-mutation graph (plus the batch's own additions)
// before anything is mutated, so a returned error — out-of-range endpoint,
// self-loop, or removal of an absent edge (a stale batch) — leaves w
// unchanged. Duplicate additions are the caller's responsibility: mutation
// generators in internal/gen only emit fresh edges.
//
// Cost: O(|batch| + Σ deg of removed endpoints) — validation indexes the
// batch once and scans one row per distinct removed pair, and each removal
// scans its two endpoints' rows; nothing is |removed| × |added|.
func (m *Mutation) Apply(w *Weighted) (firstNew VertexID, err error) {
	if err := m.validate(w); err != nil {
		return -1, err
	}
	firstNew = -1
	if m.NewVertices > 0 {
		firstNew = w.AddVertices(m.NewVertices)
	}
	for _, e := range m.NewEdges {
		weight := e.Weight
		if weight <= 0 {
			weight = 1
		}
		w.AddEdge(e.U, e.V, weight)
	}
	for _, e := range m.RemovedEdges {
		if !w.RemoveEdge(e.From, e.To) {
			// validate established presence; reaching here means w was
			// mutated concurrently, which Weighted does not support.
			panic(fmt.Sprintf("graph: validated removal {%d,%d} now absent", e.From, e.To))
		}
	}
	return firstNew, nil
}

// validate dry-runs m against w: every edge endpoint must be in range after
// the vertex append, additions must not be self-loops, and every removal
// must find a distinct edge instance among the pre-existing edges plus the
// batch's own additions (Weighted does not deduplicate, so multiplicity is
// counted, not just presence). An absent-edge error names the first removal,
// in batch order, that finds its pair used up.
func (m *Mutation) validate(w *Weighted) error {
	if m.NewVertices < 0 {
		return fmt.Errorf("graph: mutation appends %d vertices", m.NewVertices)
	}
	if after := w.NumVertices() + m.NewVertices; after > MaxVertices || after < w.NumVertices() {
		return fmt.Errorf("graph: mutation grows graph to %d vertices, past MaxVertices=%d",
			w.NumVertices()+m.NewVertices, MaxVertices)
	}
	old := VertexID(w.NumVertices())
	n := old + VertexID(m.NewVertices)
	for _, e := range m.NewEdges {
		if e.U < 0 || e.U >= n || e.V < 0 || e.V >= n {
			return fmt.Errorf("graph: mutation edge (%d,%d) out of range [0,%d)", e.U, e.V, n)
		}
		if e.U == e.V {
			return fmt.Errorf("graph: mutation self-loop at %d", e.U)
		}
	}
	for _, e := range m.RemovedEdges {
		if e.From < 0 || e.From >= n || e.To < 0 || e.To >= n {
			return fmt.Errorf("graph: removal (%d,%d) out of range [0,%d)", e.From, e.To, n)
		}
	}
	pairs := m.removable(w)
	for _, e := range m.RemovedEdges {
		if key := normEdge(e.From, e.To); !pairs[key].take() {
			return fmt.Errorf("graph: removal of absent edge {%d,%d}", key.From, key.To)
		}
	}
	return nil
}

// pairArcs counts the instances of one vertex pair a batch may remove: the
// arcs the graph holds, then the batch's own additions (Weighted does not
// deduplicate, so a pair can have several, of differing weights).
type pairArcs struct {
	n, taken int   // instances available; removals that have claimed one
	weight   int32 // the first instance's weight
	mixed    bool  // some instance's weight differs from it
}

func (p *pairArcs) add(weight int32) {
	if p.n == 0 {
		p.weight = weight
	} else if weight != p.weight {
		p.mixed = true
	}
	p.n++
}

// take claims the pair's next instance for one removal; false means the
// batch removes the pair more often than it exists.
func (p *pairArcs) take() bool {
	p.taken++
	return p.taken <= p.n
}

// removable indexes the batch once, in O(|batch| + Σ deg of the removed
// pairs' lower endpoints): for every pair RemovedEdges names, its arcs in
// w in row order, then the batch's additions of it at the weight Apply
// inserts. Pairs outside w's range have no arcs; the callers range-check.
func (m *Mutation) removable(w *Weighted) map[Edge]*pairArcs {
	if len(m.RemovedEdges) == 0 {
		return nil
	}
	old := VertexID(w.NumVertices())
	pairs := make(map[Edge]*pairArcs, len(m.RemovedEdges))
	for _, e := range m.RemovedEdges {
		key := normEdge(e.From, e.To)
		if pairs[key] != nil {
			continue
		}
		p := &pairArcs{}
		pairs[key] = p
		if key.From >= 0 && key.To < old {
			for _, a := range w.Neighbors(key.From) {
				if a.To == key.To {
					p.add(a.Weight)
				}
			}
		}
	}
	for _, e := range m.NewEdges {
		if p := pairs[normEdge(e.U, e.V)]; p != nil {
			p.add(max(e.Weight, 1))
		}
	}
	return pairs
}

// normEdge orders an undirected edge's endpoints canonically.
func normEdge(u, v VertexID) Edge {
	if u > v {
		u, v = v, u
	}
	return Edge{From: u, To: v}
}

// TouchedVertices returns the set of vertices adjacent to a mutation edge,
// as a sorted-unique slice, in O(|batch| log |batch|). The incremental
// restart strategy that migrates only affected vertices (§III-D, first
// strategy) uses this.
func (m *Mutation) TouchedVertices() []VertexID {
	out := make([]VertexID, 0, 2*(len(m.NewEdges)+len(m.RemovedEdges)))
	for _, e := range m.NewEdges {
		out = append(out, e.U, e.V)
	}
	for _, e := range m.RemovedEdges {
		out = append(out, e.From, e.To)
	}
	slices.Sort(out)
	return slices.Compact(out)
}
