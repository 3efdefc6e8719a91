package graph

import (
	"fmt"
	"slices"
)

// Mutation describes a batch of changes to apply to a weighted undirected
// graph: new vertices and new edges. It models the "graphs are naturally
// dynamic" scenario of §III-D: the incremental experiments (Fig. 7) build a
// Mutation holding x% new edges and apply it between partitioning rounds.
//
// The graph stays simple (see Weighted). An addition of an edge that exists
// — in the graph, or earlier in the batch — adds its weight to that edge,
// and a removal deletes the edge with all the weight it has gathered,
// including the batch's own additions of it: Apply adds first, then removes.
type Mutation struct {
	// NewVertices is the number of vertices to append.
	NewVertices int
	// NewEdges are undirected edges to insert with the given weight (a
	// non-positive weight inserts 1). Endpoints may refer to appended
	// vertices.
	NewEdges []WeightedEdgeRecord
	// RemovedEdges are undirected edges to delete. Removing an absent edge,
	// or one edge twice, is an error (it indicates a stale batch).
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
// unchanged.
//
// Cost: O(|batch| + Σ deg of the named pairs' endpoints) — validation
// indexes the batch once and scans one row per distinct removed pair, and
// each addition and removal scans its endpoints' rows; nothing is
// |removed| × |added|.
func (m *Mutation) Apply(w *Weighted) (firstNew VertexID, err error) {
	firstNew, _, err = m.apply(w, nil, false)
	return firstNew, err
}

// ApplyEdits is Apply that also appends the batch's edits (CutEdit)
// against the pre-mutation graph to edits and returns the result, as
// append does; on an error it returns edits as it came. The edits are
// found by the pass that validates the batch: a caller that folds them
// into counters, as the serving store does for every batch, validates
// once, not twice, and can pass the same buffer, truncated, every time.
func (m *Mutation) ApplyEdits(w *Weighted, edits []CutEdit) (firstNew VertexID, _ []CutEdit, err error) {
	return m.apply(w, edits, true)
}

func (m *Mutation) apply(w *Weighted, edits []CutEdit, emit bool) (firstNew VertexID, _ []CutEdit, err error) {
	if edits, err = m.effects(w, edits, emit); err != nil {
		return -1, edits, err
	}
	firstNew = -1
	if m.NewVertices > 0 {
		firstNew = w.AddVertices(m.NewVertices)
	}
	for _, e := range m.NewEdges {
		w.AddEdge(e.U, e.V, max(e.Weight, 1))
	}
	for _, e := range m.RemovedEdges {
		if !w.RemoveEdge(e.From, e.To) {
			// effects established presence; reaching here means w was
			// mutated concurrently, which Weighted does not support.
			panic(fmt.Sprintf("graph: validated removal {%d,%d} now absent", e.From, e.To))
		}
	}
	return firstNew, edits, nil
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
