package graph

import (
	"fmt"
	"math"
	"slices"
)

// CutEdit is one edge-level effect of applying a Mutation: an undirected
// edge inserted (Add) or deleted (!Add), with canonically ordered endpoints
// (U < V) and the weight it adds or removes — for additions the normalized
// weight Apply adds (non-positive weights default to 1, and a sum saturates
// at math.MaxInt32), for removals the whole weight of the edge RemoveEdge
// deletes. The incremental cut trackers in internal/serve fold these into
// per-partition counters in O(batch) instead of recomputing the cut over
// all edges per snapshot.
type CutEdit struct {
	U, V   VertexID
	Weight int32
	Add    bool
}

// Signed returns the weight as a counter folds it: positive for an
// addition, negative for a removal.
func (e CutEdit) Signed() int64 {
	if e.Add {
		return int64(e.Weight)
	}
	return -int64(e.Weight)
}

// effects is the one definition of a valid batch, which Apply and
// ApplyEdits share: the vertex append must stay within MaxVertices,
// every endpoint must be in range after it, additions must not be
// self-loops, and every removal must name an edge that exists when it runs
// — in w or added by the batch, and not deleted by an earlier removal. An
// absent-edge error names the first removal, in batch order, that finds
// its pair gone.
//
// With emit set it also appends the batch's cut edits to edits and
// returns the result; on an error it returns edits as it came. It must be
// called against the pre-mutation graph, and it replays the batch's
// effect on each pair it names in Apply's order: an addition adds the
// weight AddEdge would add (the normalized weight, less where the edge's
// weight saturates), and a removal removes the weight the edge then holds
// — its weight in w plus the batch's additions of it. Additions may reference
// vertices the batch itself appends. Folding each edit's signed weight
// into counters produced by metrics.CutWeights — total += ±weight, and for
// edits whose endpoint labels differ, cross and both endpoints'
// per-partition external weight likewise — keeps them exactly equal to a
// fresh recompute; the serving store (internal/serve) does this for every
// batch.
//
// Cost: O(|batch| + Σ over distinct removed pairs of the shorter endpoint
// row) — one row scan per pair, never one per batch entry. Added pairs are
// looked up too only when the graph's and the batch's weight together
// could push an edge past math.MaxInt32.
func (m *Mutation) effects(w *Weighted, edits []CutEdit, emit bool) ([]CutEdit, error) {
	if m.NewVertices < 0 {
		return edits, fmt.Errorf("graph: mutation appends %d vertices", m.NewVertices)
	}
	if m.NewVertices > MaxVertices-w.NumVertices() {
		return edits, fmt.Errorf("graph: mutation grows graph to %d vertices, past MaxVertices=%d",
			w.NumVertices()+m.NewVertices, MaxVertices)
	}
	old := VertexID(w.NumVertices())
	n := old + VertexID(m.NewVertices)
	var batchWeight int64
	for _, e := range m.NewEdges {
		if e.U < 0 || e.U >= n || e.V < 0 || e.V >= n {
			return edits, fmt.Errorf("graph: mutation edge (%d,%d) out of range [0,%d)", e.U, e.V, n)
		}
		if e.U == e.V {
			return edits, fmt.Errorf("graph: mutation self-loop at %d", e.U)
		}
		batchWeight += int64(max(e.Weight, 1))
	}
	for _, e := range m.RemovedEdges {
		if e.From < 0 || e.From >= n || e.To < 0 || e.To >= n {
			return edits, fmt.Errorf("graph: removal (%d,%d) out of range [0,%d)", e.From, e.To, n)
		}
	}
	weightIn := func(key Edge) int32 {
		if key.To < old {
			return w.EdgeWeight(key.From, key.To)
		}
		return 0
	}
	// The weight each followed pair holds as the batch runs. A removal takes
	// what its pair then holds, so every pair a removal names is followed.
	// An addition adds less than its weight only where the edge's sum passes
	// math.MaxInt32 — which no edge can reach unless the graph's total
	// weight and the batch's together do; then, if edits are emitted, every
	// added pair is followed too.
	held := make(map[Edge]int32, len(m.RemovedEdges))
	for _, e := range m.RemovedEdges {
		key := normEdge(e.From, e.To)
		held[key] = weightIn(key)
	}
	followAll := emit && w.TotalWeight()+batchWeight > math.MaxInt32
	given := len(edits)
	if emit {
		edits = slices.Grow(edits, len(m.NewEdges)+len(m.RemovedEdges))
	}
	for _, e := range m.NewEdges {
		key := normEdge(e.U, e.V)
		added := max(e.Weight, 1)
		x, followed := held[key]
		if !followed && followAll {
			x, followed = weightIn(key), true
		}
		if followed {
			added = min(added, math.MaxInt32-x)
			held[key] = x + added
		}
		if emit {
			edits = append(edits, CutEdit{U: key.From, V: key.To, Weight: added, Add: true})
		}
	}
	for _, e := range m.RemovedEdges {
		key := normEdge(e.From, e.To)
		if held[key] == 0 {
			return edits[:given], fmt.Errorf("graph: removal of absent edge {%d,%d}", key.From, key.To)
		}
		if emit {
			edits = append(edits, CutEdit{U: key.From, V: key.To, Weight: held[key]})
		}
		held[key] = 0
	}
	return edits, nil
}
