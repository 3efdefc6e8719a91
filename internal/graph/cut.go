package graph

import (
	"errors"
	"fmt"
)

// ErrCutAmbiguous is returned by CutEdits when a batch removes an edge of
// a vertex pair that exists in several instances with differing weights:
// RemoveEdge's swap-delete makes the consumed instance order-dependent, so
// no pre-apply enumeration can predict the exact weight. The batch itself
// is valid — callers should apply it and fall back to an exact cut
// recompute instead of an incremental delta. Well-behaved mutation sources
// (internal/gen, the serving protocol) never duplicate a pair with
// differing weights, so this is a safety valve, not a steady-state path.
var ErrCutAmbiguous = errors.New("graph: duplicate removals of a pair with differing weights")

// CutEdit is one edge-level effect of applying a Mutation: an undirected
// edge inserted (Add) or deleted (!Add), with canonically ordered endpoints
// (U < V) and the effective weight — for additions the normalized weight
// Apply would insert (non-positive weights default to 1), for removals the
// weight of the exact arc RemoveEdge would delete. The incremental cut
// trackers in internal/serve fold these into per-partition counters in
// O(batch) instead of recomputing the cut over all edges per snapshot.
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

// CutEdits enumerates the edge-level effects of applying m to w, without
// mutating w. Folding each edit's signed weight into counters produced by
// metrics.CutWeights — total += ±weight, and for edits whose endpoint
// labels differ, cross and both endpoints' per-partition external weight
// likewise — keeps them exactly equal to a fresh recompute; the sharded
// store (internal/serve) does this per owning shard.
//
// CutEdits must be called against the pre-mutation graph: removal
// weights are resolved by replaying RemoveEdge's first-match rule against
// the current adjacency (pre-existing arcs in row order, then the batch's
// own additions), so repeated removals of the same pair consume successive
// arc instances exactly as Apply will. Additions may reference vertices the
// batch itself appends.
//
// An out-of-range endpoint, a self-loop, or a removal with no matching arc
// yields an error; Apply would reject such a batch, so callers should
// discard the edits and let Apply report the canonical validation error.
//
// Cost: O(|batch| + Σ deg of the removed pairs' lower endpoints) — the
// batch is indexed once (removable), never rescanned per removal.
func (m *Mutation) CutEdits(w *Weighted) ([]CutEdit, error) {
	if m.NewVertices < 0 {
		return nil, fmt.Errorf("graph: mutation appends %d vertices", m.NewVertices)
	}
	n := VertexID(w.NumVertices() + m.NewVertices)
	edits := make([]CutEdit, 0, len(m.NewEdges)+len(m.RemovedEdges))
	for _, e := range m.NewEdges {
		if e.U < 0 || e.U >= n || e.V < 0 || e.V >= n {
			return nil, fmt.Errorf("graph: mutation edge (%d,%d) out of range [0,%d)", e.U, e.V, n)
		}
		if e.U == e.V {
			return nil, fmt.Errorf("graph: mutation self-loop at %d", e.U)
		}
		weight := e.Weight
		if weight <= 0 {
			weight = 1
		}
		u, v := e.U, e.V
		if u > v {
			u, v = v, u
		}
		edits = append(edits, CutEdit{U: u, V: v, Weight: weight, Add: true})
	}
	// Per removed pair, replay RemoveEdge's first-match rule: Apply scans
	// adj[From] in row order, then the batch's own additions become
	// removable. Repeated removals of the same pair consume successive
	// instances.
	pairs := m.removable(w)
	for _, e := range m.RemovedEdges {
		if e.From < 0 || e.From >= n || e.To < 0 || e.To >= n {
			return nil, fmt.Errorf("graph: removal (%d,%d) out of range [0,%d)", e.From, e.To, n)
		}
		key := normEdge(e.From, e.To)
		p := pairs[key]
		if !p.take() {
			return nil, fmt.Errorf("graph: removal of absent edge {%d,%d}", key.From, key.To)
		}
		if p.mixed {
			// Several instances of the pair with differing weights: swap
			// deletes reorder rows, and RemoveEdge picks by the written
			// From row while cut recomputes read the lower endpoint's row,
			// so no orientation-independent prediction exists.
			return nil, ErrCutAmbiguous
		}
		edits = append(edits, CutEdit{U: key.From, V: key.To, Weight: p.weight, Add: false})
	}
	return edits, nil
}
