package serve

import (
	"fmt"
	"math"
	"slices"

	"repro/internal/graph"
	"repro/internal/wal"
)

// legacyArcs replays the journal above a version-1 checkpoint, written
// while graph.Weighted kept one arc per addition: re-adding an edge
// appended another arc, and a removal deleted one arc of its pair, not the
// edge. The merge rule agrees with that writer on every batch but one that
// removes a pair holding several arcs. legacyArcs holds the arc weights of
// each pair the writer held several arcs of — repeated in the base
// checkpoint, or re-added by the journal.
type legacyArcs map[graph.Edge][]int32

// repeated takes graph.DecodeWeightedBinary's report of a merged arc.
func (l legacyArcs) repeated(u, v graph.VertexID, held, weight int32) {
	if u > v {
		return // each pair once, from its lower endpoint's row
	}
	p := graph.Edge{From: u, To: v}
	if l[p] == nil {
		l[p] = []int32{held}
	}
	l[p] = append(l[p], weight)
}

// replay applies record rec to w as the version-1 writer applied it and
// reports whether the merge rule applies it otherwise. A batch the writer
// rejected, which the rule rejects too, leaves w as it was. It refuses
// what it cannot replay faithfully: a removal among arcs of differing
// weights, where the writer's row order chose the arc, and a pair whose
// arcs weigh more than one arc can hold.
func (l legacyArcs) replay(w *graph.Weighted, rec wal.Record) (differs bool, err error) {
	if rec.Type != wal.RecordMutation {
		return false, applyStructural(w, rec)
	}
	m := rec.Mut
	// The writer's arcs of each pair the batch names, as the batch runs.
	arcs := make(map[graph.Edge][]int32)
	of := func(p graph.Edge) []int32 {
		a, ok := arcs[p]
		if !ok {
			a = slices.Clone(l[p])
			if a == nil && p.From >= 0 && int(p.To) < w.NumVertices() {
				if x := w.EdgeWeight(p.From, p.To); x > 0 {
					a = []int32{x}
				}
			}
			arcs[p] = a
		}
		return a
	}
	for _, e := range m.NewEdges {
		p := pairOf(e.U, e.V)
		arcs[p] = append(of(p), max(e.Weight, 1))
	}
	// rest is m without the removals of pairs holding several arcs, which
	// the rule applies as the writer did; several lists those pairs once
	// each, in batch order, and taken counts their removals.
	rest := *m
	rest.RemovedEdges = nil
	var several []graph.Edge
	taken := make(map[graph.Edge]int)
	for _, e := range m.RemovedEdges {
		p := pairOf(e.From, e.To)
		if len(of(p)) < 2 {
			rest.RemovedEdges = append(rest.RemovedEdges, e)
			continue
		}
		if taken[p] == 0 {
			several = append(several, p)
		}
		if taken[p]++; taken[p] > len(arcs[p]) {
			return false, nil // the writer found no arc left to remove
		}
	}
	if _, err := rest.CutEdits(w); err != nil {
		return false, nil // rejected for a reason both rules share
	}
	for p, a := range arcs {
		var sum int64
		for _, x := range a {
			sum += int64(x)
		}
		if sum > math.MaxInt32 {
			return false, fmt.Errorf("the writer's arcs of {%d,%d} weigh %d, more than one arc holds", p.From, p.To, sum)
		}
	}
	for _, p := range several {
		a := arcs[p]
		if slices.ContainsFunc(a, func(x int32) bool { return x != a[0] }) {
			return false, fmt.Errorf("the writer removed one of the arcs of {%d,%d}, of weights %v, whichever its row held first", p.From, p.To, a)
		}
		arcs[p] = a[taken[p]:]
	}
	for p, a := range arcs {
		if len(a) > 1 {
			l[p] = a
		} else {
			delete(l, p)
		}
	}
	if len(several) == 0 {
		return false, applyStructural(w, rec)
	}
	if _, err := rest.Apply(w); err != nil {
		return true, err // unreachable: CutEdits accepted rest
	}
	for _, p := range several {
		w.RemoveEdge(p.From, p.To)
		if a := arcs[p]; len(a) > 0 {
			w.AddEdge(p.From, p.To, int32(len(a))*a[0])
		}
	}
	return true, nil
}

// pairOf orders an undirected edge's endpoints as graph.Mutation does.
func pairOf(u, v graph.VertexID) graph.Edge {
	if u > v {
		u, v = v, u
	}
	return graph.Edge{From: u, To: v}
}
