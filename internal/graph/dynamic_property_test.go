package graph

import (
	"fmt"
	"maps"
	"math"
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/rng"
)

// randomWeighted builds a random simple weighted graph for property runs.
func randomWeighted(src *rng.Source, n int) *Weighted {
	w := NewWeighted(n)
	edges := 2 * n
	for i := 0; i < edges; i++ {
		u := VertexID(src.Intn(n))
		v := VertexID(src.Intn(n))
		if u == v {
			continue
		}
		dup := false
		for _, a := range w.Neighbors(u) {
			if a.To == v {
				dup = true
				break
			}
		}
		if !dup {
			w.AddEdge(u, v, int32(src.Intn(2)+1))
		}
	}
	return w
}

// randomMutation builds a random valid mutation batch against w: appended
// vertices, fresh edges (some incident to the new vertices), and removals
// sampled from the existing edges without replacement.
func randomMutation(src *rng.Source, w *Weighted) *Mutation {
	m := &Mutation{NewVertices: src.Intn(4)}
	n := w.NumVertices() + m.NewVertices
	adds := src.Intn(8)
	for i := 0; i < adds; i++ {
		u := VertexID(src.Intn(n))
		v := VertexID(src.Intn(n))
		if u == v {
			continue
		}
		m.NewEdges = append(m.NewEdges, WeightedEdgeRecord{U: u, V: v, Weight: int32(src.Intn(3))}) // weight 0 exercises the <=0 -> 1 default
	}
	var existing []Edge
	w.EdgesOnce(func(u, v VertexID, _ int32) { existing = append(existing, Edge{From: u, To: v}) })
	src.Shuffle(len(existing), func(i, j int) { existing[i], existing[j] = existing[j], existing[i] })
	removals := src.Intn(3)
	if removals > len(existing) {
		removals = len(existing)
	}
	m.RemovedEdges = append(m.RemovedEdges, existing[:removals]...)
	return m
}

// equalWeighted compares two weighted graphs structurally (order-insensitive
// adjacency multiset comparison).
func equalWeighted(t *testing.T, a, b *Weighted) bool {
	t.Helper()
	if a.NumVertices() != b.NumVertices() || a.NumEdges() != b.NumEdges() || a.TotalWeight() != b.TotalWeight() {
		return false
	}
	for v := 0; v < a.NumVertices(); v++ {
		u := VertexID(v)
		if a.Degree(u) != b.Degree(u) || a.WeightedDegree(u) != b.WeightedDegree(u) {
			return false
		}
		seen := map[WeightedArc]int{}
		for _, arc := range a.Neighbors(u) {
			seen[arc]++
		}
		for _, arc := range b.Neighbors(u) {
			seen[arc]--
		}
		for _, c := range seen {
			if c != 0 {
				return false
			}
		}
	}
	return true
}

// Property: a successful Apply preserves the bookkeeping invariants — the
// vertex count grows by exactly NewVertices, the edges are the pairs the
// model of the rule (batchOracle) holds afterwards, and both the total
// weight and half the weighted-degree sum are the weight it holds.
func TestMutationApplyInvariantsProperty(t *testing.T) {
	f := func(seed uint64) bool {
		src := rng.New(seed)
		w := randomWeighted(src, 20+src.Intn(60))
		m := randomMutation(src, w)

		beforeVerts := w.NumVertices()
		_, after, err := batchOracle(m, w)
		if err != nil {
			t.Logf("seed %d: the model rejects the batch: %v", seed, err)
			return false
		}
		var weight int64
		for _, x := range after {
			weight += int64(x)
		}

		firstNew, err := m.Apply(w)
		if err != nil {
			t.Logf("seed %d: unexpected Apply error: %v", seed, err)
			return false
		}
		if m.NewVertices > 0 && firstNew != VertexID(beforeVerts) {
			return false
		}
		if m.NewVertices == 0 && firstNew != -1 {
			return false
		}
		if w.NumVertices() != beforeVerts+m.NewVertices {
			return false
		}
		var afterDegW int64
		for v := 0; v < w.NumVertices(); v++ {
			afterDegW += w.WeightedDegree(VertexID(v))
		}
		return w.NumEdges() == int64(len(after)) && w.TotalWeight() == weight && afterDegW == 2*weight
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: a failing Apply is atomic — whatever makes the batch invalid
// (absent-edge removal, out-of-range endpoint, self-loop), the graph is
// byte-for-byte the graph it was before the call.
func TestMutationApplyAtomicOnErrorProperty(t *testing.T) {
	f := func(seed uint64, mode uint8) bool {
		src := rng.New(seed)
		w := randomWeighted(src, 20+src.Intn(40))
		m := randomMutation(src, w)
		n := VertexID(w.NumVertices() + m.NewVertices)
		switch mode % 4 {
		case 0: // removal of an edge that never existed between valid endpoints
			u := VertexID(src.Intn(int(n)))
			v := u
			for v == u {
				v = VertexID(src.Intn(int(n)))
			}
			// Remove it once more than it is available (it may legitimately
			// exist, or be added by this very batch).
			avail := 0
			if int(u) < w.NumVertices() && int(v) < w.NumVertices() {
				for _, a := range w.Neighbors(u) {
					if a.To == v {
						avail++
					}
				}
			}
			for _, e := range m.NewEdges {
				if normEdge(e.U, e.V) == normEdge(u, v) {
					avail++
				}
			}
			for i := 0; i <= avail; i++ {
				m.RemovedEdges = append(m.RemovedEdges, Edge{From: u, To: v})
			}
		case 1: // out-of-range addition
			m.NewEdges = append(m.NewEdges, WeightedEdgeRecord{U: 0, V: n + VertexID(src.Intn(5)), Weight: 1})
		case 2: // self-loop addition
			v := VertexID(src.Intn(int(n)))
			m.NewEdges = append(m.NewEdges, WeightedEdgeRecord{U: v, V: v, Weight: 1})
		case 3: // out-of-range removal
			m.RemovedEdges = append(m.RemovedEdges, Edge{From: -1, To: 0})
		}
		snapshot := w.Clone()
		firstNew, err := m.Apply(w)
		if err == nil {
			t.Logf("seed %d mode %d: expected an error", seed, mode%4)
			return false
		}
		if firstNew != -1 {
			return false
		}
		return equalWeighted(t, w, snapshot)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: TouchedVertices is sorted, duplicate-free, and covers exactly
// the endpoints named by the batch's edges.
func TestMutationTouchedVerticesProperty(t *testing.T) {
	f := func(seed uint64) bool {
		src := rng.New(seed)
		w := randomWeighted(src, 20+src.Intn(40))
		m := randomMutation(src, w)
		got := m.TouchedVertices()
		for i := 1; i < len(got); i++ {
			if got[i-1] >= got[i] {
				return false
			}
		}
		want := map[VertexID]bool{}
		for _, e := range m.NewEdges {
			want[e.U], want[e.V] = true, true
		}
		for _, e := range m.RemovedEdges {
			want[e.From], want[e.To] = true, true
		}
		if len(want) != len(got) {
			return false
		}
		for _, v := range got {
			if !want[v] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// pairsOf maps every edge of w, endpoints ordered, to its weight.
func pairsOf(w *Weighted) map[Edge]int32 {
	pairs := map[Edge]int32{}
	w.EdgesOnce(func(u, v VertexID, weight int32) { pairs[Edge{From: u, To: v}] = weight })
	return pairs
}

// batchOracle is the rule Mutation states, kept the slow and obvious way as
// the reference for Apply and effects: the graph as a map from pairs to
// weights, each addition adding its weight (saturating) to its pair, then
// each removal deleting its pair. It returns the edits the batch makes and
// the pairs it leaves, or the error that rejects it: the first bad endpoint
// or self-loop among the additions, then the first bad endpoint among the
// removals, then the first removal of a pair not held when it runs.
func batchOracle(m *Mutation, w *Weighted) ([]CutEdit, map[Edge]int32, error) {
	if m.NewVertices < 0 {
		return nil, nil, fmt.Errorf("graph: mutation appends %d vertices", m.NewVertices)
	}
	n := VertexID(w.NumVertices() + m.NewVertices)
	for _, e := range m.NewEdges {
		if e.U < 0 || e.U >= n || e.V < 0 || e.V >= n {
			return nil, nil, fmt.Errorf("graph: mutation edge (%d,%d) out of range [0,%d)", e.U, e.V, n)
		}
		if e.U == e.V {
			return nil, nil, fmt.Errorf("graph: mutation self-loop at %d", e.U)
		}
	}
	for _, e := range m.RemovedEdges {
		if e.From < 0 || e.From >= n || e.To < 0 || e.To >= n {
			return nil, nil, fmt.Errorf("graph: removal (%d,%d) out of range [0,%d)", e.From, e.To, n)
		}
	}
	pairs := pairsOf(w)
	var edits []CutEdit
	for _, e := range m.NewEdges {
		key := normEdge(e.U, e.V)
		sum := min(int64(pairs[key])+int64(max(e.Weight, 1)), math.MaxInt32)
		edits = append(edits, CutEdit{U: key.From, V: key.To, Weight: int32(sum) - pairs[key], Add: true})
		pairs[key] = int32(sum)
	}
	for _, e := range m.RemovedEdges {
		key := normEdge(e.From, e.To)
		x, ok := pairs[key]
		if !ok {
			return nil, nil, fmt.Errorf("graph: removal of absent edge {%d,%d}", key.From, key.To)
		}
		edits = append(edits, CutEdit{U: key.From, V: key.To, Weight: x})
		delete(pairs, key)
	}
	return edits, pairs, nil
}

// diffCase draws a small graph and a batch over it from intn (a seeded
// source, or fuzzed bytes). The graph is built with repeated pairs, which
// merge; the batch re-adds existing pairs and its own, removes existing
// edges, its own additions, one pair repeatedly, stale pairs and pairs
// touching the vertices it appends, and now and then names a self-loop or
// an id just outside the range.
func diffCase(intn func(int) int) (*Weighted, *Mutation) {
	n := 2 + intn(6)
	w := NewWeighted(n)
	for i := intn(14); i > 0; i-- {
		if u, v := VertexID(intn(n)), VertexID(intn(n)); u != v {
			w.AddEdge(u, v, int32(1+intn(2)))
		}
	}
	m := &Mutation{NewVertices: intn(3)}
	hi := n + m.NewVertices
	pair := func() (VertexID, VertexID) {
		u, v := VertexID(intn(hi)), VertexID(intn(hi))
		switch intn(40) {
		case 39:
			u = VertexID(hi)
		case 38:
			v = -1
		case 37: // keep a self-loop if one was drawn
		default:
			if u == v {
				v = (u + 1) % VertexID(hi)
			}
		}
		return u, v
	}
	for i := intn(7); i > 0; i-- {
		u, v := pair()
		m.NewEdges = append(m.NewEdges, WeightedEdgeRecord{U: u, V: v, Weight: int32(intn(4) - 1)})
	}
	for i := intn(6); i > 0; i-- {
		var e Edge
		switch mode := intn(5); {
		case mode == 0 && len(m.RemovedEdges) > 0:
			e = m.RemovedEdges[intn(len(m.RemovedEdges))]
		case mode == 1 && len(m.NewEdges) > 0:
			add := m.NewEdges[intn(len(m.NewEdges))]
			e = Edge{From: add.V, To: add.U}
		case mode <= 3:
			u := VertexID(intn(n))
			if w.Degree(u) == 0 {
				continue
			}
			e = Edge{From: u, To: w.Neighbors(u)[intn(w.Degree(u))].To}
		default:
			e.From, e.To = pair()
		}
		m.RemovedEdges = append(m.RemovedEdges, e)
	}
	return w, m
}

// checkAgainstOracles applies m to w and reports which way the batch went:
// "merged" (valid, and some addition lands on a pair already held),
// "valid" or "rejected". effects and Apply must return batchOracle's edits
// and error, and ApplyEdits both, appended to its buffer, leaving the
// graph Apply leaves. A
// rejected batch must leave the graph untouched; an accepted one must
// produce, arc for arc, the graph that adding and removing the batch's
// edges one by one produces, holding exactly the oracle's pairs.
func checkAgainstOracles(t *testing.T, w *Weighted, m *Mutation) string {
	t.Helper()
	wantEdits, wantPairs, wantErr := batchOracle(m, w)
	gotEdits, gotErr := m.effects(w, nil, true)
	if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) || !slices.Equal(gotEdits, wantEdits) {
		t.Fatalf("effects = %v, %v; oracle %v, %v\nbatch %+v", gotEdits, gotErr, wantEdits, wantErr, m)
	}

	held, merged := pairsOf(w), false
	want := w.Clone()
	if wantErr == nil {
		if m.NewVertices > 0 {
			want.AddVertices(m.NewVertices)
		}
		for _, e := range m.NewEdges {
			key := normEdge(e.U, e.V)
			merged = merged || held[key] > 0
			held[key]++
			want.AddEdge(e.U, e.V, max(e.Weight, 1))
		}
		for _, e := range m.RemovedEdges {
			if !want.RemoveEdge(e.From, e.To) {
				t.Fatalf("oracle accepted a batch whose removal {%d,%d} is absent: %+v", e.From, e.To, m)
			}
		}
	}
	viaEdits := w.Clone()
	// ApplyEdits appends to the caller's buffer and keeps what it held.
	buf := append(make([]CutEdit, 0, 2), CutEdit{U: -1, V: -1})
	firstNewE, appliedEdits, errE := m.ApplyEdits(viaEdits, buf)
	firstNew, err := m.Apply(w)
	if fmt.Sprint(err) != fmt.Sprint(wantErr) || (err != nil && firstNew != -1) {
		t.Fatalf("Apply = (%d, %v), oracle error %v\nbatch %+v", firstNew, err, wantErr, m)
	}
	if firstNewE != firstNew || fmt.Sprint(errE) != fmt.Sprint(err) || !slices.Equal(appliedEdits, append(buf[:1:1], gotEdits...)) {
		t.Fatalf("ApplyEdits = (%d, %v, %v), Apply (%d, %v) and effects %v\nbatch %+v",
			firstNewE, appliedEdits, errE, firstNew, err, gotEdits, m)
	}
	if w.NumVertices() != want.NumVertices() || w.NumEdges() != want.NumEdges() || w.TotalWeight() != want.TotalWeight() {
		t.Fatalf("graph totals differ from the reference after Apply (err %v)\nbatch %+v", err, m)
	}
	for v := 0; v < w.NumVertices(); v++ {
		if !slices.Equal(w.Neighbors(VertexID(v)), want.Neighbors(VertexID(v))) {
			t.Fatalf("row %d = %v, reference %v (err %v)\nbatch %+v", v, w.Neighbors(VertexID(v)), want.Neighbors(VertexID(v)), err, m)
		}
		if !slices.Equal(viaEdits.Neighbors(VertexID(v)), want.Neighbors(VertexID(v))) {
			t.Fatalf("row %d = %v after ApplyEdits, reference %v\nbatch %+v", v, viaEdits.Neighbors(VertexID(v)), want.Neighbors(VertexID(v)), m)
		}
	}
	requireMirrored(t, w, m)
	switch {
	case err != nil:
		return "rejected"
	case !maps.Equal(pairsOf(w), wantPairs):
		t.Fatalf("edges %v after Apply, oracle %v\nbatch %+v", pairsOf(w), wantPairs, m)
	case merged:
		return "merged"
	}
	return "valid"
}

// requireMirrored fails unless w is simple and its rows mirror each other
// — no row holds two arcs to one neighbour, row u holds (v, x) exactly when
// row v holds (u, x) — and the weighted degrees sum to twice the total
// weight: the invariant that lets the LPA program (internal/core) announce
// an arc's weight from the sender's row.
func requireMirrored(t *testing.T, w *Weighted, m *Mutation) {
	t.Helper()
	arcs := map[Edge]int32{}
	var degW int64
	for u := 0; u < w.NumVertices(); u++ {
		for _, a := range w.Neighbors(VertexID(u)) {
			arc := Edge{From: VertexID(u), To: a.To}
			if _, dup := arcs[arc]; dup {
				t.Fatalf("row %d holds two arcs to %d: %v\nbatch %+v", u, a.To, w.Neighbors(VertexID(u)), m)
			}
			arcs[arc] = a.Weight
		}
		degW += w.WeightedDegree(VertexID(u))
	}
	for a, x := range arcs {
		if back, ok := arcs[Edge{From: a.To, To: a.From}]; !ok || back != x {
			t.Fatalf("row %d holds (%d,%d), row %d's arc back is (%d,%d) (present %v)\nbatch %+v",
				a.From, a.To, x, a.To, a.From, back, ok, m)
		}
	}
	if degW != 2*w.TotalWeight() {
		t.Fatalf("weighted degrees sum to %d, total weight is %d\nbatch %+v", degW, w.TotalWeight(), m)
	}
}

// Differential property: over seeded random batches on small graphs,
// effects and Apply follow the model of the rule.
func TestMutationMatchesOracles(t *testing.T) {
	outcomes := map[string]int{}
	for seed := uint64(1); seed <= 4000; seed++ {
		w, m := diffCase(rng.New(seed).Intn)
		outcomes[checkAgainstOracles(t, w, m)]++
	}
	for _, o := range []string{"merged", "valid", "rejected"} {
		if outcomes[o] < 100 {
			t.Fatalf("only %d %s batches among %v: the generator no longer covers that outcome", outcomes[o], o, outcomes)
		}
	}
}

// FuzzMutationApply runs the same differential check on a graph and batch
// decoded from fuzzed bytes.
func FuzzMutationApply(f *testing.F) {
	for seed := uint64(1); seed <= 8; seed++ {
		src, data := rng.New(seed), make([]byte, 96)
		for i := range data {
			data[i] = byte(src.Intn(256))
		}
		f.Add(data)
	}
	// Two vertices joined at weight 1; the batch re-adds {0,1} at weight 2
	// and then removes {1,0}, the edge with both weights.
	f.Add([]byte{0, 1, 0, 1, 0, 0, 1, 0, 1, 0, 3, 1, 1, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		w, m := diffCase(func(n int) int {
			if len(data) == 0 {
				return 0
			}
			b := data[0]
			data = data[1:]
			return int(b) % n
		})
		checkAgainstOracles(t, w, m)
	})
}
