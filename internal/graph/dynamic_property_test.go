package graph

import (
	"errors"
	"fmt"
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
// vertex count grows by exactly NewVertices, the edge count changes by
// adds − removals, the degree sum stays equal to 2·Σ per-edge weight, and
// the weighted-degree sum moves by exactly the weight added minus the
// weight removed.
func TestMutationApplyInvariantsProperty(t *testing.T) {
	f := func(seed uint64) bool {
		src := rng.New(seed)
		w := randomWeighted(src, 20+src.Intn(60))
		m := randomMutation(src, w)

		beforeVerts := w.NumVertices()
		beforeEdges := w.NumEdges()
		var beforeDegW int64
		for v := 0; v < beforeVerts; v++ {
			beforeDegW += w.WeightedDegree(VertexID(v))
		}
		var addedW, removedW int64
		for _, e := range m.NewEdges {
			wt := int64(e.Weight)
			if wt <= 0 {
				wt = 1
			}
			addedW += wt
		}
		removedSet := map[Edge]bool{}
		for _, e := range m.RemovedEdges {
			removedSet[normEdge(e.From, e.To)] = true
		}
		w.EdgesOnce(func(u, v VertexID, weight int32) {
			if removedSet[normEdge(u, v)] {
				removedW += int64(weight)
			}
		})

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
		if w.NumEdges() != beforeEdges+int64(len(m.NewEdges))-int64(len(m.RemovedEdges)) {
			return false
		}
		var afterDegW int64
		for v := 0; v < w.NumVertices(); v++ {
			afterDegW += w.WeightedDegree(VertexID(v))
		}
		if afterDegW != beforeDegW+2*(addedW-removedW) {
			return false
		}
		return afterDegW == 2*w.TotalWeight()
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

// validateOracle is Mutation.validate as it stood at a8d944e — one rescan
// of NewEdges per removed pair — kept as the reference the indexed
// validation is checked against. It returns the error texts Apply may
// report, nil for a valid batch: the old body walked the removed pairs in
// map order, so with several absent pairs any one of them could be named.
func validateOracle(m *Mutation, w *Weighted) []string {
	if m.NewVertices < 0 {
		return []string{fmt.Sprintf("graph: mutation appends %d vertices", m.NewVertices)}
	}
	old := VertexID(w.NumVertices())
	n := old + VertexID(m.NewVertices)
	for _, e := range m.NewEdges {
		if e.U < 0 || e.U >= n || e.V < 0 || e.V >= n {
			return []string{fmt.Sprintf("graph: mutation edge (%d,%d) out of range [0,%d)", e.U, e.V, n)}
		}
		if e.U == e.V {
			return []string{fmt.Sprintf("graph: mutation self-loop at %d", e.U)}
		}
	}
	need := make(map[Edge]int, len(m.RemovedEdges))
	for _, e := range m.RemovedEdges {
		if e.From < 0 || e.From >= n || e.To < 0 || e.To >= n {
			return []string{fmt.Sprintf("graph: removal (%d,%d) out of range [0,%d)", e.From, e.To, n)}
		}
		need[normEdge(e.From, e.To)]++
	}
	var absent []string
	for key, cnt := range need {
		avail := 0
		if key.From < old && key.To < old {
			for _, a := range w.Neighbors(key.From) {
				if a.To == key.To {
					avail++
				}
			}
		}
		for _, e := range m.NewEdges {
			if normEdge(e.U, e.V) == key {
				avail++
			}
		}
		if avail < cnt {
			absent = append(absent, fmt.Sprintf("graph: removal of absent edge {%d,%d}", key.From, key.To))
		}
	}
	return absent
}

// removalWeightOracle is Mutation.removalWeight as it stood at a8d944e:
// the weight of the skip-th instance removing e would delete (existing
// arcs in adj[e.From] row order, then the batch's additions of the pair),
// and whether every instance carries the same weight.
func removalWeightOracle(m *Mutation, w *Weighted, e Edge, skip int) (weight int32, uniform, ok bool) {
	uniform = true
	var first int32
	seen := 0
	consider := func(cand int32) {
		if seen == 0 {
			first = cand
		} else if cand != first {
			uniform = false
		}
		if seen == skip {
			weight, ok = cand, true
		}
		seen++
	}
	if int(e.From) < w.NumVertices() && int(e.To) < w.NumVertices() {
		for _, a := range w.Neighbors(e.From) {
			if a.To == e.To {
				consider(a.Weight)
			}
		}
	}
	key := normEdge(e.From, e.To)
	for _, add := range m.NewEdges {
		if normEdge(add.U, add.V) == key {
			consider(max(add.Weight, 1))
		}
	}
	return weight, uniform, ok
}

// cutEditsOracle is CutEdits as it stood at a8d944e, over the oracle above.
func cutEditsOracle(m *Mutation, w *Weighted) ([]CutEdit, error) {
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
		key := normEdge(e.U, e.V)
		edits = append(edits, CutEdit{U: key.From, V: key.To, Weight: max(e.Weight, 1), Add: true})
	}
	taken := make(map[Edge]int, len(m.RemovedEdges))
	for _, e := range m.RemovedEdges {
		if e.From < 0 || e.From >= n || e.To < 0 || e.To >= n {
			return nil, fmt.Errorf("graph: removal (%d,%d) out of range [0,%d)", e.From, e.To, n)
		}
		key := normEdge(e.From, e.To)
		skip := taken[key]
		taken[key]++
		weight, uniform, ok := removalWeightOracle(m, w, e, skip)
		if !ok {
			return nil, fmt.Errorf("graph: removal of absent edge {%d,%d}", key.From, key.To)
		}
		if !uniform {
			return nil, ErrCutAmbiguous
		}
		edits = append(edits, CutEdit{U: key.From, V: key.To, Weight: weight, Add: false})
	}
	return edits, nil
}

// diffCase draws a small multigraph and a batch over it from intn (a
// seeded source, or fuzzed bytes). The graph is not deduplicated, so pairs
// come in parallel arcs of equal and of differing weights; the batch
// removes existing arcs, its own additions, one pair repeatedly, stale
// pairs and pairs touching the vertices it appends, and now and then names
// a self-loop or an id just outside the range.
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
// "valid", "ambiguous" (valid, but CutEdits cannot predict the removed
// weights) or "rejected". Apply must report an error the a8d944e validation
// could have reported and leave the graph untouched, or produce the graph
// that adding and removing the batch's edges one by one produces, arc for
// arc; CutEdits must return the a8d944e edits or the a8d944e error.
func checkAgainstOracles(t *testing.T, w *Weighted, m *Mutation) string {
	t.Helper()
	wantEdits, wantEditErr := cutEditsOracle(m, w)
	gotEdits, gotEditErr := m.CutEdits(w)
	if fmt.Sprint(gotEditErr) != fmt.Sprint(wantEditErr) || errors.Is(gotEditErr, ErrCutAmbiguous) != errors.Is(wantEditErr, ErrCutAmbiguous) {
		t.Fatalf("CutEdits error %v, oracle %v\nbatch %+v", gotEditErr, wantEditErr, m)
	}
	if !slices.Equal(gotEdits, wantEdits) {
		t.Fatalf("CutEdits %v, oracle %v\nbatch %+v", gotEdits, wantEdits, m)
	}

	wantErrs := validateOracle(m, w)
	want := w.Clone()
	if wantErrs == nil {
		if m.NewVertices > 0 {
			want.AddVertices(m.NewVertices)
		}
		for _, e := range m.NewEdges {
			want.AddEdge(e.U, e.V, max(e.Weight, 1))
		}
		for _, e := range m.RemovedEdges {
			if !want.RemoveEdge(e.From, e.To) {
				t.Fatalf("oracle accepted a batch whose removal {%d,%d} is absent: %+v", e.From, e.To, m)
			}
		}
	}
	firstNew, err := m.Apply(w)
	switch {
	case wantErrs == nil && err != nil:
		t.Fatalf("Apply rejected a valid batch: %v\nbatch %+v", err, m)
	case wantErrs != nil && (err == nil || !slices.Contains(wantErrs, err.Error()) || firstNew != -1):
		t.Fatalf("Apply = (%d, %v), oracle rejects with one of %q\nbatch %+v", firstNew, err, wantErrs, m)
	}
	if w.NumVertices() != want.NumVertices() || w.NumEdges() != want.NumEdges() || w.TotalWeight() != want.TotalWeight() {
		t.Fatalf("graph totals differ from the reference after Apply (err %v)\nbatch %+v", err, m)
	}
	for v := 0; v < w.NumVertices(); v++ {
		if !slices.Equal(w.Neighbors(VertexID(v)), want.Neighbors(VertexID(v))) {
			t.Fatalf("row %d = %v, reference %v (err %v)\nbatch %+v", v, w.Neighbors(VertexID(v)), want.Neighbors(VertexID(v)), err, m)
		}
	}
	requireMirrored(t, w, m)
	switch {
	case err != nil:
		return "rejected"
	case gotEditErr != nil:
		return "ambiguous"
	}
	return "valid"
}

// requireMirrored fails unless w's rows mirror each other — row u holds
// the arc (v, x) exactly as often as row v holds (u, x) — and the weighted
// degrees sum to twice the total weight: the invariant that lets the LPA
// program (internal/core) announce an arc's weight from the sender's row.
func requireMirrored(t *testing.T, w *Weighted, m *Mutation) {
	t.Helper()
	type arc struct {
		from, to VertexID
		weight   int32
	}
	count := map[arc]int{}
	var degW int64
	for u := 0; u < w.NumVertices(); u++ {
		for _, a := range w.Neighbors(VertexID(u)) {
			count[arc{VertexID(u), a.To, a.Weight}]++
		}
		degW += w.WeightedDegree(VertexID(u))
	}
	for a, c := range count {
		if back := count[arc{a.to, a.from, a.weight}]; back != c {
			t.Fatalf("row %d holds (%d,%d) %d times, row %d holds (%d,%d) %d times\nbatch %+v",
				a.from, a.to, a.weight, c, a.to, a.from, a.weight, back, m)
		}
	}
	if degW != 2*w.TotalWeight() {
		t.Fatalf("weighted degrees sum to %d, total weight is %d\nbatch %+v", degW, w.TotalWeight(), m)
	}
}

// Differential property: over seeded random batches on small multigraphs
// the indexed validate and CutEdits agree with their a8d944e bodies.
func TestMutationMatchesOracles(t *testing.T) {
	outcomes := map[string]int{}
	for seed := uint64(1); seed <= 4000; seed++ {
		w, m := diffCase(rng.New(seed).Intn)
		outcomes[checkAgainstOracles(t, w, m)]++
	}
	for _, o := range []string{"valid", "ambiguous", "rejected"} {
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
