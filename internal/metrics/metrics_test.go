package metrics

import (
	"math"
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/rng"
)

// path4 builds 0-1-2-3 with unit weights.
func path4() *graph.Weighted {
	w := graph.NewWeighted(4)
	w.AddEdge(0, 1, 1)
	w.AddEdge(1, 2, 1)
	w.AddEdge(2, 3, 1)
	return w
}

func TestPhiAllLocal(t *testing.T) {
	w := path4()
	if got := Phi(w, []int32{0, 0, 0, 0}); got != 1 {
		t.Fatalf("phi=%v, want 1", got)
	}
}

func TestPhiAllCut(t *testing.T) {
	w := path4()
	if got := Phi(w, []int32{0, 1, 0, 1}); got != 0 {
		t.Fatalf("phi=%v, want 0", got)
	}
}

func TestPhiPartial(t *testing.T) {
	w := path4()
	// 0,1 together; 2,3 together; middle edge cut → 2/3 local.
	got := Phi(w, []int32{0, 0, 1, 1})
	if math.Abs(got-2.0/3.0) > 1e-12 {
		t.Fatalf("phi=%v, want 2/3", got)
	}
}

func TestPhiWeighted(t *testing.T) {
	w := graph.NewWeighted(3)
	w.AddEdge(0, 1, 2) // local
	w.AddEdge(1, 2, 1) // cut
	got := Phi(w, []int32{0, 0, 1})
	if math.Abs(got-2.0/3.0) > 1e-12 {
		t.Fatalf("weighted phi=%v, want 2/3", got)
	}
}

func TestPhiEmptyGraph(t *testing.T) {
	w := graph.NewWeighted(3)
	if Phi(w, []int32{0, 1, 2}) != 1 {
		t.Fatal("edgeless phi should be 1")
	}
}

func TestCutEdges(t *testing.T) {
	w := path4()
	if got := CutEdges(w, []int32{0, 0, 1, 1}); got != 1 {
		t.Fatalf("cut=%d, want 1", got)
	}
}

func TestLoadsConservation(t *testing.T) {
	w := path4()
	loads := Loads(w, []int32{0, 0, 1, 1}, 2)
	var sum int64
	for _, b := range loads {
		sum += b
	}
	if sum != 2*w.TotalWeight() {
		t.Fatalf("Σb(l)=%d, want %d", sum, 2*w.TotalWeight())
	}
}

func TestRhoBalanced(t *testing.T) {
	// Two partitions each carrying identical load.
	w := graph.NewWeighted(4)
	w.AddEdge(0, 1, 1)
	w.AddEdge(2, 3, 1)
	got := Rho(w, []int32{0, 0, 1, 1}, 2)
	if math.Abs(got-1) > 1e-12 {
		t.Fatalf("rho=%v, want 1", got)
	}
}

func TestRhoUnbalanced(t *testing.T) {
	w := graph.NewWeighted(4)
	w.AddEdge(0, 1, 1)
	w.AddEdge(2, 3, 1)
	// All in one partition: max load 4 (weighted degree sum), ideal 2 → ρ=2.
	got := Rho(w, []int32{0, 0, 0, 0}, 2)
	if math.Abs(got-2) > 1e-12 {
		t.Fatalf("rho=%v, want 2", got)
	}
}

func TestRhoEmptyGraph(t *testing.T) {
	w := graph.NewWeighted(2)
	if Rho(w, []int32{0, 1}, 2) != 1 {
		t.Fatal("edgeless rho should be 1")
	}
}

func TestScoreImprovesWithLocality(t *testing.T) {
	w := path4()
	bad := Score(w, []int32{0, 1, 0, 1}, 2, 1.05)
	good := Score(w, []int32{0, 0, 1, 1}, 2, 1.05)
	if good <= bad {
		t.Fatalf("score(good)=%v <= score(bad)=%v", good, bad)
	}
}

func TestScorePenalizesImbalance(t *testing.T) {
	w := graph.NewWeighted(4)
	w.AddEdge(0, 1, 1)
	w.AddEdge(2, 3, 1)
	balanced := Score(w, []int32{0, 0, 1, 1}, 2, 1.05)
	lopsided := Score(w, []int32{0, 0, 0, 0}, 2, 1.05)
	if balanced <= lopsided {
		t.Fatalf("balanced score %v <= lopsided %v", balanced, lopsided)
	}
}

func TestDifference(t *testing.T) {
	a := []int32{0, 1, 2, 3}
	b := []int32{0, 1, 0, 0}
	if got := Difference(a, b); math.Abs(got-0.5) > 1e-12 {
		t.Fatalf("difference=%v, want 0.5", got)
	}
	if Difference(a, a) != 0 {
		t.Fatal("self-difference nonzero")
	}
	if Difference(nil, nil) != 0 {
		t.Fatal("empty difference nonzero")
	}
}

func TestDifferencePanicsOnMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("length mismatch did not panic")
		}
	}()
	Difference([]int32{0}, []int32{0, 1})
}

func TestValidateLabels(t *testing.T) {
	if err := ValidateLabels([]int32{0, 1, 2}, 3); err != nil {
		t.Fatal(err)
	}
	if err := ValidateLabels([]int32{0, 3}, 3); err == nil {
		t.Fatal("out-of-range label accepted")
	}
	if err := ValidateLabels([]int32{-1}, 3); err == nil {
		t.Fatal("negative label accepted")
	}
}

// Property: φ ∈ [0,1] and ρ ≥ 1 for any labeling of any graph.
func TestMetricBoundsProperty(t *testing.T) {
	f := func(seed uint16, kRaw uint8) bool {
		k := int(kRaw%8) + 1
		s := rng.New(uint64(seed))
		g := gen.ErdosRenyi(30, 100, true, uint64(seed))
		w := graph.Convert(g)
		labels := make([]int32, w.NumVertices())
		for i := range labels {
			labels[i] = int32(s.Intn(k))
		}
		phi := Phi(w, labels)
		rho := Rho(w, labels, k)
		return phi >= 0 && phi <= 1 && rho >= 1-1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// Property: load conservation Σ_l b(l) = Σ_v deg_w(v) for any labeling.
func TestLoadConservationProperty(t *testing.T) {
	f := func(seed uint16) bool {
		s := rng.New(uint64(seed))
		w := graph.Convert(gen.ErdosRenyi(40, 150, true, uint64(seed)))
		k := 1 + s.Intn(6)
		labels := make([]int32, w.NumVertices())
		for i := range labels {
			labels[i] = int32(s.Intn(k))
		}
		loads := Loads(w, labels, k)
		var sum int64
		for _, b := range loads {
			sum += b
		}
		var degSum int64
		for v := 0; v < w.NumVertices(); v++ {
			degSum += w.WeightedDegree(graph.VertexID(v))
		}
		return sum == degSum
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestGroundTruthPhiHigh(t *testing.T) {
	g, truth := gen.PlantedPartition(800, 4, 12, 2, 5)
	w := graph.Convert(g)
	if phi := Phi(w, truth); phi < 0.75 {
		t.Fatalf("ground truth phi=%v, want >= 0.75", phi)
	}
}

// CutWeights must agree with Phi exactly, and range-restricted sums over a
// disjoint partition of the vertex space must reproduce the global counters
// bit-for-bit.
func TestCutWeightsMatchPhiAndCompose(t *testing.T) {
	g, _ := gen.PlantedPartition(500, 3, 10, 3, 11)
	w := graph.Convert(g)
	labels := make([]int32, w.NumVertices())
	for v := range labels {
		labels[v] = int32(v % 3)
	}
	cross, total, perPart := CutWeights(w, labels, 3)
	if total != w.TotalWeight() {
		t.Fatalf("total %d != TotalWeight %d", total, w.TotalWeight())
	}
	// Integer identity with Phi's numerator: cross = total − local. (The
	// float 1−Phi differs from cross/total only by rounding of the
	// subtraction, which is why the serving layer keeps integers.)
	var local int64
	w.EdgesOnce(func(u, v graph.VertexID, weight int32) {
		if labels[u] == labels[v] {
			local += int64(weight)
		}
	})
	if cross != total-local {
		t.Fatalf("cross %d != total-local %d", cross, total-local)
	}
	for _, l := range perPart {
		if l < 0 || l > 2*cross {
			t.Fatalf("perPart out of range: %v (cross %d)", perPart, cross)
		}
	}
	var sumPP int64
	for _, l := range perPart {
		sumPP += l
	}
	if sumPP != 2*cross {
		t.Fatalf("sum perPart %d != 2*cross %d", sumPP, cross)
	}

	bounds := []int{0, 97, 213, w.NumVertices()}
	var rc, rt int64
	rpp, rload := make([]int64, 3), make([]int64, 3)
	for i := 0; i+1 < len(bounds); i++ {
		c, tt, pp, load := CutWeightsRange(w, labels, 3, bounds[i], bounds[i+1])
		rc += c
		rt += tt
		for l := range pp {
			rpp[l] += pp[l]
			rload[l] += load[l]
		}
	}
	if want := Loads(w, labels, 3); !slices.Equal(rload, want) {
		t.Fatalf("range loads sum to %v, Loads gives %v", rload, want)
	}
	if rc != cross || rt != total {
		t.Fatalf("range sums (%d,%d) != global (%d,%d)", rc, rt, cross, total)
	}
	for l := range rpp {
		if rpp[l] != perPart[l] {
			t.Fatalf("range perPart[%d]=%d != %d", l, rpp[l], perPart[l])
		}
	}
}
