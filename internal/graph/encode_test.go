package graph

import (
	"bytes"
	"encoding/binary"
	"slices"
	"testing"
)

func TestMutationBinaryRoundTrip(t *testing.T) {
	cases := []*Mutation{
		{},
		{NewVertices: 3},
		{NewEdges: []WeightedEdgeRecord{{U: 1, V: 2, Weight: 5}, {U: 0, V: 9, Weight: 1}}},
		{
			NewVertices:  2,
			NewEdges:     []WeightedEdgeRecord{{U: 10, V: 11, Weight: 2}},
			RemovedEdges: []Edge{{From: 3, To: 4}, {From: 4, To: 3}},
		},
	}
	for i, m := range cases {
		buf := AppendMutationBinary(nil, m)
		if len(buf) != MutationBinaryLen(m) {
			t.Fatalf("case %d: encoded %d bytes, MutationBinaryLen says %d", i, len(buf), MutationBinaryLen(m))
		}
		got, err := DecodeMutationBinary(buf)
		if err != nil {
			t.Fatalf("case %d: %v", i, err)
		}
		if got.NewVertices != m.NewVertices || len(got.NewEdges) != len(m.NewEdges) || len(got.RemovedEdges) != len(m.RemovedEdges) {
			t.Fatalf("case %d: round trip %+v vs %+v", i, got, m)
		}
		for e := range m.NewEdges {
			if got.NewEdges[e] != m.NewEdges[e] {
				t.Fatalf("case %d edge %d: %+v vs %+v", i, e, got.NewEdges[e], m.NewEdges[e])
			}
		}
		for e := range m.RemovedEdges {
			if got.RemovedEdges[e] != m.RemovedEdges[e] {
				t.Fatalf("case %d removal %d mismatch", i, e)
			}
		}
	}
}

func TestDecodeMutationBinaryRejectsDamage(t *testing.T) {
	m := &Mutation{NewEdges: []WeightedEdgeRecord{{U: 1, V: 2, Weight: 3}}, RemovedEdges: []Edge{{From: 0, To: 1}}}
	buf := AppendMutationBinary(nil, m)
	for cut := 1; cut < len(buf); cut++ {
		if _, err := DecodeMutationBinary(buf[:len(buf)-cut]); err == nil {
			t.Fatalf("truncation by %d accepted", cut)
		}
	}
	if _, err := DecodeMutationBinary(append(buf, 0)); err == nil {
		t.Fatal("trailing byte accepted")
	}
	// A hostile count must not force a huge allocation; the length check
	// fires first.
	hostile := append([]byte(nil), buf...)
	hostile[4] = 0xff
	hostile[5] = 0xff
	hostile[6] = 0xff
	hostile[7] = 0x7f
	if _, err := DecodeMutationBinary(hostile); err == nil {
		t.Fatal("hostile edge count accepted")
	}
}

func TestWeightedBinaryRoundTrip(t *testing.T) {
	w := NewWeighted(7)
	w.AddEdge(0, 1, 2)
	w.AddEdge(1, 2, 1)
	w.AddEdge(3, 6, 5)
	w.AddEdge(0, 5, 2)
	w.RemoveEdge(1, 2)

	var buf bytes.Buffer
	if err := w.EncodeBinary(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := DecodeWeightedBinary(bytes.NewReader(buf.Bytes()), nil)
	if err != nil {
		t.Fatal(err)
	}
	if got.NumVertices() != w.NumVertices() || got.NumEdges() != w.NumEdges() || got.TotalWeight() != w.TotalWeight() {
		t.Fatalf("totals: %d/%d/%d vs %d/%d/%d", got.NumVertices(), got.NumEdges(), got.TotalWeight(),
			w.NumVertices(), w.NumEdges(), w.TotalWeight())
	}
	for v := 0; v < w.NumVertices(); v++ {
		a, b := w.Neighbors(VertexID(v)), got.Neighbors(VertexID(v))
		if len(a) != len(b) {
			t.Fatalf("vertex %d: %d arcs vs %d", v, len(a), len(b))
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("vertex %d arc %d: %+v vs %+v", v, i, a[i], b[i])
			}
		}
	}

	// An empty graph round-trips too.
	var empty bytes.Buffer
	if err := NewWeighted(0).EncodeBinary(&empty); err != nil {
		t.Fatal(err)
	}
	if g, err := DecodeWeightedBinary(bytes.NewReader(empty.Bytes()), nil); err != nil || g.NumVertices() != 0 {
		t.Fatalf("empty graph: %v", err)
	}
}

func TestDecodeWeightedBinaryRejectsDamage(t *testing.T) {
	w := NewWeighted(5)
	w.AddEdge(0, 1, 2)
	w.AddEdge(2, 3, 1)
	var buf bytes.Buffer
	if err := w.EncodeBinary(&buf); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	for cut := 1; cut < len(full); cut += 3 {
		if _, err := DecodeWeightedBinary(bytes.NewReader(full[:len(full)-cut]), nil); err == nil {
			t.Fatalf("truncation by %d accepted", cut)
		}
	}
	// Out-of-range arc target.
	bad := append([]byte(nil), full...)
	bad[36] = 0xee // first row's first arc target
	bad[37] = 0xee
	if _, err := DecodeWeightedBinary(bytes.NewReader(bad), nil); err == nil {
		t.Fatal("out-of-range arc accepted")
	}
}

// TestDecodeWeightedBinaryMergesRepeatedArcs: an encoding written before
// Weighted kept one arc per neighbour, by hand — rows 0 and 1 each hold
// two arcs to the other, of weights 1 and 2, and one arc of weight 5 to
// vertex 2 — decodes to the simple graph AddEdge builds from the same
// edges: one arc per pair holding the pair's summed weight, the first arc's
// place in the row, and the edge count of the merged graph. The repeat
// callback hears of each merge, with the weight the arc held before it.
func TestDecodeWeightedBinaryMergesRepeatedArcs(t *testing.T) {
	le := binary.LittleEndian
	var enc []byte
	for _, x := range []uint64{3, 8, 4, 26} { // vertices, arcs, edges, 2 × total weight
		enc = le.AppendUint64(enc, x)
	}
	for _, row := range [][]uint32{
		{1, 1, 2, 5, 1, 2},
		{0, 2, 2, 5, 0, 1},
		{0, 5, 1, 5},
	} {
		enc = le.AppendUint32(enc, uint32(len(row)/2))
		for _, x := range row {
			enc = le.AppendUint32(enc, x)
		}
	}
	var repeats [][4]int32
	got, err := DecodeWeightedBinary(bytes.NewReader(enc), func(u, v VertexID, held, weight int32) {
		repeats = append(repeats, [4]int32{int32(u), int32(v), held, weight})
	})
	if err != nil {
		t.Fatal(err)
	}
	if want := [][4]int32{{0, 1, 1, 2}, {1, 0, 2, 1}}; !slices.Equal(repeats, want) {
		t.Fatalf("repeats reported %v, want %v", repeats, want)
	}
	want := NewWeighted(3)
	want.AddEdge(0, 1, 1)
	want.AddEdge(0, 2, 5)
	want.AddEdge(1, 0, 2)
	want.AddEdge(2, 1, 5)
	if !bytes.Equal(encoded(t, got), encoded(t, want)) {
		t.Fatalf("decoded rows %v %v %v, want %v %v %v", got.Neighbors(0), got.Neighbors(1), got.Neighbors(2),
			want.Neighbors(0), want.Neighbors(1), want.Neighbors(2))
	}
	if got.NumEdges() != 3 || got.TotalWeight() != 13 {
		t.Fatalf("decoded %d edges of weight %d, want 3 of 13", got.NumEdges(), got.TotalWeight())
	}
}
