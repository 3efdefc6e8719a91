package graph

import (
	"bytes"
	"encoding/binary"
	"strings"
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
		if want := 12 + 12*len(m.NewEdges) + 8*len(m.RemovedEdges); len(buf) != want {
			t.Fatalf("case %d: encoded %d bytes, want %d", i, len(buf), want)
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
	got, err := DecodeWeightedBinary(buf.Bytes())
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
	if g, err := DecodeWeightedBinary(empty.Bytes()); err != nil || g.NumVertices() != 0 {
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
		if _, err := DecodeWeightedBinary(full[:len(full)-cut]); err == nil {
			t.Fatalf("truncation by %d accepted", cut)
		}
	}
	// Out-of-range arc target.
	bad := append([]byte(nil), full...)
	bad[36] = 0xee // first row's first arc target
	bad[37] = 0xee
	if _, err := DecodeWeightedBinary(bad); err == nil {
		t.Fatal("out-of-range arc accepted")
	}
}

// encodeRows hand-encodes a graph in EncodeBinary's layout: the header
// words (vertices, arcs, edges, total arc weight), then each row as its
// (target, weight) pairs.
func encodeRows(header [4]uint64, rows ...[]uint32) []byte {
	le := binary.LittleEndian
	var enc []byte
	for _, x := range header {
		enc = le.AppendUint64(enc, x)
	}
	for _, row := range rows {
		enc = le.AppendUint32(enc, uint32(len(row)/2))
		for _, x := range row {
			enc = le.AppendUint32(enc, x)
		}
	}
	return enc
}

// TestDecodeWeightedBinaryRefusesRepeatedArcs: Weighted is a simple graph,
// so a row naming a neighbour twice — here rows 0 and 1 each hold two arcs
// to the other, as a writer of parallel arcs left them — is corrupt, though
// the header's counts and total weight agree with the rows.
func TestDecodeWeightedBinaryRefusesRepeatedArcs(t *testing.T) {
	enc := encodeRows([4]uint64{3, 8, 4, 26},
		[]uint32{1, 1, 2, 5, 1, 2},
		[]uint32{0, 2, 2, 5, 0, 1},
		[]uint32{0, 5, 1, 5})
	if _, err := DecodeWeightedBinary(enc); err == nil || !strings.Contains(err.Error(), "row 0 names neighbour 1 twice") {
		t.Fatalf("decoding repeated arcs: err = %v", err)
	}
}

// TestDecodeWeightedBinaryRefusesHostileHeader: a header must account for
// every byte after it, checked before anything is allocated. Each of these
// would otherwise allocate what the header claims: 2^40 edges over 4
// vertices is 16 TiB of arcs, and MaxVertices empty rows are 192 MiB of
// slice headers.
func TestDecodeWeightedBinaryRefusesHostileHeader(t *testing.T) {
	var ok bytes.Buffer
	w := NewWeighted(3)
	w.AddEdge(0, 2, 4)
	if err := w.EncodeBinary(&ok); err != nil {
		t.Fatal(err)
	}
	for name, enc := range map[string][]byte{
		"2^40 edges over 4 vertices":    encodeRows([4]uint64{4, 1 << 41, 1 << 40, 0}, nil, nil, nil, nil),
		"MaxVertices vertices, no rows": encodeRows([4]uint64{uint64(MaxVertices), 0, 0, 0}),
		"one trailing byte":             append(ok.Bytes(), 0),
	} {
		if _, err := DecodeWeightedBinary(enc); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}
