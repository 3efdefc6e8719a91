package graph

// Binary encodings for the durability subsystem (internal/wal): mutation
// batches are journaled and the weighted graph is checkpointed, so both
// need a compact, deterministic, versionless wire form. All integers are
// fixed-width little-endian; framing, CRCs and versioning are the
// journal's responsibility, not this file's.

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
)

// AppendMutationBinary appends m's binary encoding to buf and returns the
// extended slice. Layout:
//
//	u32 NewVertices
//	u32 len(NewEdges)   then per edge: u32 U, u32 V, i32 Weight
//	u32 len(RemovedEdges) then per edge: u32 From, u32 To
//
// The encoding is bijective with the Mutation value, so journal replay
// applies exactly the batch the coordinator applied — including batches
// that will be rejected by validation, which re-reject deterministically.
func AppendMutationBinary(buf []byte, m *Mutation) []byte {
	buf = binary.LittleEndian.AppendUint32(buf, uint32(m.NewVertices))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(m.NewEdges)))
	for _, e := range m.NewEdges {
		buf = binary.LittleEndian.AppendUint32(buf, uint32(e.U))
		buf = binary.LittleEndian.AppendUint32(buf, uint32(e.V))
		buf = binary.LittleEndian.AppendUint32(buf, uint32(e.Weight))
	}
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(m.RemovedEdges)))
	for _, e := range m.RemovedEdges {
		buf = binary.LittleEndian.AppendUint32(buf, uint32(e.From))
		buf = binary.LittleEndian.AppendUint32(buf, uint32(e.To))
	}
	return buf
}

// DecodeMutationBinary decodes a Mutation encoded by AppendMutationBinary.
// The buffer must contain exactly one mutation: trailing bytes are a
// framing error. Counts are validated against the available bytes before
// any allocation, so a corrupt length prefix cannot force a huge alloc.
func DecodeMutationBinary(b []byte) (*Mutation, error) {
	if len(b) < 8 {
		return nil, fmt.Errorf("graph: mutation encoding truncated at %d bytes", len(b))
	}
	m := &Mutation{NewVertices: int(int32(binary.LittleEndian.Uint32(b)))}
	nNew := int(binary.LittleEndian.Uint32(b[4:]))
	b = b[8:]
	if nNew < 0 || len(b) < 12*nNew+4 {
		return nil, fmt.Errorf("graph: mutation encoding claims %d new edges, %d bytes left", nNew, len(b))
	}
	if nNew > 0 {
		m.NewEdges = make([]WeightedEdgeRecord, nNew)
		for i := range m.NewEdges {
			m.NewEdges[i] = WeightedEdgeRecord{
				U:      VertexID(binary.LittleEndian.Uint32(b)),
				V:      VertexID(binary.LittleEndian.Uint32(b[4:])),
				Weight: int32(binary.LittleEndian.Uint32(b[8:])),
			}
			b = b[12:]
		}
	}
	nRem := int(binary.LittleEndian.Uint32(b))
	b = b[4:]
	if nRem < 0 || len(b) < 8*nRem {
		return nil, fmt.Errorf("graph: mutation encoding claims %d removals, %d bytes left", nRem, len(b))
	}
	if nRem > 0 {
		m.RemovedEdges = make([]Edge, nRem)
		for i := range m.RemovedEdges {
			m.RemovedEdges[i] = Edge{
				From: VertexID(binary.LittleEndian.Uint32(b)),
				To:   VertexID(binary.LittleEndian.Uint32(b[4:])),
			}
			b = b[8:]
		}
	}
	if len(b) != 0 {
		return nil, fmt.Errorf("graph: %d trailing bytes after mutation", len(b))
	}
	return m, nil
}

// EncodeBinary writes w in a CSR-shaped binary form: a header with the
// vertex/arc/edge/weight totals, then each row as a length-prefixed run of
// (target, weight) arcs. The totals double as integrity checks for
// DecodeWeightedBinary; end-to-end corruption detection is the
// checkpoint's CRC, not this layout.
func (w *Weighted) EncodeBinary(out io.Writer) error {
	bw := bufio.NewWriterSize(out, 1<<16)
	var totalArcs uint64
	for _, row := range w.adj {
		totalArcs += uint64(len(row))
	}
	var hdr [32]byte
	binary.LittleEndian.PutUint64(hdr[0:], uint64(len(w.adj)))
	binary.LittleEndian.PutUint64(hdr[8:], totalArcs)
	binary.LittleEndian.PutUint64(hdr[16:], uint64(w.numEdges))
	binary.LittleEndian.PutUint64(hdr[24:], uint64(w.totalWeight))
	if _, err := bw.Write(hdr[:]); err != nil {
		return err
	}
	var rec [8]byte
	for _, row := range w.adj {
		binary.LittleEndian.PutUint32(rec[:], uint32(len(row)))
		if _, err := bw.Write(rec[:4]); err != nil {
			return err
		}
		for _, a := range row {
			binary.LittleEndian.PutUint32(rec[0:], uint32(a.To))
			binary.LittleEndian.PutUint32(rec[4:], uint32(a.Weight))
			if _, err := bw.Write(rec[:8]); err != nil {
				return err
			}
		}
	}
	return bw.Flush()
}

// DecodeWeightedBinary decodes b, which must hold exactly one graph written
// by EncodeBinary. The header's vertex and arc counts must account for every
// byte of b — 32 header bytes, 4 per row and 8 per arc — which is checked
// before anything is allocated, so no header can claim more memory than
// its bytes. It then validates the structural invariants the serving layer
// relies on: vertex count within MaxVertices, arc targets in range, one arc
// per neighbour (a row that names a neighbour twice is corrupt), positive
// weights, the arc count exactly twice the edge count (every undirected
// edge is stored as two symmetric arcs), and the stored total weight
// matching the arcs.
func DecodeWeightedBinary(b []byte) (*Weighted, error) {
	if len(b) < 32 {
		return nil, fmt.Errorf("graph: graph header truncated at %d bytes", len(b))
	}
	n := binary.LittleEndian.Uint64(b[0:])
	totalArcs := binary.LittleEndian.Uint64(b[8:])
	numEdges := int64(binary.LittleEndian.Uint64(b[16:]))
	totalWeight := int64(binary.LittleEndian.Uint64(b[24:]))
	if n > uint64(MaxVertices) {
		return nil, fmt.Errorf("graph: encoded graph has %d vertices, past MaxVertices=%d", n, MaxVertices)
	}
	if numEdges < 0 || totalArcs != uint64(2*numEdges) {
		return nil, fmt.Errorf("graph: %d arcs for %d undirected edges", totalArcs, numEdges)
	}
	b = b[32:]
	if body := uint64(len(b)); body < 4*n || (body-4*n)%8 != 0 || (body-4*n)/8 != totalArcs {
		return nil, fmt.Errorf("graph: %d bytes past the header do not hold the %d rows and %d arcs it declares",
			len(b), n, totalArcs)
	}
	w := &Weighted{adj: make([][]WeightedArc, n), numEdges: numEdges}
	// One backing array for all arcs keeps the decode allocation-light and
	// the rows cache-adjacent, like the CSR builders elsewhere. Each row is
	// capped at its own arcs, so appending to it copies it out instead of
	// writing over the next row.
	arcs := make([]WeightedArc, totalArcs)
	seen := make([]int32, n) // seen[t] = v+1 once row v has an arc to t
	var used uint64
	for v := range w.adj {
		deg := uint64(binary.LittleEndian.Uint32(b))
		b = b[4:]
		if deg > totalArcs-used {
			return nil, fmt.Errorf("graph: rows overflow the declared %d arcs at vertex %d", totalArcs, v)
		}
		row := arcs[used : used+deg : used+deg]
		used += deg
		for i := range row {
			to := VertexID(binary.LittleEndian.Uint32(b))
			weight := int32(binary.LittleEndian.Uint32(b[4:]))
			b = b[8:]
			if to < 0 || uint64(to) >= n || VertexID(v) == to {
				return nil, fmt.Errorf("graph: arc %d→%d out of range", v, to)
			}
			if seen[to] == int32(v)+1 {
				return nil, fmt.Errorf("graph: row %d names neighbour %d twice", v, to)
			}
			seen[to] = int32(v) + 1
			if weight < 1 {
				return nil, fmt.Errorf("graph: arc %d→%d has weight %d", v, to, weight)
			}
			row[i] = WeightedArc{To: to, Weight: weight}
			w.totalWeight += int64(weight)
		}
		w.adj[v] = row
	}
	if used != totalArcs {
		return nil, fmt.Errorf("graph: rows hold %d arcs, header declared %d", used, totalArcs)
	}
	if w.totalWeight != totalWeight {
		return nil, fmt.Errorf("graph: arc weights sum to %d, header declared %d", w.totalWeight, totalWeight)
	}
	return w, nil
}
