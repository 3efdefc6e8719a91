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
	"math"
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

// MutationBinaryLen returns the exact encoded size of m in bytes.
func MutationBinaryLen(m *Mutation) int {
	return 12 + 12*len(m.NewEdges) + 8*len(m.RemovedEdges)
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

// DecodeWeightedBinary reads a graph written by EncodeBinary, validating
// the structural invariants the serving layer relies on: vertex count
// within MaxVertices, arc targets in range, positive weights, the arc
// count exactly twice the edge count (every undirected edge is stored as
// two symmetric arcs), and the stored total weight matching the arcs.
//
// A graph written before Weighted kept one arc per neighbour may repeat an
// arc within a row. Decoding merges the repeats into the row's first arc to
// that neighbour, summing their weights as AddEdge would have, and counts
// the edges that remain; a graph without repeats decodes to its encoding
// arc for arc. If repeat is not nil, it is called for each merge: row u
// repeats its arc to v, of the given weight, onto an arc whose weight so
// far is held.
func DecodeWeightedBinary(r io.Reader, repeat func(u, v VertexID, held, weight int32)) (*Weighted, error) {
	br := bufio.NewReaderSize(r, 1<<16)
	var hdr [32]byte
	if _, err := io.ReadFull(br, hdr[:]); err != nil {
		return nil, fmt.Errorf("graph: reading graph header: %w", err)
	}
	n := binary.LittleEndian.Uint64(hdr[0:])
	totalArcs := binary.LittleEndian.Uint64(hdr[8:])
	numEdges := int64(binary.LittleEndian.Uint64(hdr[16:]))
	totalWeight := int64(binary.LittleEndian.Uint64(hdr[24:]))
	if n > uint64(MaxVertices) {
		return nil, fmt.Errorf("graph: encoded graph has %d vertices, past MaxVertices=%d", n, MaxVertices)
	}
	if numEdges < 0 || totalArcs != uint64(2*numEdges) {
		return nil, fmt.Errorf("graph: %d arcs for %d undirected edges", totalArcs, numEdges)
	}
	w := &Weighted{adj: make([][]WeightedArc, n)}
	// One backing array for all arcs keeps the decode allocation-light and
	// the rows cache-adjacent, like the CSR builders elsewhere.
	arcs := make([]WeightedArc, totalArcs)
	// at[t] is 1 + the index of the current row's arc to t, 0 if none yet;
	// each row clears the entries it set.
	at := make([]int32, n)
	var used, kept uint64
	var weightSum int64
	var rec [8]byte
	for v := range w.adj {
		if _, err := io.ReadFull(br, rec[:4]); err != nil {
			return nil, fmt.Errorf("graph: reading row %d: %w", v, err)
		}
		deg := uint64(binary.LittleEndian.Uint32(rec[:4]))
		if used+deg > totalArcs {
			return nil, fmt.Errorf("graph: rows overflow the declared %d arcs at vertex %d", totalArcs, v)
		}
		row := arcs[used : used : used+deg]
		used += deg
		for range deg {
			if _, err := io.ReadFull(br, rec[:8]); err != nil {
				return nil, fmt.Errorf("graph: reading arcs of %d: %w", v, err)
			}
			to := VertexID(binary.LittleEndian.Uint32(rec[0:]))
			weight := int32(binary.LittleEndian.Uint32(rec[4:]))
			if to < 0 || uint64(to) >= n || VertexID(v) == to {
				return nil, fmt.Errorf("graph: arc %d→%d out of range", v, to)
			}
			if weight < 1 {
				return nil, fmt.Errorf("graph: arc %d→%d has weight %d", v, to, weight)
			}
			weightSum += int64(weight)
			if i := at[to]; i > 0 {
				a := &row[i-1]
				if repeat != nil {
					repeat(VertexID(v), to, a.Weight, weight)
				}
				a.Weight += min(weight, math.MaxInt32-a.Weight)
				continue
			}
			row = append(row, WeightedArc{To: to, Weight: weight})
			at[to] = int32(len(row))
		}
		for _, a := range row {
			at[a.To] = 0
			w.totalWeight += int64(a.Weight)
		}
		kept += uint64(len(row))
		w.adj[v] = row
	}
	if used != totalArcs {
		return nil, fmt.Errorf("graph: rows hold %d arcs, header declared %d", used, totalArcs)
	}
	if weightSum != totalWeight {
		return nil, fmt.Errorf("graph: arc weights sum to %d, header declared %d", weightSum, totalWeight)
	}
	w.numEdges = int64(kept / 2)
	return w, nil
}
