package pregel

import (
	"encoding/gob"
	"fmt"
	"io"
)

// Checkpointing implements Pregel's fault-tolerance mechanism (Malewicz et
// al., §4.2): at user-chosen superstep boundaries the engine persists the
// vertex values, edges, halted flags, pending messages and aggregator
// state. After a failure, a fresh engine Restores the checkpoint and
// continues from the superstep that follows it, producing results
// identical to an uninterrupted run (verified by the failure-injection
// tests).
//
// The snapshot uses encoding/gob, so V, E and M must be gob-encodable
// (exported fields or primitive types). Spinner's internal types are
// unexported; checkpointing is exercised by the analytics apps whose
// states are primitives.

// checkpointData is the on-disk layout.
type checkpointData[V, E, M any] struct {
	Superstep int
	Vertices  []checkpointVertex[V, E]
	Inbox     [][]M
	Aggs      map[string]checkpointAgg
}

type checkpointVertex[V, E any] struct {
	Value  V
	Edges  []Edge[E]
	Halted bool
}

type checkpointAgg struct {
	Current []float64
}

// Checkpoint writes the engine's complete state after the most recent
// superstep. It must be called between supersteps — in practice from
// MasterCompute or after Run returns.
func (e *Engine[V, E, M]) Checkpoint(w io.Writer) error {
	data := checkpointData[V, E, M]{
		Superstep: e.superstep,
		Vertices:  make([]checkpointVertex[V, E], len(e.vertices)),
		Inbox:     e.inbox,
		Aggs:      map[string]checkpointAgg{},
	}
	for i := range e.vertices {
		data.Vertices[i] = checkpointVertex[V, E]{
			Value:  e.vertices[i].Value,
			Edges:  e.vertices[i].Edges,
			Halted: e.vertices[i].halted,
		}
	}
	for _, a := range e.aggs.list {
		data.Aggs[a.name] = checkpointAgg{Current: a.current}
	}
	if err := gob.NewEncoder(w).Encode(&data); err != nil {
		return fmt.Errorf("pregel: encoding checkpoint: %w", err)
	}
	return nil
}

// Restore loads a checkpoint into a freshly constructed engine. The engine
// must have the same configuration (worker count, placement, seed),
// program and registered aggregators as the checkpointed one; mismatches
// in aggregator names or vertex counts are rejected. ResumeRun continues
// the computation.
func (e *Engine[V, E, M]) Restore(r io.Reader) error {
	var data checkpointData[V, E, M]
	if err := gob.NewDecoder(r).Decode(&data); err != nil {
		return fmt.Errorf("pregel: decoding checkpoint: %w", err)
	}
	if len(e.aggs.list) != len(data.Aggs) {
		return fmt.Errorf("pregel: checkpoint has %d aggregators, engine has %d", len(data.Aggs), len(e.aggs.list))
	}
	for name, ca := range data.Aggs {
		a := e.aggs.byName(name)
		if a == nil {
			return fmt.Errorf("pregel: checkpoint aggregator %q not registered", name)
		}
		if len(ca.Current) != a.size {
			return fmt.Errorf("pregel: checkpoint aggregator %q size %d != %d", name, len(ca.Current), a.size)
		}
	}
	vs := make([]Vertex[V, E], len(data.Vertices))
	for i, cv := range data.Vertices {
		vs[i] = Vertex[V, E]{ID: VertexID(i), Value: cv.Value, Edges: cv.Edges, halted: cv.Halted}
	}
	e.vertices = vs
	e.restoredInbox = data.Inbox
	e.restoredStep = data.Superstep + 1
	for name, ca := range data.Aggs {
		copy(e.aggs.byName(name).current, ca.Current)
	}
	return nil
}

// ResumeRun continues a restored computation from the checkpointed
// superstep. Calling it on an engine without a restored checkpoint is an
// error; use Run for fresh computations.
func (e *Engine[V, E, M]) ResumeRun() (int, error) {
	if e.restoredStep == 0 {
		return 0, fmt.Errorf("pregel: ResumeRun without a restored checkpoint")
	}
	if len(e.vertices) == 0 {
		return 0, ErrNoVertices
	}
	e.initPlacement()
	e.initWorkers()
	// Reinstall checkpointed aggregator values: initWorkers reset partials
	// but current values were loaded by Restore and must survive.
	e.inbox = e.restoredInbox
	if e.inbox == nil {
		e.inbox = make([][]M, len(e.vertices))
	}
	// initMessagePlane's seeding scan rebuilds the pending lists and the
	// active count from the restored halted flags and inboxes.
	e.initMessagePlane()
	start := e.restoredStep
	e.restoredStep = 0
	for e.superstep = start; e.superstep < e.cfg.MaxSupersteps; e.superstep++ {
		if e.active == 0 {
			return e.superstep, nil
		}
		e.runSuperstep()
		if mp, ok := e.prog.(MasterProgram); ok {
			m := &Master{aggs: e.aggs, numVertices: len(e.vertices), superstep: e.superstep}
			mp.MasterCompute(m)
			if m.halted {
				return e.superstep + 1, nil
			}
		}
	}
	return e.superstep, nil
}
