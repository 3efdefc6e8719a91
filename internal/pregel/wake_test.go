package pregel

import (
	"fmt"
	"slices"
	"testing"
)

// waker halts a varying subset of the vertices and messages a few of
// them; every third superstep (s%3 == 1) every vertex halts and sends
// nothing, so only the master's WakeAll keeps the run going. Its rules
// are functions of (vertex, superstep) so an oracle can replay them.
type waker struct {
	n, steps int
	calls    [][]int32 // calls[s][v]: how often v computed at superstep s
}

func (w *waker) halts(v VertexID, s int) bool { return s%3 == 1 || (int(v)+s)%3 != 0 }

func (w *waker) sendsTo(v VertexID, s int) (VertexID, bool) {
	return VertexID((int(v)*7 + 3 + s) % w.n), s%3 != 1 && int(v)%4 == s%4
}

func (w *waker) Compute(ctx *Context[int64, VertexID, int64], v *Vertex[int64, VertexID], msgs []int64) {
	s := ctx.Superstep()
	w.calls[s][v.ID]++
	for _, m := range msgs {
		v.Value += m
	}
	if dst, ok := w.sendsTo(v.ID, s); ok {
		ctx.SendTo(dst, 1)
	}
	if w.halts(v.ID, s) {
		v.VoteToHalt()
	}
}

func (w *waker) MasterCompute(m *Master) {
	switch {
	case m.Superstep() == w.steps-1:
		m.Halt()
	case m.Superstep()%3 == 1:
		m.WakeAll()
	}
}

// oracle replays the rules superstep by superstep over plain slices: the
// compute calls, the vertices computed and, per destination worker, the
// messages delivered (with a combiner, one per source worker and
// destination), and what each vertex summed.
func (w *waker) oracle(workers int, combine bool) (calls [][]int32, active []int64, received [][]int64, sums []int64) {
	chunk := (w.n + workers - 1) / workers
	halted := make([]bool, w.n)
	inbox := make([]int64, w.n)
	sums = make([]int64, w.n)
	wake := false
	for s := 0; s < w.steps; s++ {
		calls = append(calls, make([]int32, w.n))
		next := make([]int64, w.n)
		pairs := map[[2]int]bool{}
		var computed int64
		for v := range w.n {
			if !wake && halted[v] && inbox[v] == 0 {
				continue
			}
			calls[s][v]++
			computed++
			sums[v] += inbox[v]
			if dst, ok := w.sendsTo(VertexID(v), s); ok {
				next[dst]++
				pairs[[2]int{v / chunk, int(dst)}] = true
			}
			halted[v] = w.halts(VertexID(v), s)
		}
		recv := make([]int64, workers)
		for dst, c := range next {
			if !combine {
				recv[dst/chunk] += c
			}
		}
		for p := range pairs {
			if combine {
				recv[p[1]/chunk]++
			}
		}
		active = append(active, computed)
		received = append(received, recv)
		inbox, wake = next, s%3 == 1
	}
	return calls, active, received, sums
}

// Master.WakeAll: a vertex that voted to halt computes again after it, a
// superstep in which every vertex halted and nothing was sent does not end
// the run, and what the engine computes, counts and delivers equals the
// oracle's replay, on both delivery paths.
func TestWakeAllMatchesOracle(t *testing.T) {
	for _, workers := range []int{1, 2, 3} {
		for _, combine := range []bool{false, true} {
			t.Run(fmt.Sprintf("workers=%d/combine=%v", workers, combine), func(t *testing.T) {
				w := &waker{n: 40, steps: 12}
				for range w.steps {
					w.calls = append(w.calls, make([]int32, w.n))
				}
				e := NewEngine[int64, VertexID, int64](Config{NumWorkers: workers}, w)
				if combine {
					e.SetCombiner(func(a, b int64) int64 { return a + b })
				}
				vs := make([]Vertex[int64, VertexID], w.n)
				for i := range vs {
					vs[i].ID = VertexID(i)
				}
				if err := e.SetVertices(vs); err != nil {
					t.Fatal(err)
				}
				steps, err := e.Run()
				if err != nil {
					t.Fatal(err)
				}
				if steps != w.steps {
					t.Fatalf("%d supersteps, want %d", steps, w.steps)
				}
				calls, active, received, sums := w.oracle(workers, combine)
				for s, st := range e.Stats() {
					if !slices.Equal(w.calls[s], calls[s]) {
						t.Fatalf("superstep %d: compute calls %v, oracle %v", s, w.calls[s], calls[s])
					}
					if st.Active != active[s] || !slices.Equal(st.Received, received[s]) {
						t.Fatalf("superstep %d: active %d, received %v; oracle %d, %v",
							s, st.Active, st.Received, active[s], received[s])
					}
				}
				for v, vx := range e.Vertices() {
					if vx.Value != sums[v] {
						t.Fatalf("vertex %d summed %d messages, oracle %d", v, vx.Value, sums[v])
					}
				}
			})
		}
	}
}
