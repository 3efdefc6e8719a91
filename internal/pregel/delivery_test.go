package pregel_test

import (
	"fmt"
	"slices"
	"testing"

	"repro/internal/apps"
	"repro/internal/pregel"
)

// sendSteps is how many supersteps inboxRecorder sends in.
const sendSteps = 3

// sends lists, in send order, the destinations vertex v messages at
// superstep s: zero to four of them, repeats and v itself included.
func sends(v pregel.VertexID, s, n int) []pregel.VertexID {
	x := uint64(v)*0x9e3779b97f4a7c15 + uint64(s)*0xbf58476d1ce4e5b9
	x ^= x >> 29
	out := make([]pregel.VertexID, x%5)
	for j := range out {
		x = x*6364136223846793005 + 1442695040888963407
		switch r := x >> 33; {
		case r%7 == 0:
			out[j] = v
		case r%5 == 0 && j > 0:
			out[j] = out[j-1]
		default:
			out[j] = pregel.VertexID(r % uint64(n))
		}
	}
	return out
}

// payload names a message by its sender, superstep and place in the
// sender's send order.
func payload(v pregel.VertexID, s, j int) uint64 { return uint64(v)<<16 | uint64(s)<<8 | uint64(j) }

// inboxRecorder has no combiner: every vertex keeps a copy of each inbox
// it is handed, then sends along sends(v, s) and votes to halt, so after
// superstep 0 only vertices that received something compute.
type inboxRecorder struct{ got [][][]uint64 } // superstep -> vertex -> inbox

func (p *inboxRecorder) Compute(ctx *pregel.Context[int64, pregel.VertexID, uint64], v *pregel.Vertex[int64, pregel.VertexID], msgs []uint64) {
	s := ctx.Superstep()
	p.got[s][v.ID] = append([]uint64(nil), msgs...)
	if s < sendSteps {
		for j, dst := range sends(v.ID, s, ctx.NumVertices()) {
			ctx.SendTo(dst, payload(v.ID, s, j))
		}
	}
	v.VoteToHalt()
}

// inboxOracle delivers inboxRecorder's messages the simple way: a worker
// computes its vertices in ID order, and a vertex's inbox holds its
// messages by source worker, then send order. It returns the inboxes per
// superstep and each superstep's message counts.
func inboxOracle(n, workers int, place func(pregel.VertexID) int) ([][][]uint64, []pregel.SuperstepStats) {
	inbox := make([][][]uint64, sendSteps+2)
	for s := range inbox {
		inbox[s] = make([][]uint64, n)
	}
	var stats []pregel.SuperstepStats
	for s := 0; s <= sendSteps; s++ {
		st := pregel.SuperstepStats{
			SentLocal:      make([]int64, workers),
			SentRemote:     make([]int64, workers),
			Received:       make([]int64, workers),
			ReceivedRemote: make([]int64, workers),
		}
		for src := 0; src < workers; src++ {
			for v := pregel.VertexID(0); int(v) < n; v++ {
				if place(v) != src || (s > 0 && len(inbox[s][v]) == 0) || s == sendSteps {
					continue
				}
				for j, dst := range sends(v, s, n) {
					inbox[s+1][dst] = append(inbox[s+1][dst], payload(v, s, j))
					to := place(dst)
					st.Received[to]++
					if to == src {
						st.SentLocal[src]++
					} else {
						st.SentRemote[src]++
						st.ReceivedRemote[to]++
					}
				}
			}
		}
		stats = append(stats, st)
	}
	return inbox, stats
}

// TestInboxOrderMatchesOracle checks the no-combiner delivery against
// inboxOracle: every inbox in every superstep, message for message, and
// the per-worker counts. The sizes straddle the delivery block (4096
// vertices of one worker), and the label-derived placement, with labels in
// [0, 3), leaves workers 3 and 4 owning no vertex when there are five.
func TestInboxOrderMatchesOracle(t *testing.T) {
	placements := map[string]func(n, workers int) func(pregel.VertexID) int{
		"contiguous": func(n, workers int) func(pregel.VertexID) int {
			chunk := (n + workers - 1) / workers
			return func(v pregel.VertexID) int { return int(v) / chunk }
		},
		"hash": func(_, workers int) func(pregel.VertexID) int { return apps.HashPlacement(workers) },
		"labels": func(n, workers int) func(pregel.VertexID) int {
			labels := make([]int32, n)
			for v := range labels {
				labels[v] = int32(v/1000+v%7) % 3
			}
			return apps.PlacementFromLabels(labels, workers)
		},
	}
	for _, n := range []int{5, 4097, 20483} {
		for _, workers := range []int{1, 2, 3, 5} {
			for name, mk := range placements {
				t.Run(fmt.Sprintf("n=%d/workers=%d/%s", n, workers, name), func(t *testing.T) {
					place := mk(n, workers)
					prog := &inboxRecorder{got: make([][][]uint64, sendSteps+2)}
					for s := range prog.got {
						prog.got[s] = make([][]uint64, n)
					}
					e := pregel.NewEngine[int64, pregel.VertexID, uint64](pregel.Config{NumWorkers: workers, Placement: place}, prog)
					vs := make([]pregel.Vertex[int64, pregel.VertexID], n)
					for i := range vs {
						vs[i].ID = pregel.VertexID(i)
					}
					if err := e.SetVertices(vs); err != nil {
						t.Fatal(err)
					}
					steps, err := e.Run()
					if err != nil {
						t.Fatal(err)
					}
					want, wantStats := inboxOracle(n, workers, place)
					if steps != sendSteps+1 {
						t.Fatalf("ran %d supersteps, want %d", steps, sendSteps+1)
					}
					for s := 0; s < steps; s++ {
						for v := range want[s] {
							if !slices.Equal(prog.got[s][v], want[s][v]) {
								t.Fatalf("superstep %d vertex %d: inbox %v, want %v", s, v, prog.got[s][v], want[s][v])
							}
						}
					}
					for s, st := range e.Stats() {
						w := wantStats[s]
						for wk := 0; wk < workers; wk++ {
							got := [4]int64{st.SentLocal[wk], st.SentRemote[wk], st.Received[wk], st.ReceivedRemote[wk]}
							exp := [4]int64{w.SentLocal[wk], w.SentRemote[wk], w.Received[wk], w.ReceivedRemote[wk]}
							if got != exp {
								t.Fatalf("superstep %d worker %d: sent local/remote, received, received remote = %v, want %v", s, wk, got, exp)
							}
						}
					}
				})
			}
		}
	}
}
