package core

import (
	"math/bits"
	"slices"
	"testing"

	"repro/internal/rng"
)

// Property: the bound before the score walk is exact. Wherever
// scoreCurrent says no label can beat cur, bestLabel — the full walk —
// keeps cur and draws nothing. Each case draws capacities and loads near
// them (so penalties differ by about what a bar's share does), refreshes a
// worker's penalties, applies a few tentative moves as the vertices before
// it would, and then draws one vertex's bars and current label (often one
// with a bar, and then often the heaviest by far); a third of
// the cases give every label the same capacity and load, and every bar the
// same weight, so scores tie and the walk draws.
func TestBoundSkipsOnlyWhatCannotMoveProperty(t *testing.T) {
	for _, k := range []int{32, 130} {
		r := rng.New(uint64(k))
		p := &program{k: k, capacities: make([]float64, k)}
		ws := p.InitWorker(0, 1).(*workerScratch)
		const cases = 20000
		var skipped, moved, drew int
		for c := range cases {
			tied := c%3 == 0
			for l := range k {
				p.capacities[l], ws.localLoads[l] = 100, 95
				if !tied {
					p.capacities[l] = 50 + 100*r.Float64()
					ws.localLoads[l] = p.capacities[l] * (0.9 + 0.1*r.Float64())
				}
			}
			p.refreshPenalties(ws)
			for range r.Intn(4) {
				p.tentativeMove(ws, int32(r.Intn(k)), int32(r.Intn(k)), float64(1+r.Intn(8)))
			}
			if m := slices.Max(ws.penalty); ws.penaltyUB < m {
				t.Fatalf("k=%d case %d: penaltyUB %v below the highest penalty %v", k, c, ws.penaltyUB, m)
			}

			held := make([]uint64, (k+63)/64)
			for range 1 + r.Intn(12) {
				l := r.Intn(k)
				held[l>>6] |= 1 << (l & 63)
			}
			var hist []int64
			var degW float64
			for _, word := range held {
				for range bits.OnesCount64(word) {
					w := int64(3)
					if !tied {
						w = 1 + int64(r.Intn(20))
					}
					hist = append(hist, w)
					degW += float64(w)
				}
			}
			cur := int32(r.Intn(k))
			if labels := heldLabels(held); r.Intn(3) != 0 {
				// cur has a bar, in one case of two the heaviest by far.
				i := r.Intn(len(labels))
				cur = labels[i]
				if !tied && r.Intn(2) == 0 {
					hist[i] += 40
					degW += 40
				}
			}

			curScore, _, movable := ws.scoreCurrent(hist, held, cur, degW)
			rnd := rng.New(uint64(c))
			before := *rnd
			best := bestLabel(ws.penalty, hist, held, cur, curScore, degW, rnd)
			switch {
			case !movable:
				skipped++
				if best != cur || *rnd != before {
					t.Fatalf("k=%d case %d: the bound skipped a vertex whose walk picks %d over %d (drew: %v)\nbars %v of labels %v, penalties %v",
						k, c, best, cur, *rnd != before, hist, heldLabels(held), ws.penalty)
				}
			case best != cur:
				moved++
			}
			if *rnd != before {
				drew++
			}
		}
		// The property says something only if each outcome is common.
		if skipped < cases/10 || moved < cases/10 || drew < cases/100 {
			t.Fatalf("k=%d: %d skipped, %d moved, %d drew of %d cases", k, skipped, moved, drew, cases)
		}
	}
}
