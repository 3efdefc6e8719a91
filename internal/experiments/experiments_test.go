package experiments

import "testing"

// TestClaims runs every row of the scoreboard that reads no wall clock, at
// 4 000 vertices and two workers, and fails on a row whose claim fails. A
// deviation — a part of a claim that does not hold at this scale, for the
// reason its row states — passes.
func TestClaims(t *testing.T) {
	cfg := Config{Scale: 4000, Seed: 1, Workers: 2}
	for _, cl := range Claims {
		if cl.WallClock {
			continue
		}
		t.Run(cl.ID, func(t *testing.T) {
			o, err := cl.Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if len(o.Failed) > 0 {
				t.Errorf("%s\nmeasured: %v", o.Verdict(), o.Measured)
			}
			t.Log(o.Verdict())
		})
	}
}
