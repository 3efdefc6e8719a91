package cluster

import (
	"testing"

	"repro/internal/graph"
)

func TestMigrationVolume(t *testing.T) {
	w := graph.NewWeighted(5)
	w.AddEdge(0, 1, 2)
	w.AddEdge(1, 2, 1)
	w.AddEdge(3, 4, 1)
	before := []int32{0, 0, 1, 1, 1}
	after := []int32{0, 1, 1, 1, 0} // vertices 1 and 4 moved

	verts, weight := MigrationVolume(w, before, after)
	if verts != 2 {
		t.Fatalf("vertices = %d, want 2", verts)
	}
	// deg_w(1) = 2+1 = 3, deg_w(4) = 1.
	if weight != 4 {
		t.Fatalf("weight = %d, want 4", weight)
	}

	// Identical labelings move nothing.
	if v, wt := MigrationVolume(w, before, before); v != 0 || wt != 0 {
		t.Fatalf("self-migration = (%d,%d), want (0,0)", v, wt)
	}

	// Appended vertices (present only in `after`) are placements, not
	// migrations.
	grown := append(append([]int32(nil), after...), 2, 2)
	if v, _ := MigrationVolume(w, before, grown); v != 2 {
		t.Fatalf("with appended vertices: %d migrations, want 2", v)
	}
}
