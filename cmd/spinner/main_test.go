package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/graph"
)

// ringEdges is the test graph: two 50-vertex circulant rings joined by
// one edge. Every offset j(7j+13) is even, so each ring falls into two
// 25-vertex components by parity — four communities, and a 2-way split
// that puts two whole ones on each side cuts at most the bridge.
func ringEdges() [][2]int {
	var es [][2]int
	for i := 0; i < 50; i++ {
		for j := 1; j <= 8; j++ {
			u := (i + j*j*7 + j*13) % 50
			if u != i {
				es = append(es, [2]int{i, u}, [2]int{50 + i, 50 + u})
			}
		}
	}
	return append(es, [2]int{0, 50})
}

// writeEdgeList writes ringEdges as an edge list and returns its path.
func writeEdgeList(t *testing.T) string {
	t.Helper()
	dir := t.TempDir()
	path := filepath.Join(dir, "graph.txt")
	var b strings.Builder
	for _, e := range ringEdges() {
		b.WriteString(formatEdge(e[0], e[1]))
	}
	if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func formatEdge(u, v int) string {
	return strings.Join([]string{itoa(u), " ", itoa(v), "\n"}, "")
}

func itoa(x int) string {
	if x == 0 {
		return "0"
	}
	var digits []byte
	for x > 0 {
		digits = append([]byte{byte('0' + x%10)}, digits...)
		x /= 10
	}
	return string(digits)
}

func TestRunScratch(t *testing.T) {
	in := writeEdgeList(t)
	out := filepath.Join(t.TempDir(), "parts.txt")
	if err := run(2, 1.05, 0.001, 5, 100, 1, 2, false, in, out, "", 0, true); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(out)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	labels, err := graph.ReadPartitioning(f, 100, 2)
	if err != nil {
		t.Fatal(err)
	}
	// The four communities are nearly disconnected: a 2-way split should
	// cut almost no edge. Which two share a side is the draws' choice.
	es := ringEdges()
	cut := 0
	for _, e := range es {
		if labels[e[0]] != labels[e[1]] {
			cut++
		}
	}
	if cut > len(es)/100 {
		t.Fatalf("communities not separated: %d of %d edges cut", cut, len(es))
	}
}

func TestRunAdapt(t *testing.T) {
	in := writeEdgeList(t)
	dir := t.TempDir()
	out1 := filepath.Join(dir, "parts1.txt")
	if err := run(2, 1.05, 0.001, 5, 100, 1, 2, false, in, out1, "", 0, true); err != nil {
		t.Fatal(err)
	}
	out2 := filepath.Join(dir, "parts2.txt")
	if err := run(2, 1.05, 0.001, 5, 100, 1, 2, false, in, out2, out1, 0, true); err != nil {
		t.Fatal(err)
	}
	a, err := os.ReadFile(out1)
	if err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(out2)
	if err != nil {
		t.Fatal(err)
	}
	// Adapting an unchanged graph should barely move anything; with this
	// tiny graph the outputs are usually identical.
	if len(a) == 0 || len(b) == 0 {
		t.Fatal("empty outputs")
	}
}

// TestRunResize: -adapt PREV -resize OLDK reads PREV as OLDK-way labels and
// adapts them to -k partitions (§III-E).
func TestRunResize(t *testing.T) {
	in := writeEdgeList(t)
	dir := t.TempDir()
	prev := filepath.Join(dir, "parts2.txt")
	if err := run(2, 1.05, 0.001, 5, 100, 1, 2, false, in, prev, "", 0, true); err != nil {
		t.Fatal(err)
	}
	out := filepath.Join(dir, "parts3.txt")
	if err := run(3, 1.05, 0.001, 5, 100, 1, 2, false, in, out, prev, 2, true); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(out)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	labels, err := graph.ReadPartitioning(f, 100, 3)
	if err != nil {
		t.Fatal(err)
	}
	used := map[int32]bool{}
	for _, l := range labels {
		used[l] = true
	}
	if !used[2] {
		t.Fatalf("no vertex moved to the new partition 2: labels use %v", used)
	}
}

func TestRunErrors(t *testing.T) {
	in := writeEdgeList(t)
	if err := run(0, 1.05, 0.001, 5, 100, 1, 2, false, in, "", "", 0, true); err == nil {
		t.Fatal("k=0 accepted")
	}
	if err := run(2, 1.05, 0.001, 5, 100, 1, 2, false, "/does/not/exist", "", "", 0, true); err == nil {
		t.Fatal("missing input accepted")
	}
	if err := run(2, 1.05, 0.001, 5, 100, 1, 2, false, in, "", "", 3, true); err == nil {
		t.Fatal("-resize without -adapt accepted")
	}
	if err := run(2, 1.05, 0.001, 5, 100, 1, 2, false, in, "", "/does/not/exist", 0, true); err == nil {
		t.Fatal("missing -adapt file accepted")
	}
}
