package graph

// ConnectedComponents labels each vertex of an undirected (or symmetrized)
// graph with a component ID in [0, count) and returns the labels and count.
// For directed graphs it computes weakly connected components by following
// out-arcs in both directions via an implicit symmetrization.
func ConnectedComponents(g *Graph) (labels []int32, count int) {
	n := g.NumVertices()
	labels = make([]int32, n)
	for i := range labels {
		labels[i] = -1
	}
	var rev [][]VertexID
	if g.Directed() {
		rev = make([][]VertexID, n)
		g.Edges(func(u, v VertexID) { rev[v] = append(rev[v], u) })
	}
	queue := make([]VertexID, 0, 1024)
	for s := 0; s < n; s++ {
		if labels[s] >= 0 {
			continue
		}
		c := int32(count)
		count++
		labels[s] = c
		queue = append(queue[:0], VertexID(s))
		for len(queue) > 0 {
			u := queue[len(queue)-1]
			queue = queue[:len(queue)-1]
			for _, v := range g.Neighbors(u) {
				if labels[v] < 0 {
					labels[v] = c
					queue = append(queue, v)
				}
			}
			if rev != nil {
				for _, v := range rev[u] {
					if labels[v] < 0 {
						labels[v] = c
						queue = append(queue, v)
					}
				}
			}
		}
	}
	return labels, count
}
