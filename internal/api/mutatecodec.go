// The POST /v1/mutate body, parsed in one pass over its bytes. A write
// batch is a few hundred bytes of "+ u v" lines, and the parse runs once
// per request on the leader's hot path, so the body is read into a pooled
// buffer and scanned in place: a canonical add line — '+', one space, 1 to
// 9 digits, one space, 1 to 9 digits, then the end of the line — is taken
// in one tight loop; any other line goes to the general rules from the
// same byte, so they alone decide what is accepted, refused and reported.
// FuzzParseMutation holds the result to the line-scanner parser this
// replaced: same mutation, same error text.
package api

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"strconv"
	"strings"
	"sync"

	"repro/internal/graph"
)

const (
	// MaxMutateBody bounds a POST /v1/mutate body; a larger one is refused
	// with 413 {"code":"body_too_large"} before any line is parsed.
	MaxMutateBody = 8 << 20
	// maxMutateLine bounds one line, as the line scanner did: a longer
	// line fails with bufio.ErrTooLong.
	maxMutateLine = 4 << 20
	// minAddLine is the shortest add line with its newline, "+ 1 2\n":
	// a body of b bytes holds at most b/minAddLine+1 of them.
	minAddLine = len("+ 1 2\n")
	// pooledBody caps the buffers bodyPool keeps, so one large body does
	// not pin its buffer for the life of the process.
	pooledBody = 64 << 10
)

// bodyPool recycles the buffers mutation bodies are read into: parsed
// mutations hold integers only, so nothing that reaches the store
// aliases a pooled buffer.
var bodyPool = sync.Pool{New: func() any { return new(bytes.Buffer) }}

// ParseMutation reads the /v1/mutate line protocol: one op per line —
// "+ u v [w]" adds an undirected edge (weight w, default 2), "- u v"
// removes one, "v n" appends n vertices; blank lines and #-comments are
// skipped. r is read to its end into a pooled buffer first; a read error
// is returned as is and nothing is parsed.
func ParseMutation(r io.Reader) (*graph.Mutation, error) {
	buf := bodyPool.Get().(*bytes.Buffer)
	buf.Reset()
	var mut *graph.Mutation
	_, err := buf.ReadFrom(r)
	if err == nil {
		mut, err = parseMutation(buf.Bytes())
	}
	if buf.Cap() <= pooledBody {
		bodyPool.Put(buf)
	}
	if err != nil {
		return nil, err
	}
	return mut, nil
}

// parseMutation parses a whole body. Lines are numbered from 1 as the
// line scanner numbered them: every line counts, blank ones included,
// and a final newline ends the last line rather than starting another.
func parseMutation(body []byte) (*graph.Mutation, error) {
	mut := &graph.Mutation{}
	if len(body) > 0 {
		lines := bytes.Count(body, []byte{'\n'}) + 1
		mut.NewEdges = make([]graph.WeightedEdgeRecord, 0, min(lines, len(body)/minAddLine+1))
	}
	for lineNo := 1; len(body) > 0; lineNo++ {
		line, rest, _ := bytes.Cut(body, []byte{'\n'})
		if len(line) >= maxMutateLine {
			// The scanner's buffer held maxMutateLine bytes: a line and its
			// newline had to fit, and a last line without one had to leave
			// room for the end of the body.
			return nil, bufio.ErrTooLong
		}
		body = rest
		if u, v, ok := addLine(line); ok {
			mut.NewEdges = append(mut.NewEdges, graph.WeightedEdgeRecord{U: u, V: v, Weight: 2})
			continue
		}
		if err := parseLine(mut, string(line), lineNo); err != nil {
			return nil, err
		}
	}
	if len(mut.NewEdges) == 0 {
		mut.NewEdges = nil
	}
	return mut, nil
}

// addLine takes a canonical add line, "+ u v" with u and v of 1 to 9
// digits (so below 10^9, inside int32) and nothing after v. It reports
// false for any other line, which parseLine then reads from its start.
func addLine(line []byte) (u, v graph.VertexID, ok bool) {
	if len(line) < len("+ 1 2") || line[0] != '+' || line[1] != ' ' {
		return 0, 0, false
	}
	i := 2
	u, i = digits(line, i)
	if i < 0 || i >= len(line) || line[i] != ' ' {
		return 0, 0, false
	}
	v, i = digits(line, i+1)
	if i != len(line) {
		return 0, 0, false
	}
	return u, v, true
}

// digits reads 1 to 9 decimal digits of line from i and returns their
// value and the index after them; the index is -1 when there are none or
// more than nine.
func digits(line []byte, i int) (graph.VertexID, int) {
	start := i
	var x graph.VertexID
	for ; i < len(line) && line[i]-'0' < 10; i++ {
		x = x*10 + graph.VertexID(line[i]-'0')
		if i-start == 9 {
			return 0, -1
		}
	}
	if i == start {
		return 0, -1
	}
	return x, i
}

// parseLine applies the general rules to one line: fields split on any
// Unicode space, '#' starts a comment, and each op checks its field count
// and values with strconv.
func parseLine(mut *graph.Mutation, line string, lineNo int) error {
	fields := strings.Fields(line)
	if len(fields) == 0 || strings.HasPrefix(fields[0], "#") {
		return nil
	}
	switch fields[0] {
	case "+":
		if len(fields) < 3 {
			return fmt.Errorf("line %d: want '+ u v [w]'", lineNo)
		}
		u, err1 := strconv.ParseInt(fields[1], 10, 32)
		v, err2 := strconv.ParseInt(fields[2], 10, 32)
		if err1 != nil || err2 != nil {
			return fmt.Errorf("line %d: bad endpoints", lineNo)
		}
		weight := int64(2)
		if len(fields) > 3 {
			var err error
			weight, err = strconv.ParseInt(fields[3], 10, 32)
			if err != nil || weight < 1 {
				return fmt.Errorf("line %d: bad weight %q", lineNo, fields[3])
			}
		}
		mut.NewEdges = append(mut.NewEdges, graph.WeightedEdgeRecord{
			U: graph.VertexID(u), V: graph.VertexID(v), Weight: int32(weight)})
	case "-":
		if len(fields) != 3 {
			return fmt.Errorf("line %d: want '- u v'", lineNo)
		}
		u, err1 := strconv.ParseInt(fields[1], 10, 32)
		v, err2 := strconv.ParseInt(fields[2], 10, 32)
		if err1 != nil || err2 != nil {
			return fmt.Errorf("line %d: bad endpoints", lineNo)
		}
		mut.RemovedEdges = append(mut.RemovedEdges, graph.Edge{From: graph.VertexID(u), To: graph.VertexID(v)})
	case "v":
		if len(fields) != 2 {
			return fmt.Errorf("line %d: want 'v n'", lineNo)
		}
		n, err := strconv.Atoi(fields[1])
		if err != nil || n < 0 || n > graph.MaxVertices || mut.NewVertices > graph.MaxVertices-n {
			return fmt.Errorf("line %d: bad vertex count %q", lineNo, fields[1])
		}
		mut.NewVertices += n
	default:
		return fmt.Errorf("line %d: unknown op %q", lineNo, fields[0])
	}
	return nil
}
