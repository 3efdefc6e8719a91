package api

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"strconv"
	"sync"
	"testing"

	"repro/internal/graph"
	"repro/internal/metrics"
	"repro/internal/serve"
)

// AppendResync appends r as the GET /v1/lookup whole-map body: the form
// the tests compare with encoding/json and with what the handler encodes
// from the published labels.
func AppendResync(dst []byte, r ResyncResponse) []byte { return appendResync(dst, r) }

// jsonBody is what writeJSON puts on the wire for v.
func jsonBody(t testing.TB, v any) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(v); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func manyLabels(n, k int) []int32 {
	labels := make([]int32, n)
	for v := range labels {
		labels[v] = int32(v % k)
	}
	return labels
}

// There is one wire format: the appended /v1/lookup bodies are the bytes
// encoding/json writes, and the handlers serve those bytes unchunked.
func TestMutateBodyMatchesEncodingJSON(t *testing.T) {
	for _, r := range []MutateResponse{
		{},
		{Queued: true},
		{Queued: true, Adds: 20, Removes: 3, Vertices: 1},
		{Queued: true, Adds: math.MaxInt, Removes: math.MaxInt, Vertices: math.MaxInt},
		{Adds: math.MinInt, Removes: math.MinInt, Vertices: math.MinInt}, // the longest body
	} {
		var buf [128]byte
		got := AppendMutate(buf[:0], r)
		if want := jsonBody(t, r); !bytes.Equal(got, want) {
			t.Errorf("AppendMutate(%+v) = %q, encoding/json writes %q", r, got, want)
		}
		if &got[0] != &buf[0] {
			t.Errorf("AppendMutate(%+v) outgrew its 128-byte buffer (%d bytes)", r, len(got))
		}
	}
}

func TestLookupBodiesMatchEncodingJSON(t *testing.T) {
	for _, r := range []LookupResponse{
		{},
		{Vertex: 42, Partition: 3, Version: 7, K: 8},
		{Vertex: math.MaxInt32, Partition: math.MaxInt32, Version: math.MaxUint64, K: math.MaxInt},
		{Vertex: -7, Partition: -1, Version: 1<<53 + 1, K: -2},
		{Vertex: math.MinInt64, Partition: math.MinInt32, Version: math.MaxUint64, K: math.MinInt}, // the longest body
	} {
		var buf [128]byte
		got := AppendLookup(buf[:0], r)
		if want := jsonBody(t, r); !bytes.Equal(got, want) {
			t.Errorf("AppendLookup(%+v) = %q, encoding/json writes %q", r, got, want)
		}
		if &got[0] != &buf[0] {
			t.Errorf("AppendLookup(%+v) outgrew its 128-byte buffer (%d bytes)", r, len(got))
		}
	}
	for _, r := range []ResyncResponse{
		{},
		{K: 4, Labels: []int32{}},
		{K: 8, Vertices: 3, Labels: []int32{1, 0, 7}, FromSeq: 5},
		{K: 2, Vertices: 4, Labels: []int32{-1, math.MaxInt32, math.MinInt32, 0}, FromSeq: 1<<53 + 1},
		{K: math.MinInt, Vertices: math.MaxInt, Labels: []int32{9}, FromSeq: math.MaxUint64},
		{K: 32, Vertices: 50_000, Labels: manyLabels(50_000, 32), FromSeq: 12},
		// Each digit-count edge of the label kernels, and the signs.
		{K: math.MaxInt32, Vertices: 13, FromSeq: 3, Labels: []int32{
			0, 9, 10, 99, 100, 999, 1000, 999_999_999, 1_000_000_000, math.MaxInt32,
			-1, -10, -100, math.MinInt32}},
		{K: 1000, Vertices: 5_000, Labels: manyLabels(5_000, 1000)},
	} {
		got, want := AppendResync(nil, r), jsonBody(t, r)
		if !bytes.Equal(got, want) {
			t.Errorf("AppendResync(k=%d, %d labels) differs from encoding/json:\n got %.80q\nwant %.80q", r.K, len(r.Labels), got, want)
		}
		if back, err := ParseResync(got); err != nil || !reflect.DeepEqual(back, r) {
			t.Errorf("ParseResync(AppendResync(k=%d, %d labels)): %v", r.K, len(r.Labels), err)
		}
	}

	// Bodies the label kernel hands to the general scanner keep the
	// meaning encoding/json gives them.
	for _, in := range []string{
		`{"labels":[1 ,2]}`, `{"labels":[ 3]}`, `{"labels":[-0]}`,
		`{"labels":[5, 6,-7 ,0,1234567890]}`, `{"labels":[12,-2147483648,2147483647]}`,
	} {
		var want ResyncResponse
		if err := json.Unmarshal([]byte(in), &want); err != nil {
			t.Fatal(err)
		}
		if got, err := ParseResync([]byte(in)); err != nil || !reflect.DeepEqual(got, want) {
			t.Errorf("ParseResync(%q) = %+v, %v; encoding/json reads %+v", in, got, err, want)
		}
	}

	mux := NewServer(testStore(t, 4), nil).Mux()
	for _, tc := range []struct {
		path string
		into any
	}{{"/v1/lookup?v=5", &LookupResponse{}}, {"/v1/lookup", &ResyncResponse{}}} {
		rec := httptest.NewRecorder()
		mux.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, tc.path, nil))
		body := rec.Body.Bytes()
		if err := json.Unmarshal(body, tc.into); err != nil {
			t.Fatalf("GET %s: %v", tc.path, err)
		}
		if want := jsonBody(t, tc.into); !bytes.Equal(body, want) {
			t.Errorf("GET %s served %.80q, encoding/json writes %.80q", tc.path, body, want)
		}
		if got := rec.Header().Get("Content-Length"); got != strconv.Itoa(len(body)) {
			t.Errorf("GET %s: Content-Length %q on a %d-byte body", tc.path, got, len(body))
		}
	}
}

// The whole-map handler encodes the published labels in place: after
// growth and across a resize, its body is AppendResync of the Snapshot,
// byte for byte; and concurrent readers, who share the pooled body
// buffers, each get a whole map. (The name is from the sharded store,
// whose map was published as one run per shard.)
func TestWholeMapBodyFromShardRuns(t *testing.T) {
	st := testStoreCfg(t, serve.Config{Options: testOpts(4), DegradeFactor: 1e9})
	mux := NewServer(st, nil).Mux()
	get := func() []byte {
		rec := httptest.NewRecorder()
		mux.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/lookup", nil))
		return rec.Body.Bytes()
	}
	check := func(when string) {
		t.Helper()
		if err := st.Quiesce(); err != nil {
			t.Fatal(err)
		}
		body, snap := get(), st.Snapshot()
		_, next := st.DeltaBounds()
		want := AppendResync(nil, ResyncResponse{K: snap.K, Vertices: snap.Vertices, Labels: snap.Labels, FromSeq: next - 1})
		if !bytes.Equal(body, want) {
			t.Fatalf("%s: GET /v1/lookup served %d bytes that differ from AppendResync(Snapshot()), %d bytes",
				when, len(body), len(want))
		}
	}
	// Growth writes past the published labels.
	grow := func(steps int) {
		for step := 0; step < steps; step++ {
			n := st.Summary().Vertices
			m := &graph.Mutation{NewVertices: 3}
			for i := 0; i < 3; i++ {
				m.NewEdges = append(m.NewEdges, graph.WeightedEdgeRecord{
					U: graph.VertexID(n + i), V: graph.VertexID((n + i*17) % n), Weight: 2})
			}
			if err := st.Submit(m); err != nil {
				t.Fatal(err)
			}
			if err := st.Quiesce(); err != nil {
				t.Fatal(err)
			}
		}
	}
	check("bootstrapped")
	grow(520)
	check("after growth")
	if err := st.Resize(7); err != nil {
		t.Fatal(err)
	}
	check("after a resize and its repair")

	var wg sync.WaitGroup
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 25; i++ {
				got, err := ParseResync(get())
				if err == nil && len(got.Labels) != got.Vertices {
					err = fmt.Errorf("%d labels for %d vertices", len(got.Labels), got.Vertices)
				}
				if err == nil {
					err = metrics.ValidateLabels(got.Labels, got.K)
				}
				if err != nil {
					t.Errorf("concurrent read %d: %v", i, err)
					return
				}
			}
		}()
	}
	grow(50)
	wg.Wait()
}

func TestParseResyncRefuses(t *testing.T) {
	for _, in := range []string{
		``, `{`, `[]`, `null`,
		`{"k":1,"k":2}`,                       // repeated key
		`{"K":1}`,                             // encoding/json would fold case
		`{"k":1,"shards":2}`,                  // unknown key
		`{"\u006b":1}`,                        // escaped key
		`{"k":1.0}`, `{"k":1e2}`, `{"k":"1"}`, // not an integer
		`{"k":null}`, `{"k":01}`, `{"k":-}`, // not an integer
		`{"k":9223372036854775808}`,          // past int64
		`{"from_seq":-1}`, `{"from_seq":-0}`, // unsigned
		`{"from_seq":18446744073709551616}`,    // past uint64
		`{"labels":[2147483648]}`,              // past int32
		`{"labels":[-2147483649]}`,             // past int32
		`{"labels":[01]}`, `{"labels":[3,00]}`, // leading zero
		`{"labels":[7,1e2]}`, `{"labels":[4,5.0]}`, // exponent, fraction
		`{"labels":[8,21474836470]}`,         // past int32, after canonical labels
		`{"labels":[1,]}`, `{"labels":[,1]}`, // stray comma
		`{"labels":[2,3,]}`, `{"labels":[2,,3]}`, // stray comma after canonical labels
		`{"labels":[1,2`, `{"labels":[1 2]}`, // truncated, no comma
		`{"labels":[1.5]}`, `{"labels":[[1]]}`, // float, nesting
		`{"k":1,}`, `{"k":1}x`, `{"k":1}{"k":1}`, // trailing
	} {
		if r, err := ParseResync([]byte(in)); err == nil {
			t.Errorf("ParseResync(%q) accepted: %+v", in, r)
		}
	}
}

// FuzzParseResync holds the scanner to encoding/json from both sides:
// whatever it accepts, a strict json.Decoder accepts as the same struct,
// and whatever AppendResync writes, it reads back.
func FuzzParseResync(f *testing.F) {
	for _, seed := range []string{
		`{"k":8,"vertices":3,"labels":[1,0,7],"from_seq":5}` + "\n",
		`{"from_seq":5,"labels":[1,0,7],"vertices":3,"k":8}`,
		" {\t\"k\" : 8 ,\r\n \"labels\" : [ 1 , -0 , 7 ] } \n",
		`{"k":2,"vertices":0,"labels":null,"from_seq":0}`,
		`{"k":2,"labels":[]}`,
		`{}`,
		`{"k":2.5}`,
		`{"k":1,"k":2}`,
		`{"k":8,"vertices":3,"labels":[1,0,`,
		`{"labels":[2147483647,-2147483648],"from_seq":18446744073709551615}`,
		// Canonical labels beside ones the kernel hands back.
		`{"labels":[0,9,10,99,100,999999999,1000000000,2147483647]}`,
		`{"labels":[1 ,2, 3,-4,05,6]}`,
		`{"labels":[7,1e2,8]}`,
		`{"labels":[12,2147483648]}`,
		`{"labels":[3,-0,0,00]}`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if got, err := ParseResync(data); err == nil {
			dec := json.NewDecoder(bytes.NewReader(data))
			dec.DisallowUnknownFields()
			var want ResyncResponse
			if err := dec.Decode(&want); err != nil {
				t.Fatalf("scanner accepted %q, encoding/json: %v", data, err)
			}
			if err := dec.Decode(&struct{}{}); err != io.EOF {
				t.Fatalf("scanner accepted %q, encoding/json finds more after the object: %v", data, err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%q: scanner %+v, encoding/json %+v", data, got, want)
			}
		}

		// The same bytes as a struct: three words of header, a byte that
		// says whether labels is nil, then labels.
		var r ResyncResponse
		if len(data) >= 25 {
			r.FromSeq = binary.LittleEndian.Uint64(data)
			r.K = int(int64(binary.LittleEndian.Uint64(data[8:])))
			r.Vertices = int(int64(binary.LittleEndian.Uint64(data[16:])))
			if data[24]&1 == 1 {
				r.Labels = []int32{}
				for rest := data[25:]; len(rest) >= 4; rest = rest[4:] {
					r.Labels = append(r.Labels, int32(binary.LittleEndian.Uint32(rest)))
				}
			}
		}
		body := AppendResync(nil, r)
		if want := jsonBody(t, r); !bytes.Equal(body, want) {
			t.Fatalf("AppendResync(%+v) = %q, encoding/json writes %q", r, body, want)
		}
		if back, err := ParseResync(body); err != nil || !reflect.DeepEqual(back, r) {
			t.Fatalf("ParseResync(AppendResync(%+v)) = %+v, %v", r, back, err)
		}
	})
}

// ringStore serves n vertices on a ring labeled v mod k: a store of any
// size without a partitioning run.
func ringStore(t testing.TB, n, k int) *serve.Store {
	t.Helper()
	w := graph.NewWeighted(n)
	for v := 0; v < n; v++ {
		w.AddEdge(graph.VertexID(v), graph.VertexID((v+1)%n), 2)
	}
	st, err := serve.New(w, manyLabels(n, k), serve.Config{Options: testOpts(k)})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	return st
}

// discardWriter is an http.ResponseWriter that keeps nothing.
type discardWriter struct{ h http.Header }

func (w discardWriter) Header() http.Header         { return w.h }
func (w discardWriter) Write(b []byte) (int, error) { return len(b), nil }
func (w discardWriter) WriteHeader(int)             {}

// serveDiscarding runs one GET through the full route table.
func serveDiscarding(mux *http.ServeMux, req *http.Request) {
	mux.ServeHTTP(discardWriter{h: make(http.Header, 2)}, req)
}

// A point lookup costs what it returns: the bytes allocated to handle one
// do not grow with the vertex count (composing a snapshot per request
// made them 4 bytes per vertex).
func TestPointLookupCostIndependentOfN(t *testing.T) {
	perLookup := func(n int) float64 {
		mux := NewServer(ringStore(t, n, 8), nil).Mux()
		req := httptest.NewRequest(http.MethodGet, "/v1/lookup?v="+strconv.Itoa(n/2), nil)
		serveDiscarding(mux, req)
		const runs = 200
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			serveDiscarding(mux, req)
		}
		runtime.ReadMemStats(&after)
		return float64(after.TotalAlloc-before.TotalAlloc) / runs
	}
	small, large := perLookup(2_000), perLookup(200_000)
	t.Logf("bytes allocated per lookup: %.0f at n=2000, %.0f at n=200000", small, large)
	if math.Abs(large-small) >= 1024 {
		t.Fatalf("a point lookup allocates %.0f B at n=2000 and %.0f B at n=200000: it scales with n", small, large)
	}
}

// The read-path benchmarks report ns/label beside B/op, at k = 32 (one-
// and two-digit labels) and k = 1000 (up to three digits).
const benchLabels = 50_000

var benchKs = []int{32, 1000}

// reportPerLabel adds the ns/label metric to a benchmark over benchLabels.
func reportPerLabel(b *testing.B) {
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/benchLabels, "ns/label")
}

func BenchmarkHandleLookup(b *testing.B) {
	b.Run("point", func(b *testing.B) {
		mux := NewServer(ringStore(b, benchLabels, 32), nil).Mux()
		req := httptest.NewRequest(http.MethodGet, "/v1/lookup?v="+strconv.Itoa(benchLabels/2), nil)
		b.ReportAllocs()
		for b.Loop() {
			serveDiscarding(mux, req)
		}
	})
	for _, k := range benchKs {
		b.Run("all/k="+strconv.Itoa(k), func(b *testing.B) {
			mux := NewServer(ringStore(b, benchLabels, k), nil).Mux()
			req := httptest.NewRequest(http.MethodGet, "/v1/lookup", nil)
			b.ReportAllocs()
			for b.Loop() {
				serveDiscarding(mux, req)
			}
			reportPerLabel(b)
		})
	}
}

func BenchmarkParseResync(b *testing.B) {
	for _, k := range benchKs {
		b.Run("k="+strconv.Itoa(k), func(b *testing.B) {
			body := AppendResync(nil, ResyncResponse{K: k, Vertices: benchLabels, Labels: manyLabels(benchLabels, k), FromSeq: 12})
			b.SetBytes(int64(len(body)))
			b.ReportAllocs()
			for b.Loop() {
				if _, err := ParseResync(body); err != nil {
					b.Fatal(err)
				}
			}
			reportPerLabel(b)
		})
	}
}
