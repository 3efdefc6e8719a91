package api

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand/v2"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"
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

// The whole-map body follows every publication: after a counter-only
// run, growth, a resize with its repair and a restabilization's relabel,
// the next read is AppendResync of the new snapshot with its from_seq,
// and a second read at that version is the same memoized body. Readers
// beside growth each get a whole map.
func TestWholeMapBodyFollowsPublications(t *testing.T) {
	st := testStoreCfg(t, serve.Config{Options: testOpts(4), DegradeFactor: 1.01})
	srv := NewServer(st, nil)
	mux := srv.Mux()
	get := func() []byte {
		rec := httptest.NewRecorder()
		mux.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/lookup", nil))
		return rec.Body.Bytes()
	}
	submit := func(m *graph.Mutation) {
		t.Helper()
		if err := st.Submit(m); err != nil {
			t.Fatal(err)
		}
		if err := st.Quiesce(); err != nil {
			t.Fatal(err)
		}
	}
	prev := st.Snapshot()
	check := func(when string) *serve.Snapshot {
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
		memo := srv.resync.Load()
		if memo.version != snap.Version || memo.fromSeq != next-1 {
			t.Fatalf("%s: memo keyed (%d, %d), snapshot (%d, %d)", when, memo.version, memo.fromSeq, snap.Version, next-1)
		}
		if when != "bootstrapped" && snap.Version <= prev.Version {
			t.Fatalf("%s: version %d, want above %d", when, snap.Version, prev.Version)
		}
		if again := get(); !bytes.Equal(again, want) || srv.resync.Load() != memo {
			t.Fatalf("%s: a second read at version %d was not the memoized body", when, snap.Version)
		}
		prev = snap
		return snap
	}
	// edges returns count edges whose endpoints share a label (same) or
	// do not (!same).
	edges := func(snap *serve.Snapshot, count int, same bool) *graph.Mutation {
		m := &graph.Mutation{}
		for i := 0; len(m.NewEdges) < count; i++ {
			u, v := i%snap.Vertices, (i*131+7)%snap.Vertices
			if u != v && (snap.Labels[u] == snap.Labels[v]) == same {
				m.NewEdges = append(m.NewEdges, graph.WeightedEdgeRecord{U: graph.VertexID(u), V: graph.VertexID(v), Weight: 2})
			}
		}
		return m
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
			submit(m)
		}
	}
	snap := check("bootstrapped")

	// Internal edges lower the cut: the run publishes counters only.
	submit(edges(snap, 4, true))
	if next := check("after a counter-only run"); next.Epoch != snap.Epoch || !slices.Equal(next.Labels, snap.Labels) {
		t.Fatalf("the counter-only run moved labels (epoch %d → %d)", snap.Epoch, next.Epoch)
	}
	grow(520)
	check("after growth")
	if err := st.Resize(7); err != nil {
		t.Fatal(err)
	}
	snap = check("after a resize and its repair")
	// Cut edges degrade the cut until a restabilization relabels.
	for tries := 0; st.Summary().Epoch == snap.Epoch; tries++ {
		if tries == 200 {
			t.Fatal("200 batches of cut edges ran no restabilization")
		}
		submit(edges(st.Snapshot(), 40, false))
	}
	check("after a relabel")

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

// A whole-map read is encoded once per publication: eight concurrent
// reads at a new version allocate about one body between them, and every
// later read at that version gets the same bytes from the same memo.
func TestWholeMapEncodedOncePerPublication(t *testing.T) {
	st := ringStore(t, benchLabels, 32)
	srv := NewServer(st, nil)
	mux := srv.Mux()
	// A request per read: the mux writes to the request it routes.
	newReq := func() *http.Request { return httptest.NewRequest(http.MethodGet, "/v1/lookup", nil) }
	version := st.Summary().Version
	concurrently := func(read func()) {
		var wg sync.WaitGroup
		for r := 0; r < 8; r++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				read()
			}()
		}
		wg.Wait()
	}

	allocated := func(f func()) uint64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		f()
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}
	// One encode's allocation is the unit, measured in this build: the
	// race detector's build allocates twice the body for it.
	snap := st.Snapshot()
	var body []byte
	encode := allocated(func() {
		body = AppendResync(nil, ResyncResponse{K: snap.K, Vertices: snap.Vertices, Labels: snap.Labels})
	})
	reads := allocated(func() { concurrently(func() { serveDiscarding(mux, newReq()) }) })
	memo := srv.resync.Load()
	if memo == nil || memo.version != version {
		t.Fatalf("no memo at version %d after the first reads", version)
	}
	t.Logf("8 concurrent first reads allocated %d B, one encode %d B; the body is %d B (%d B resident)", reads, encode, len(body), cap(memo.body))
	if reads >= encode*3/2 {
		t.Fatalf("8 concurrent first reads allocated %d B, one encode %d B: encoded more than once", reads, encode)
	}

	_, next := st.DeltaBounds()
	want := AppendResync(nil, ResyncResponse{K: snap.K, Vertices: snap.Vertices, Labels: snap.Labels, FromSeq: next - 1})
	read := func() {
		rec := httptest.NewRecorder()
		mux.ServeHTTP(rec, newReq())
		if !bytes.Equal(rec.Body.Bytes(), want) {
			t.Errorf("a read at version %d served %d bytes, not the %d of its snapshot", version, rec.Body.Len(), len(want))
		}
	}
	for i := 0; i < 20; i++ {
		read()
	}
	concurrently(read)
	if st.Summary().Version != version || srv.resync.Load() != memo {
		t.Fatalf("the memo was encoded again at version %d", version)
	}
}

// A consumer that resyncs from a whole-map read taken under churn and
// replays the watch from that read's from_seq reaches the quiesced map:
// the memo never pairs a body with a cursor newer than its labels.
//
// Submit only queues a batch, so a fast writer can queue all of them
// before the reader runs once. The writer therefore waits for a read
// after every batch, and quiesces every tenth batch before that read, so
// the reads race with the coordinator's applies yet span the history.
func TestWholeMapReadsUnderChurnReplayToTruth(t *testing.T) {
	st := testStoreCfg(t, serve.Config{Options: testOpts(4), DegradeFactor: 1.01, DeltaRing: 1 << 14})
	url := testServer(t, st).URL
	mux := NewServer(st, nil).Mux()
	var reads []ResyncResponse
	var finished atomic.Int64
	stop, done := make(chan struct{}), make(chan struct{})
	// awaitRead returns once a read that began after the call has ended
	// (two more finish), or once the reader has stopped on an error.
	awaitRead := func() {
		for target := finished.Load() + 2; finished.Load() < target; runtime.Gosched() {
			select {
			case <-done:
				return
			default:
			}
		}
	}
	stopReads := sync.OnceFunc(func() { close(stop); <-done })
	defer stopReads()
	go func() {
		defer close(done)
		for {
			select {
			case <-stop:
				return
			default:
			}
			rec := httptest.NewRecorder()
			mux.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/lookup", nil))
			r, err := ParseResync(rec.Body.Bytes())
			if err != nil {
				t.Error(err)
				return
			}
			reads = append(reads, r)
			finished.Add(1)
		}
	}()
	for b := 0; b < 60; b++ {
		n := st.Summary().Vertices
		m := &graph.Mutation{NewVertices: 2}
		for i := 0; i < 20; i++ {
			m.NewEdges = append(m.NewEdges, graph.WeightedEdgeRecord{
				U: graph.VertexID((b*31 + i*7) % (n + 2)), V: graph.VertexID((b*17 + i*13 + 1) % n), Weight: 2})
		}
		if err := st.Submit(m); err != nil {
			t.Fatal(err)
		}
		if b == 30 {
			if err := st.Resize(6); err != nil {
				t.Fatal(err)
			}
		}
		if b%10 == 9 {
			if err := st.Quiesce(); err != nil {
				t.Fatal(err)
			}
		}
		awaitRead()
	}
	if err := st.Quiesce(); err != nil {
		t.Fatal(err)
	}
	stopReads()
	final := st.Snapshot()
	cursors := map[uint64]bool{}
	for _, r := range reads {
		cursors[r.FromSeq] = true
	}
	t.Logf("%d reads at %d cursors", len(reads), len(cursors))
	if len(cursors) < 3 {
		t.Fatalf("%d reads saw %d cursors: not under churn", len(reads), len(cursors))
	}
	_, next := st.DeltaBounds()
	watched := map[uint64][]*serve.Delta{} // one watch read per cursor
	for i, r := range reads {
		labels := slices.Clone(r.Labels)
		if limit := next - 1 - r.FromSeq; limit > 0 {
			deltas, ok := watched[r.FromSeq]
			if !ok {
				_, deltas = readWatch(t, url+"/v1/watch?from_seq="+strconv.FormatUint(r.FromSeq, 10)+"&limit="+strconv.FormatUint(limit, 10))
				watched[r.FromSeq] = deltas
			}
			var err error
			for _, d := range deltas {
				if labels, err = d.Apply(labels); err != nil {
					t.Fatalf("read %d (from_seq %d): %v", i, r.FromSeq, err)
				}
			}
		}
		if !slices.Equal(labels, final.Labels) {
			t.Fatalf("read %d (from_seq %d, %d labels) replayed to a map that differs from the quiesced one (%d labels)",
				i, r.FromSeq, len(r.Labels), len(final.Labels))
		}
	}
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

// randomLabels is n labels drawn uniformly from [0,k) by a fixed seed:
// unlike v mod k, a sequence branch prediction does not learn.
func randomLabels(n, k int) []int32 {
	rng := rand.New(rand.NewPCG(7, uint64(k)))
	labels := make([]int32, n)
	for v := range labels {
		labels[v] = rng.Int32N(int32(k))
	}
	return labels
}

// ringStore serves n vertices on a ring with randomLabels: a store of any
// size without a partitioning run.
func ringStore(t testing.TB, n, k int) *serve.Store {
	t.Helper()
	w := graph.NewWeighted(n)
	for v := 0; v < n; v++ {
		w.AddEdge(graph.VertexID(v), graph.VertexID((v+1)%n), 2)
	}
	st, err := serve.New(w, randomLabels(n, k), serve.Config{Options: testOpts(k)})
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
// and two-digit labels) and k = 1000 (up to three digits), over
// randomLabels.
const benchLabels = 50_000

var benchKs = []int{32, 1000}

// reportPerLabel adds the ns/label metric to a benchmark over benchLabels.
func reportPerLabel(b *testing.B) {
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/benchLabels, "ns/label")
}

// BenchmarkHandleLookup/all/k=K/hit reads one publication again and again
// (served from the memo); /miss drops the memo before each read, so every
// read encodes the map, as the first read after a publication does.
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
		for _, memo := range []string{"hit", "miss"} {
			b.Run("all/k="+strconv.Itoa(k)+"/"+memo, func(b *testing.B) {
				srv := NewServer(ringStore(b, benchLabels, k), nil)
				mux := srv.Mux()
				req := httptest.NewRequest(http.MethodGet, "/v1/lookup", nil)
				b.ReportAllocs()
				for b.Loop() {
					if memo == "miss" {
						srv.resync.Store(nil)
					}
					serveDiscarding(mux, req)
				}
				reportPerLabel(b)
			})
		}
	}
}

func BenchmarkParseResync(b *testing.B) {
	for _, k := range benchKs {
		b.Run("k="+strconv.Itoa(k), func(b *testing.B) {
			body := AppendResync(nil, ResyncResponse{K: k, Vertices: benchLabels, Labels: randomLabels(benchLabels, k), FromSeq: 12})
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
