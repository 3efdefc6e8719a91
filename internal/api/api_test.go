package api

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"reflect"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/serve"
	"repro/internal/wal"
)

func testStore(t *testing.T, k int) *serve.Store {
	t.Helper()
	return testStoreCfg(t, serve.Config{Options: testOpts(k)})
}

func testOpts(k int) core.Options {
	opts := core.DefaultOptions(k)
	opts.Seed = 7
	opts.NumWorkers = 2
	opts.MaxIterations = 30
	return opts
}

func testStoreCfg(t *testing.T, cfg serve.Config) *serve.Store {
	t.Helper()
	st, err := serve.Bootstrap(gen.WattsStrogatz(600, 8, 0.2, 7), cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	return st
}

func testServer(t *testing.T, st *serve.Store) *httptest.Server {
	t.Helper()
	srv := httptest.NewServer(NewServer(st, nil).Mux())
	t.Cleanup(srv.Close)
	return srv
}

// prefix is the one path prefix the API serves.
const prefix = "/v1"

// The pre-versioning aliases are gone: every unversioned path answers
// the mux's plain 404.
func TestUnversionedRoutesAreGone(t *testing.T) {
	srv := testServer(t, testStore(t, 4))
	for _, path := range []string{"/healthz", "/lookup?v=5", "/lookup", "/stats", "/replicate", "/replicate/checkpoint", "/metrics", "/watch"} {
		r, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		r.Body.Close()
		if r.StatusCode != http.StatusNotFound {
			t.Fatalf("GET %s status %d, want 404", path, r.StatusCode)
		}
	}
	for _, path := range []string{"/mutate", "/resize?k=5", "/promote"} {
		r, err := http.Post(srv.URL+path, "text/plain", strings.NewReader("+ 1 2\n"))
		if err != nil {
			t.Fatal(err)
		}
		r.Body.Close()
		if r.StatusCode != http.StatusNotFound {
			t.Fatalf("POST %s status %d, want 404", path, r.StatusCode)
		}
	}
}

func TestHTTPLookupAndStats(t *testing.T) {
	st := testStore(t, 4)
	srv := testServer(t, st)

	resp, err := http.Get(srv.URL + prefix + "/lookup?v=5")
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("%s/lookup status %d", prefix, resp.StatusCode)
	}
	var body LookupResponse
	err = json.NewDecoder(resp.Body).Decode(&body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if body.Vertex != 5 || body.Partition < 0 || int(body.Partition) >= body.K {
		t.Fatalf("%s/lookup body %+v", prefix, body)
	}

	for _, bad := range []string{"/lookup?v=abc", "/lookup?v="} {
		r, err := http.Get(srv.URL + prefix + bad)
		if err != nil {
			t.Fatal(err)
		}
		r.Body.Close()
		if r.StatusCode != http.StatusBadRequest {
			t.Fatalf("%s%s status %d, want 400", prefix, bad, r.StatusCode)
		}
	}
	r, err := http.Get(srv.URL + prefix + "/lookup?v=100000")
	if err != nil {
		t.Fatal(err)
	}
	r.Body.Close()
	if r.StatusCode != http.StatusNotFound {
		t.Fatalf("%s missing vertex status %d, want 404", prefix, r.StatusCode)
	}

	r, err = http.Get(srv.URL + prefix + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	var stats StatsResponse
	err = json.NewDecoder(r.Body).Decode(&stats)
	r.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if stats.Vertices != 600 || stats.K != 4 {
		t.Fatalf("%s/stats %+v", prefix, stats)
	}
	if stats.DeltaFloor < 1 || stats.DeltaNext <= stats.DeltaFloor {
		t.Fatalf("%s/stats delta bounds [%d, %d)", prefix, stats.DeltaFloor, stats.DeltaNext)
	}

	r, err = http.Get(srv.URL + prefix + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var health HealthResponse
	err = json.NewDecoder(r.Body).Decode(&health)
	r.Body.Close()
	if r.StatusCode != http.StatusOK || err != nil || health.Status != "ok" {
		t.Fatalf("%s/healthz status %d body %+v err %v", prefix, r.StatusCode, health, err)
	}
}

// A point lookup answers from one snapshot: beside resizes that swing k
// between 8 and 3, every 200 names a partition below the k it reports.
func TestPointLookupPartitionBelowItsK(t *testing.T) {
	st := testStoreCfg(t, serve.Config{Options: testOpts(8), DegradeFactor: 1e9})
	mux := NewServer(st, nil).Mux()
	stop := make(chan struct{})
	var wg sync.WaitGroup
	defer wg.Wait()
	defer close(stop)
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := r; ; i += 4 {
				select {
				case <-stop:
					return
				default:
				}
				rec := httptest.NewRecorder()
				mux.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/lookup?v="+strconv.Itoa(i*37%600), nil))
				var got LookupResponse
				if err := json.Unmarshal(rec.Body.Bytes(), &got); rec.Code != http.StatusOK || err != nil {
					t.Errorf("lookup %d: status %d, %v", i, rec.Code, err)
					return
				}
				if got.Partition < 0 || int(got.Partition) >= got.K {
					t.Errorf("lookup of %d at version %d: partition %d, k %d", got.Vertex, got.Version, got.Partition, got.K)
					return
				}
			}
		}(r)
	}
	for i := 0; i < 60; i++ {
		if err := st.Resize(3 + 5*(i%2)); err != nil {
			t.Fatal(err)
		}
		if err := st.Quiesce(); err != nil {
			t.Fatal(err)
		}
	}
}

// The bare /v1/lookup (no v) is the full-resync dump.
func TestLookupResync(t *testing.T) {
	st := testStore(t, 4)
	srv := testServer(t, st)

	r, err := http.Get(srv.URL + "/v1/lookup")
	if err != nil {
		t.Fatal(err)
	}
	var dump ResyncResponse
	err = json.NewDecoder(r.Body).Decode(&dump)
	r.Body.Close()
	if r.StatusCode != http.StatusOK || err != nil {
		t.Fatalf("/v1/lookup resync status %d err %v", r.StatusCode, err)
	}
	snap := st.Snapshot()
	if dump.K != snap.K || dump.Vertices != len(snap.Labels) || len(dump.Labels) != len(snap.Labels) {
		t.Fatalf("resync dump k=%d n=%d labels=%d, want k=%d n=%d", dump.K, dump.Vertices, len(dump.Labels), snap.K, len(snap.Labels))
	}
	for v := range snap.Labels {
		if dump.Labels[v] != snap.Labels[v] {
			t.Fatalf("resync label[%d] = %d, want %d", v, dump.Labels[v], snap.Labels[v])
		}
	}
	_, next := st.DeltaBounds()
	if dump.FromSeq > next-1 {
		t.Fatalf("resync from_seq %d ahead of newest delta %d", dump.FromSeq, next-1)
	}
}

func TestHTTPMutateAndResize(t *testing.T) {
	st := testStore(t, 4)
	srv := testServer(t, st)

	body := "# add two vertices and wire them in\nv 2\n+ 600 0\n+ 601 1 3\n- 0 1\n"
	resp, err := http.Post(srv.URL+"/v1/mutate", "text/plain", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var mres MutateResponse
	err = json.NewDecoder(resp.Body).Decode(&mres)
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted || err != nil {
		t.Fatalf("mutate status %d err %v", resp.StatusCode, err)
	}
	if !mres.Queued || mres.Adds != 2 || mres.Removes != 1 || mres.Vertices != 2 {
		t.Fatalf("mutate body %+v", mres)
	}
	if err := st.Quiesce(); err != nil {
		// {0,1} may legitimately be absent in the generated graph; only a
		// rejected-batch error is acceptable here.
		if !strings.Contains(err.Error(), "absent edge") {
			t.Fatal(err)
		}
	}

	resp, err = http.Post(srv.URL+"/v1/resize?k=6", "text/plain", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("resize status %d", resp.StatusCode)
	}
	if err := st.Quiesce(); err != nil && !strings.Contains(err.Error(), "absent edge") {
		t.Fatal(err)
	}
	if got := st.Snapshot().K; got != 6 {
		t.Fatalf("k after resize = %d, want 6", got)
	}

	for _, bad := range []string{"/resize", "/resize?k=0", "/resize?k=x"} {
		r, err := http.Post(srv.URL+prefix+bad, "text/plain", nil)
		if err != nil {
			t.Fatal(err)
		}
		r.Body.Close()
		if r.StatusCode != http.StatusBadRequest {
			t.Fatalf("%s%s status %d, want 400", prefix, bad, r.StatusCode)
		}
	}
	r, err := http.Post(srv.URL+prefix+"/mutate", "text/plain", strings.NewReader("bogus 1 2\n"))
	if err != nil {
		t.Fatal(err)
	}
	r.Body.Close()
	if r.StatusCode != http.StatusBadRequest {
		t.Fatalf("%s bad mutate status %d, want 400", prefix, r.StatusCode)
	}
}

func TestParseMutation(t *testing.T) {
	mut, err := ParseMutation(strings.NewReader("v 3\n+ 1 2\n+ 2 3 5\n- 4 5\n\n# comment\n"))
	if err != nil {
		t.Fatal(err)
	}
	if mut.NewVertices != 3 || len(mut.NewEdges) != 2 || len(mut.RemovedEdges) != 1 {
		t.Fatalf("parsed %+v", mut)
	}
	if mut.NewEdges[0].Weight != 2 || mut.NewEdges[1].Weight != 5 {
		t.Fatalf("weights %d,%d", mut.NewEdges[0].Weight, mut.NewEdges[1].Weight)
	}
	for _, bad := range []string{"+ 1\n", "- 1\n", "v x\n", "v -1\n", "v 999999999999\n", "v 8000000\nv 8000000\n", "+ a b\n", "+ 1 2 0\n", "? 1 2\n"} {
		if _, err := ParseMutation(strings.NewReader(bad)); err == nil {
			t.Fatalf("ParseMutation(%q) accepted", bad)
		}
	}
}

// parseMutationOracle is the line-scanner parser ParseMutation replaced,
// kept verbatim: FuzzParseMutation holds the one-pass parser to its
// accepts, refusals, mutations and error text.
func parseMutationOracle(r io.Reader) (*graph.Mutation, error) {
	mut := &graph.Mutation{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<16), 1<<22)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		fields := strings.Fields(sc.Text())
		if len(fields) == 0 || strings.HasPrefix(fields[0], "#") {
			continue
		}
		switch fields[0] {
		case "+":
			if len(fields) < 3 {
				return nil, fmt.Errorf("line %d: want '+ u v [w]'", lineNo)
			}
			u, err1 := strconv.ParseInt(fields[1], 10, 32)
			v, err2 := strconv.ParseInt(fields[2], 10, 32)
			if err1 != nil || err2 != nil {
				return nil, fmt.Errorf("line %d: bad endpoints", lineNo)
			}
			weight := int64(2)
			if len(fields) > 3 {
				var err error
				weight, err = strconv.ParseInt(fields[3], 10, 32)
				if err != nil || weight < 1 {
					return nil, fmt.Errorf("line %d: bad weight %q", lineNo, fields[3])
				}
			}
			mut.NewEdges = append(mut.NewEdges, graph.WeightedEdgeRecord{
				U: graph.VertexID(u), V: graph.VertexID(v), Weight: int32(weight)})
		case "-":
			if len(fields) != 3 {
				return nil, fmt.Errorf("line %d: want '- u v'", lineNo)
			}
			u, err1 := strconv.ParseInt(fields[1], 10, 32)
			v, err2 := strconv.ParseInt(fields[2], 10, 32)
			if err1 != nil || err2 != nil {
				return nil, fmt.Errorf("line %d: bad endpoints", lineNo)
			}
			mut.RemovedEdges = append(mut.RemovedEdges, graph.Edge{From: graph.VertexID(u), To: graph.VertexID(v)})
		case "v":
			if len(fields) != 2 {
				return nil, fmt.Errorf("line %d: want 'v n'", lineNo)
			}
			n, err := strconv.Atoi(fields[1])
			if err != nil || n < 0 || n > graph.MaxVertices || mut.NewVertices > graph.MaxVertices-n {
				return nil, fmt.Errorf("line %d: bad vertex count %q", lineNo, fields[1])
			}
			mut.NewVertices += n
		default:
			return nil, fmt.Errorf("line %d: unknown op %q", lineNo, fields[0])
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return mut, nil
}

// checkParseMutation fails unless ParseMutation and the oracle agree on
// body: both refuse it with the same text, or both accept it as the same
// mutation.
func checkParseMutation(t *testing.T, body string) {
	t.Helper()
	want, wantErr := parseMutationOracle(strings.NewReader(body))
	got, err := ParseMutation(strings.NewReader(body))
	switch {
	case (err == nil) != (wantErr == nil):
		t.Fatalf("ParseMutation(%q): error %v, oracle %v", body, err, wantErr)
	case err != nil && err.Error() != wantErr.Error():
		t.Fatalf("ParseMutation(%q): error %q, oracle %q", body, err, wantErr)
	case !reflect.DeepEqual(got, want):
		t.Fatalf("ParseMutation(%q) = %+v, oracle %+v", body, got, want)
	}
}

// The bodies the fast line must hand to the general rules, and the line
// bound at its edges, parse exactly as the line scanner parsed them.
func TestParseMutationMatchesOracle(t *testing.T) {
	long := strings.Repeat(" ", maxMutateLine-len("+ 1 2"))
	for _, body := range []string{
		"", "\n", "+ 1 2", "+ 1 2\n", "+ 1 2\r\n", "+ 0 0\n", "+ 007 1\n",
		"+ 999999999 1\n", "+ 1000000000 1\n", "+ 2147483647 1\n", "+ 2147483648 1\n",
		"+ -1 2\n", "+ +1 2\n", "+  1 2\n", "+ 1  2\n", "+ 1 2 \n", " + 1 2\n", "+\t1\t2\n",
		"+ 1 2 3\n", "+ 1 2 3 junk\n", "+ 1 2 0\n", "+ 1 2x\n", "+1 2\n", "+ 1\n", "+ 1 \n",
		"+ 1 2\n# c\n\nv 2\n- 3 4\n+ 5 6 7\n", "v 1\n+ 50000 7\n", "+ 1 2\nbogus\n",
		"+ 1\u00a02\n", "+ 1 2\u0085\n", "- 1 2 3\n", "v 8000000\nv 8000000\n",
		long + "+ 1 2\n", long + " + 1 2\n", "+ 1 2\n" + long + " + 1 2",
		"+ 1 2\n" + long + "  + 1 2", long + "  + 1 2\n+ 3 4\n",
		long[1:] + "+ 1 2\n+ 3 4\n", "+ 3 4\n" + long[1:] + "+ 1 2",
	} {
		checkParseMutation(t, body)
	}
}

// FuzzParseMutation holds the one-pass parser to the line scanner it
// replaced on arbitrary bodies.
func FuzzParseMutation(f *testing.F) {
	for _, seed := range []string{
		"+ 1 2\n+ 3 4\n", "v 3\n+ 1 2\n+ 2 3 5\n- 4 5\n\n# comment\n", "+ 01 2\r\n+ 1 2",
		"+ 1234567890 2\n", "+ 1 2 3 4\n", "? 1 2\n", "v 1\n+ 50000 7\n+ 50000 8\n",
		"+ 1\t2\n+ -0 +0\n", "\n\n+ 1 2 x\n",
	} {
		f.Add(seed)
	}
	f.Fuzz(checkParseMutation)
}

// A body over MaxMutateBody is refused with 413 and a stable code before
// anything reaches the store.
func TestMutateBodyTooLarge(t *testing.T) {
	st := testStore(t, 4)
	srv := testServer(t, st)
	line := "+ 1 2\n"
	body := strings.Repeat(line, MaxMutateBody/len(line)+1)[:MaxMutateBody+1]
	resp, err := http.Post(srv.URL+prefix+"/mutate", "text/plain", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var eb ErrorBody
	if err := json.NewDecoder(resp.Body).Decode(&eb); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusRequestEntityTooLarge || eb.Code != "body_too_large" {
		t.Fatalf("oversized body: status %d %+v, want 413 body_too_large", resp.StatusCode, eb)
	}
	if err := st.Quiesce(); err != nil {
		t.Fatal(err)
	}
	for name, ten := range st.Tenants() {
		if ten.Submitted != 0 {
			t.Fatalf("tenant %q: %d batches submitted by a refused body", name, ten.Submitted)
		}
	}
	if got := st.Summary().AppliedBatches; got != 0 {
		t.Fatalf("%d batches applied after a refused body", got)
	}
}

// One serve-write batch, 20 canonical add lines, through ParseMutation and
// through the line scanner it replaced.
func BenchmarkParseMutation(b *testing.B) {
	var sb strings.Builder
	for i := 0; i < 20; i++ {
		fmt.Fprintf(&sb, "+ %d %d\n", (i*7919)%50000, (i*104729+1)%50000)
	}
	body := sb.String()
	for _, p := range []struct {
		name  string
		parse func(io.Reader) (*graph.Mutation, error)
	}{{"onepass", ParseMutation}, {"linescanner", parseMutationOracle}} {
		b.Run(p.name, func(b *testing.B) {
			b.SetBytes(int64(len(body)))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := p.parse(strings.NewReader(body)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// Every HTTP error path must report the right status code and leave the
// store untouched: same snapshot version, batch counts, and k.
func TestHTTPErrorPathsLeaveStoreUntouched(t *testing.T) {
	st := testStore(t, 4)
	srv := testServer(t, st)
	if err := st.Quiesce(); err != nil {
		t.Fatal(err)
	}
	before := st.Snapshot()
	beforeCtr := st.Metrics().Counters()

	cases := []struct {
		method, path, body string
		wantStatus         int
	}{
		// /resize: malformed, out-of-range, and unchanged k.
		{"POST", "/resize", "", http.StatusBadRequest},
		{"POST", "/resize?k=0", "", http.StatusBadRequest},
		{"POST", "/resize?k=-3", "", http.StatusBadRequest},
		{"POST", "/resize?k=abc", "", http.StatusBadRequest},
		{"POST", "/resize?k=4", "", http.StatusBadRequest}, // unchanged
		// /mutate: malformed bodies.
		{"POST", "/mutate", "bogus 1 2\n", http.StatusBadRequest},
		{"POST", "/mutate", "+ 1\n", http.StatusBadRequest},
		{"POST", "/mutate", "+ a b\n", http.StatusBadRequest},
		{"POST", "/mutate", "+ 1 2 -5\n", http.StatusBadRequest},
		{"POST", "/mutate", "- 1\n", http.StatusBadRequest},
		{"POST", "/mutate", "v notanumber\n", http.StatusBadRequest},
		{"POST", "/mutate", "{\"json\": \"not the protocol\"}", http.StatusBadRequest},
		// /lookup: malformed and unknown vertices.
		{"GET", "/lookup?v=junk", "", http.StatusBadRequest},
		{"GET", "/lookup?v=999999", "", http.StatusNotFound},
		{"GET", "/lookup?v=-1", "", http.StatusNotFound},
		// /watch: malformed cursor and limit.
		{"GET", "/watch?from_seq=junk", "", http.StatusBadRequest},
		{"GET", "/watch?limit=-2", "", http.StatusBadRequest},
	}
	for _, tc := range cases {
		req, err := http.NewRequest(tc.method, srv.URL+prefix+tc.path, strings.NewReader(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != tc.wantStatus {
			t.Fatalf("%s %s%s: status %d, want %d", tc.method, prefix, tc.path, resp.StatusCode, tc.wantStatus)
		}
	}

	if err := st.Quiesce(); err != nil {
		t.Fatal(err)
	}
	after := st.Snapshot()
	afterCtr := st.Metrics().Counters()
	if after.Version != before.Version || after.K != before.K ||
		after.AppliedBatches != before.AppliedBatches || len(after.Labels) != len(before.Labels) {
		t.Fatalf("error paths mutated the store: %+v -> %+v", before, after)
	}
	if afterCtr["BatchesApplied"] != beforeCtr["BatchesApplied"] ||
		afterCtr["BatchesRejected"] != beforeCtr["BatchesRejected"] ||
		afterCtr["ElasticResizes"] != beforeCtr["ElasticResizes"] {
		t.Fatalf("error paths reached the maintenance plane: %v -> %v", beforeCtr, afterCtr)
	}
}

// Every response — success and error alike — must carry
// Content-Type: application/json and, on errors, the shared envelope.
func TestHTTPBodiesAreJSON(t *testing.T) {
	st := testStore(t, 4)
	srv := testServer(t, st)
	cases := []struct {
		method, path, body string
		wantErr            bool
	}{
		{"GET", "/healthz", "", false},
		{"GET", "/lookup?v=5", "", false},
		{"GET", "/stats", "", false},
		{"GET", "/lookup?v=abc", "", true},
		{"GET", "/lookup?v=99999999", "", true},
		{"POST", "/mutate", "bogus 1 2\n", true},
		{"POST", "/resize?k=0", "", true},
		{"POST", "/resize?k=4", "", true}, // unchanged k
		{"POST", "/promote", "", true},    // not a follower
		{"GET", "/replicate", "", true},   // not durable
	}
	for _, tc := range cases {
		req, err := http.NewRequest(tc.method, srv.URL+prefix+tc.path, strings.NewReader(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
			t.Fatalf("%s %s%s: Content-Type %q", tc.method, prefix, tc.path, ct)
		}
		if !tc.wantErr {
			resp.Body.Close()
			continue
		}
		var body ErrorBody
		err = json.NewDecoder(resp.Body).Decode(&body)
		resp.Body.Close()
		if err != nil || body.Error == "" {
			t.Fatalf("%s %s%s: error body not {\"error\": msg}: %v", tc.method, prefix, tc.path, err)
		}
	}
}

// A tenant past its token-bucket quota gets 429 with the stable
// machine-readable code, an honest Retry-After header, and per-tenant
// accounting in /stats; other tenants are unaffected.
func TestHTTPQuotaRejection(t *testing.T) {
	st := testStoreCfg(t, serve.Config{Options: testOpts(4),
		Quota: serve.QuotaConfig{Rate: 0.001, Burst: 1}})
	srv := testServer(t, st)

	mutate := func(tenant string) *http.Response {
		req, err := http.NewRequest("POST", srv.URL+"/v1/mutate", strings.NewReader("+ 1 2\n"))
		if err != nil {
			t.Fatal(err)
		}
		if tenant != "" {
			req.Header.Set("X-Tenant", tenant)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		return resp
	}

	if resp := mutate("alpha"); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("first alpha mutate status %d, want 202", resp.StatusCode)
	} else {
		resp.Body.Close()
	}
	resp := mutate("alpha") // burst of 1 spent, refill ~17 min away
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("second alpha mutate status %d, want 429", resp.StatusCode)
	}
	if ra := resp.Header.Get("Retry-After"); ra == "" {
		t.Fatal("429 without Retry-After header")
	} else if secs, err := strconv.Atoi(ra); err != nil || secs < 1 {
		t.Fatalf("Retry-After %q, want whole seconds >= 1", ra)
	}
	var body ErrorBody
	err := json.NewDecoder(resp.Body).Decode(&body)
	resp.Body.Close()
	if err != nil || body.Code != "quota_exceeded" || body.Error == "" {
		t.Fatalf("429 body = %+v, err %v; want code quota_exceeded", body, err)
	}

	// A different tenant has its own bucket and sails through.
	if resp := mutate("beta"); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("beta mutate status %d, want 202", resp.StatusCode)
	} else {
		resp.Body.Close()
	}

	r, err := http.Get(srv.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	var stats StatsResponse
	err = json.NewDecoder(r.Body).Decode(&stats)
	r.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	alpha := stats.Tenants["alpha"]
	if alpha.Submitted != 1 || alpha.QuotaRejected != 1 {
		t.Fatalf("alpha stats %+v, want submitted=1 quota_rejected=1", alpha)
	}
	if beta := stats.Tenants["beta"]; beta.Submitted != 1 || beta.QuotaRejected != 0 {
		t.Fatalf("beta stats %+v, want submitted=1 quota_rejected=0", beta)
	}
	if stats.Counters["QuotaRejections"] != 1 {
		t.Fatalf("QuotaRejections = %d, want 1", stats.Counters["QuotaRejections"])
	}
}

// While the store is overloaded, /resize is shed with 503 + Retry-After
// and the shed is counted; lookups and mutations keep flowing.
func TestHTTPResizeShedUnderOverload(t *testing.T) {
	st := testStoreCfg(t, serve.Config{Options: testOpts(4),
		Overload: serve.OverloadConfig{LookupRate: 1, Window: 5 * time.Millisecond}})
	srv := testServer(t, st)

	// Hammer lookups until the EWMA detector trips (well above 1/sec).
	deadline := time.Now().Add(5 * time.Second)
	for !st.Overloaded() {
		if time.Now().After(deadline) {
			t.Fatal("overload detector never tripped")
		}
		for v := 0; v < 500; v++ {
			st.Lookup(graph.VertexID(v))
		}
	}

	resp, err := http.Post(srv.URL+"/v1/resize?k=6", "text/plain", nil)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("overloaded resize status %d, want 503", resp.StatusCode)
	}
	if ra := resp.Header.Get("Retry-After"); ra == "" {
		t.Fatal("shed resize without Retry-After header")
	}
	var body ErrorBody
	err = json.NewDecoder(resp.Body).Decode(&body)
	resp.Body.Close()
	if err != nil || body.Code != "overloaded" {
		t.Fatalf("shed body code = %q, err %v; want overloaded", body.Code, err)
	}
	if got := st.Counters().ShedRequests.Load(); got < 1 {
		t.Fatalf("ShedRequests = %d, want >= 1", got)
	}

	// Mutations still flow while overloaded.
	r, err := http.Post(srv.URL+"/v1/mutate", "text/plain", strings.NewReader("v 1\n"))
	if err != nil {
		t.Fatal(err)
	}
	r.Body.Close()
	if r.StatusCode != http.StatusAccepted {
		t.Fatalf("mutate while overloaded status %d, want 202", r.StatusCode)
	}
}

// After an injected storage fault the daemon fails stop: /healthz flips
// to 503 {"status":"degraded"}, writes refuse with code "degraded", and
// lookups keep serving the last applied state.
func TestHTTPDegradedAfterStorageFault(t *testing.T) {
	cfg := serve.Config{Options: testOpts(4),
		Durability: serve.DurabilityConfig{Fsync: wal.SyncNever}}
	st, err := serve.BootstrapDurable(t.TempDir(), gen.WattsStrogatz(600, 8, 0.2, 7), cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if err := st.Quiesce(); err != nil {
		t.Fatal(err)
	}
	srv := testServer(t, st)

	restore := wal.InjectFaults(func(*os.File, []byte) (int, error) {
		return 0, errors.New("injected: disk gone")
	}, nil)
	defer restore()

	// The faulted write happens on the coordinator after the 202; poll
	// until the fail-stop transition lands.
	r, err := http.Post(srv.URL+"/v1/mutate", "text/plain", strings.NewReader("v 1\n"))
	if err != nil {
		t.Fatal(err)
	}
	r.Body.Close()
	if r.StatusCode != http.StatusAccepted {
		t.Fatalf("mutate status %d, want 202", r.StatusCode)
	}
	deadline := time.Now().Add(5 * time.Second)
	for !st.Degraded() {
		if time.Now().After(deadline) {
			t.Fatal("store never degraded after injected journal fault")
		}
		time.Sleep(time.Millisecond)
	}

	resp, err := http.Get(srv.URL + prefix + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("degraded %s/healthz status %d, want 503", prefix, resp.StatusCode)
	}
	var health HealthResponse
	err = json.NewDecoder(resp.Body).Decode(&health)
	resp.Body.Close()
	if err != nil || health.Status != "degraded" {
		t.Fatalf("%s/healthz body status = %q, err %v; want degraded", prefix, health.Status, err)
	}

	for _, tc := range []struct{ path, body string }{
		{"/v1/mutate", "v 1\n"},
		{"/v1/resize?k=6", ""},
	} {
		resp, err := http.Post(srv.URL+tc.path, "text/plain", strings.NewReader(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		var body ErrorBody
		derr := json.NewDecoder(resp.Body).Decode(&body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusServiceUnavailable || derr != nil || body.Code != "degraded" {
			t.Fatalf("POST %s while degraded: status %d code %q err %v; want 503 degraded",
				tc.path, resp.StatusCode, body.Code, derr)
		}
	}

	// The read path is unaffected.
	lr, err := http.Get(srv.URL + "/v1/lookup?v=5")
	if err != nil {
		t.Fatal(err)
	}
	lr.Body.Close()
	if lr.StatusCode != http.StatusOK {
		t.Fatalf("lookup while degraded status %d, want 200", lr.StatusCode)
	}
}

// The /stats payload must expose the durability counters and flag.
func TestHTTPStatsDurabilityFields(t *testing.T) {
	st := testStore(t, 4)
	srv := testServer(t, st)
	resp, err := http.Get(srv.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var stats map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	if durable, ok := stats["durable"].(bool); !ok || durable {
		t.Fatalf("in-memory store durable flag = %v", stats["durable"])
	}
	// The documented field names are a contract: assert the exact keys.
	for _, field := range []string{"vertices", "k", "version", "epoch", "applied", "cut",
		"cut_weight", "total_weight", "cut_by_partition", "durable",
		"journal_group_depth", "counters", "degraded", "overloaded", "drain_rate",
		"lookup_rate", "tenants", "delta_floor", "delta_next", "role", "applied_seq", "leader_seq"} {
		if _, ok := stats[field]; !ok {
			t.Fatalf("stats missing %q: %v", field, stats)
		}
	}
	ctr, ok := stats["counters"].(map[string]any)
	if !ok {
		t.Fatalf("counters missing: %v", stats)
	}
	for _, field := range []string{"JournalAppends", "JournalBytes", "JournalSyncs", "Checkpoints",
		"ReplayedRecords", "DeltasPublished", "WatchStreams",
		"WatchStreamsTotal"} {
		if _, ok := ctr[field]; !ok {
			t.Fatalf("counters missing %s: %v", field, ctr)
		}
	}
}

// readWatch drains one finite watch stream (limit set) into frames.
func readWatch(t *testing.T, url string) (serve.WatchFrame, []*serve.Delta) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("watch status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/octet-stream" {
		t.Fatalf("watch Content-Type %q", ct)
	}
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	var handshake serve.WatchFrame
	var deltas []*serve.Delta
	first := true
	for len(raw) > 0 {
		f, n, err := serve.DecodeWatchFrame(raw)
		if err != nil {
			t.Fatalf("decode frame: %v", err)
		}
		raw = raw[n:]
		if first {
			if f.Kind != serve.WatchHandshake {
				t.Fatalf("first frame kind %d, want handshake", f.Kind)
			}
			handshake = f
			first = false
			continue
		}
		if f.Kind == serve.WatchDelta {
			d, err := serve.DecodeDelta(f.Delta)
			if err != nil {
				t.Fatal(err)
			}
			deltas = append(deltas, d)
		}
	}
	if first {
		t.Fatal("watch stream had no handshake")
	}
	return handshake, deltas
}

// A consumer applying every delta from sequence 0 must converge to the
// exact label map the lookup path serves — across growth, removal,
// resize, and restabilization churn.
func TestWatchConvergesToLookupTruth(t *testing.T) {
	st := testStoreCfg(t, serve.Config{Options: testOpts(4), DegradeFactor: 1.01})
	srv := testServer(t, st)

	// Churn: growth batches plus a resize, then quiesce.
	for b := 0; b < 8; b++ {
		body := strings.Builder{}
		body.WriteString("v 5\n")
		for i := 0; i < 30; i++ {
			u := (b*31 + i*7) % 600
			v := (b*17 + i*13) % 600
			if u != v {
				body.WriteString("+ " + strconv.Itoa(u) + " " + strconv.Itoa(v) + " 2\n")
			}
		}
		r, err := http.Post(srv.URL+"/v1/mutate", "text/plain", strings.NewReader(body.String()))
		if err != nil {
			t.Fatal(err)
		}
		r.Body.Close()
		if r.StatusCode != http.StatusAccepted {
			t.Fatalf("churn mutate status %d", r.StatusCode)
		}
	}
	r, err := http.Post(srv.URL+"/v1/resize?k=6", "text/plain", nil)
	if err != nil {
		t.Fatal(err)
	}
	r.Body.Close()
	if err := st.Quiesce(); err != nil {
		t.Fatal(err)
	}

	_, next := st.DeltaBounds()
	limit := int(next - 1)
	handshake, deltas := readWatch(t, srv.URL+"/v1/watch?from_seq=0&limit="+strconv.Itoa(limit))
	if handshake.Floor != 1 {
		t.Fatalf("handshake floor %d, want 1 (nothing compacted)", handshake.Floor)
	}
	if len(deltas) != limit {
		t.Fatalf("got %d deltas, want %d", len(deltas), limit)
	}

	var labels []int32
	var k int
	for i, d := range deltas {
		if d.Seq != uint64(i+1) {
			t.Fatalf("delta %d has seq %d, want dense sequences from 1", i, d.Seq)
		}
		labels, err = d.Apply(labels)
		if err != nil {
			t.Fatal(err)
		}
		if d.K > 0 {
			k = d.K
		}
	}
	snap := st.Snapshot()
	if k != snap.K {
		t.Fatalf("feed k = %d, lookup k = %d", k, snap.K)
	}
	if len(labels) != len(snap.Labels) {
		t.Fatalf("feed has %d vertices, lookup %d", len(labels), len(snap.Labels))
	}
	for v := range snap.Labels {
		if labels[v] != snap.Labels[v] {
			t.Fatalf("feed label[%d] = %d, lookup = %d", v, labels[v], snap.Labels[v])
		}
	}
	// The final delta's counters must match the snapshot's integers.
	last := deltas[len(deltas)-1]
	if last.Cross != snap.CutWeight || last.Total != snap.TotalWeight {
		t.Fatalf("final delta counters cross=%d total=%d, snapshot %d/%d",
			last.Cross, last.Total, snap.CutWeight, snap.TotalWeight)
	}
}

// A cursor below the compaction floor gets 410 {"code":"compacted"}; a
// cursor from a later incarnation gets 410 {"code":"reset"}; the
// /v1/lookup resync dump then pairs with a servable cursor.
func TestWatchGoneAndResync(t *testing.T) {
	st := testStoreCfg(t, serve.Config{Options: testOpts(4), DeltaRing: 4})
	srv := testServer(t, st)

	// Push enough deltas through the 4-slot ring to compact seq 1 away.
	for b := 0; b < 12; b++ {
		r, err := http.Post(srv.URL+"/v1/mutate", "text/plain", strings.NewReader("v 1\n"))
		if err != nil {
			t.Fatal(err)
		}
		r.Body.Close()
	}
	if err := st.Quiesce(); err != nil {
		t.Fatal(err)
	}
	floor, next := st.DeltaBounds()
	if floor <= 1 {
		t.Fatalf("floor %d, want > 1 after churn through a 4-slot ring", floor)
	}

	gone := func(url, wantCode string) {
		t.Helper()
		resp, err := http.Get(url)
		if err != nil {
			t.Fatal(err)
		}
		var body ErrorBody
		derr := json.NewDecoder(resp.Body).Decode(&body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusGone || derr != nil || body.Code != wantCode {
			t.Fatalf("%s: status %d code %q err %v; want 410 %s", url, resp.StatusCode, body.Code, derr, wantCode)
		}
	}
	gone(srv.URL+"/v1/watch?from_seq=0", "compacted")
	gone(srv.URL+"/v1/watch?from_seq="+strconv.FormatUint(next+5, 10), "reset")

	// The documented recovery: full resync, then watch from its cursor.
	resp, err := http.Get(srv.URL + "/v1/lookup")
	if err != nil {
		t.Fatal(err)
	}
	var dump ResyncResponse
	err = json.NewDecoder(resp.Body).Decode(&dump)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	snap := st.Snapshot()
	if dump.K != snap.K || len(dump.Labels) != len(snap.Labels) {
		t.Fatalf("resync dump k=%d n=%d, want k=%d n=%d", dump.K, len(dump.Labels), snap.K, len(snap.Labels))
	}

	// One more batch so the resumed stream has something finite to hand
	// over, then the resumed cursor must be servable (200, not 410) and
	// the overlay must land on the resync labels cleanly.
	r2, err := http.Post(srv.URL+"/v1/mutate", "text/plain", strings.NewReader("v 1\n"))
	if err != nil {
		t.Fatal(err)
	}
	r2.Body.Close()
	if err := st.Quiesce(); err != nil {
		t.Fatal(err)
	}
	_, next2 := st.DeltaBounds()
	limit := next2 - 1 - dump.FromSeq
	if limit == 0 {
		t.Fatal("churn batch published no delta")
	}
	_, deltas := readWatch(t, srv.URL+"/v1/watch?from_seq="+strconv.FormatUint(dump.FromSeq, 10)+
		"&limit="+strconv.FormatUint(limit, 10))
	labels := append([]int32(nil), dump.Labels...)
	for _, d := range deltas {
		labels, err = d.Apply(labels)
		if err != nil {
			t.Fatal(err)
		}
	}
	final := st.Snapshot()
	if len(labels) != len(final.Labels) {
		t.Fatalf("resync+feed has %d vertices, lookup %d", len(labels), len(final.Labels))
	}
	for v := range final.Labels {
		if labels[v] != final.Labels[v] {
			t.Fatalf("resync+feed label[%d] = %d, lookup = %d", v, labels[v], final.Labels[v])
		}
	}
}

// WatchStreamsTotal must count accepted streams; WatchStreams is a gauge
// of open streams and must return to its prior value once the stream
// closes.
func TestWatchStreamCounter(t *testing.T) {
	st := testStore(t, 4)
	srv := testServer(t, st)
	if err := st.Quiesce(); err != nil {
		t.Fatal(err)
	}
	open := st.Counters().WatchStreams.Load()
	total := st.Counters().WatchStreamsTotal.Load()
	_, next := st.DeltaBounds()
	readWatch(t, srv.URL+"/v1/watch?from_seq=0&limit="+strconv.FormatUint(next-1, 10))
	if got := st.Counters().WatchStreamsTotal.Load(); got != total+1 {
		t.Fatalf("WatchStreamsTotal %d -> %d, want +1", total, got)
	}
	// The handler decrements the gauge on return, which races the body
	// read completing client-side; poll briefly.
	deadline := time.Now().Add(2 * time.Second)
	for st.Counters().WatchStreams.Load() != open {
		if time.Now().After(deadline) {
			t.Fatalf("WatchStreams gauge stuck at %d, want %d after close",
				st.Counters().WatchStreams.Load(), open)
		}
		time.Sleep(time.Millisecond)
	}
}

// An idle caught-up stream must emit heartbeats carrying the bounds.
func TestWatchHeartbeat(t *testing.T) {
	st := testStore(t, 4)
	if err := st.Quiesce(); err != nil {
		t.Fatal(err)
	}
	as := NewServer(st, nil)
	as.Heartbeat = 10 * time.Millisecond
	srv := httptest.NewServer(as.Mux())
	defer srv.Close()

	floor, next := st.DeltaBounds()
	resp, err := http.Get(srv.URL + "/v1/watch?from_seq=" + strconv.FormatUint(next-1, 10))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("watch status %d", resp.StatusCode)
	}
	// Read the handshake and then at least one heartbeat.
	buf := make([]byte, 0, 256)
	chunk := make([]byte, 64)
	var frames []serve.WatchFrame
	deadline := time.Now().Add(5 * time.Second)
	for len(frames) < 2 {
		if time.Now().After(deadline) {
			t.Fatal("no heartbeat within 5s")
		}
		n, rerr := resp.Body.Read(chunk)
		if n > 0 {
			buf = append(buf, chunk[:n]...)
			for {
				f, used, derr := serve.DecodeWatchFrame(buf)
				if derr != nil {
					break
				}
				frames = append(frames, f)
				buf = buf[used:]
			}
		}
		if rerr != nil {
			t.Fatalf("stream ended early: %v (frames %d)", rerr, len(frames))
		}
	}
	if frames[0].Kind != serve.WatchHandshake || frames[1].Kind != serve.WatchHeartbeat {
		t.Fatalf("frame kinds %d, %d; want handshake, heartbeat", frames[0].Kind, frames[1].Kind)
	}
	if frames[1].Floor != floor || frames[1].Next != next {
		t.Fatalf("heartbeat bounds [%d,%d), want [%d,%d)", frames[1].Floor, frames[1].Next, floor, next)
	}
}
