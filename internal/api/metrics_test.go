package api

import (
	"encoding/json"
	"io"
	"net/http"
	"os"
	"reflect"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
)

// TestMetricsExposition drives traffic through the mux and checks the
// /v1/metrics exposition: parseable lines, the HTTP middleware series,
// the serve-counter series, non-empty pipeline stage histograms, and no
// duplicate series names.
func TestMetricsExposition(t *testing.T) {
	st := testStore(t, 4)
	srv := testServer(t, st)

	// Churn: a lookup, a mutate, a failed lookup (4xx class).
	for _, url := range []string{"/v1/lookup?v=1", "/v1/lookup?v=notanumber", "/v1/stats"} {
		resp, err := http.Get(srv.URL + url)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}
	resp, err := http.Post(srv.URL+"/v1/mutate", "text/plain", strings.NewReader("+ 0 599 3\n"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if err := st.Quiesce(); err != nil {
		t.Fatal(err)
	}

	resp, err = http.Get(srv.URL + "/v1/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("metrics status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != PromContentType {
		t.Fatalf("metrics Content-Type %q", ct)
	}
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	out := string(raw)

	for _, want := range []string{
		`spinner_http_request_duration_seconds_count{route="lookup",status="2xx"} 1`,
		`spinner_http_request_duration_seconds_count{route="lookup",status="4xx"} 1`,
		`spinner_http_request_duration_seconds_count{route="mutate",status="2xx"} 1`,
		"# TYPE spinner_stage_duration_seconds histogram",
		"# TYPE spinner_lookups_total counter",
		"spinner_batches_applied_total",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q", want)
		}
	}
	// The mutate went through the pipeline: drain and apply stages must
	// have recorded at least one turn.
	for _, stage := range []string{"drain", "apply"} {
		line := `spinner_stage_duration_seconds_count{stage="` + stage + `"}`
		idx := strings.Index(out, line)
		if idx < 0 {
			t.Fatalf("exposition missing %s stage count", stage)
		}
		rest := out[idx+len(line)+1:]
		if strings.HasPrefix(rest, "0\n") {
			t.Errorf("stage %s histogram empty after mutate", stage)
		}
	}
	// Legacy unversioned path must not exist for metrics.
	r2, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	r2.Body.Close()
	if r2.StatusCode != http.StatusNotFound {
		t.Fatalf("legacy /metrics status %d, want 404", r2.StatusCode)
	}
	// Exposition hygiene: every non-comment line is "name{labels} value"
	// and no series repeats.
	seen := map[string]bool{}
	for _, line := range strings.Split(out, "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		sp := strings.LastIndex(line, " ")
		if sp <= 0 {
			t.Fatalf("unparseable line %q", line)
		}
		series := line[:sp]
		if seen[series] {
			t.Fatalf("duplicate series %q", series)
		}
		seen[series] = true
	}
}

// TestStatsLatencySection checks /v1/stats carries headline quantiles
// once histograms have observations.
func TestStatsLatencySection(t *testing.T) {
	st := testStore(t, 4)
	srv := testServer(t, st)
	// Two stats requests: the first may render before any histogram has
	// data; the second must at least see the first's http latency.
	for i := 0; i < 2; i++ {
		resp, err := http.Get(srv.URL + "/v1/stats")
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			continue
		}
		var stats StatsResponse
		if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		sum, ok := stats.Latency["http_request:stats:2xx"]
		if !ok {
			t.Fatalf("latency section missing http_request:stats:2xx: %v", stats.Latency)
		}
		if sum.Count < 1 || sum.P99 <= 0 || sum.Max < sum.P50 {
			t.Fatalf("implausible latency summary %+v", sum)
		}
	}
}

// TestMetricsWireContract pins what a scraper and a /v1/stats reader can
// see of the serve counters: the # HELP/# TYPE lines of /v1/metrics and
// the keys of the /v1/stats "counters" object, and that one counter
// reads the same from its ServeCounters field, under its field name in
// "counters" and under its metric name in the exposition.
// testdata/metrics_contract.golden was recorded at commit 5dbc3e4; a
// diff is an API break. Order is not part of the contract (both
// sections are compared sorted).
func TestMetricsWireContract(t *testing.T) {
	st := testStore(t, 4)
	srv := testServer(t, st)
	get := func(path string) []byte {
		t.Helper()
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d, err %v", path, resp.StatusCode, err)
		}
		return body
	}
	get("/v1/lookup?v=1")
	resp, err := http.Post(srv.URL+"/v1/mutate", "text/plain", strings.NewReader("+ 0 599 3\n"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if err := st.Quiesce(); err != nil {
		t.Fatal(err)
	}
	// Give every field a value no other series can carry, so a metric
	// name is matched to its field by value, from the wire alone.
	fields := reflect.ValueOf(st.Counters()).Elem()
	for i := 0; i < fields.NumField(); i++ {
		fields.Field(i).Addr().Interface().(*atomic.Int64).Add(int64(i+1) << 40)
	}

	var stats struct {
		Counters map[string]int64 `json:"counters"`
	}
	if err := json.Unmarshal(get("/v1/stats"), &stats); err != nil {
		t.Fatal(err)
	}
	var headers []string
	byValue := map[string][]string{} // sample value → unlabelled series carrying it
	for _, line := range strings.Split(string(get("/v1/metrics")), "\n") {
		switch name, value, ok := strings.Cut(line, " "); {
		case strings.HasPrefix(line, "# HELP ") || strings.HasPrefix(line, "# TYPE "):
			headers = append(headers, line)
		case ok && !strings.Contains(name, "{"):
			byValue[value] = append(byValue[value], name)
		}
	}
	sort.Strings(headers)

	var keys []string
	for i := 0; i < fields.NumField(); i++ {
		field := fields.Type().Field(i).Name
		want := fields.Field(i).Addr().Interface().(*atomic.Int64).Load()
		got, ok := stats.Counters[field]
		if !ok || got != want {
			t.Errorf("counters[%q] = %d (present %v), field holds %d", field, got, ok, want)
		}
		names := byValue[strconv.FormatInt(want, 10)]
		if len(names) != 1 {
			t.Errorf("%s = %d is carried by series %v in /v1/metrics, want exactly one", field, want, names)
			continue
		}
		keys = append(keys, field+" "+names[0])
	}
	if len(stats.Counters) != fields.NumField() {
		t.Errorf("counters has %d keys, ServeCounters %d fields", len(stats.Counters), fields.NumField())
	}
	sort.Strings(keys)

	got := "== /v1/metrics: # HELP and # TYPE lines, sorted\n" + strings.Join(headers, "\n") +
		"\n== /v1/stats counters: key, and the series carrying the same value, sorted\n" + strings.Join(keys, "\n") + "\n"
	want, err := os.ReadFile("testdata/metrics_contract.golden")
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Errorf("metrics wire contract changed; got:\n%s", got)
	}
}
