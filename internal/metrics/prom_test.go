package metrics

import (
	"reflect"
	"strconv"
	"strings"
	"testing"
	"time"
)

func TestRegistryGetOrCreate(t *testing.T) {
	r := NewRegistry()
	h1 := r.NewHistogram("spinner_test_seconds", "h", UnitSeconds, Label{"route", "lookup"})
	h2 := r.NewHistogram("spinner_test_seconds", "h", UnitSeconds, Label{"route", "lookup"})
	if h1 != h2 {
		t.Fatal("duplicate registration minted a new histogram")
	}
	h3 := r.NewHistogram("spinner_test_seconds", "h", UnitSeconds, Label{"route", "mutate"})
	if h1 == h3 {
		t.Fatal("distinct label sets shared a histogram")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("kind mismatch did not panic")
		}
	}()
	r.NewGaugeFunc("spinner_test_seconds", "clash", func() float64 { return 0 }, Label{"route", "lookup"})
}

// TestAppendPromExposition checks the hand-rolled writer's structural
// contract: one HELP/TYPE pair per family, cumulative monotone buckets
// ending in +Inf == _count, no duplicate series lines.
func TestAppendPromExposition(t *testing.T) {
	r := NewRegistry()
	h := r.NewHistogram("spinner_req_seconds", "request latency", UnitSeconds, Label{"route", "lookup"})
	h2 := r.NewHistogram("spinner_req_seconds", "request latency", UnitSeconds, Label{"route", "mutate"})
	var c ServeCounters
	r.RegisterCounters(&c)
	r.NewGaugeFunc("spinner_lag_seconds", "computed lag", func() float64 { return 1.5 })
	for i := 0; i < 1000; i++ {
		h.Record(time.Duration(i) * time.Microsecond)
	}
	h2.Record(3 * time.Millisecond)
	c.WatchStreams.Store(7)
	c.Lookups.Add(5)

	out := string(r.AppendProm(nil))
	for _, want := range []string{
		"# TYPE spinner_req_seconds histogram",
		"# TYPE spinner_watch_streams gauge",
		"spinner_watch_streams 7",
		"# TYPE spinner_lookups_total counter",
		"spinner_lookups_total 5",
		"spinner_lag_seconds 1.5",
		`spinner_req_seconds_bucket{route="lookup",le="+Inf"} 1000`,
		`spinner_req_seconds_count{route="lookup"} 1000`,
		`spinner_req_seconds_count{route="mutate"} 1`,
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("exposition missing %q:\n%s", want, out)
		}
	}
	if c := strings.Count(out, "# TYPE spinner_req_seconds histogram"); c != 1 {
		t.Fatalf("family header repeated %d times", c)
	}
	// No duplicate series lines.
	seen := map[string]bool{}
	for _, line := range strings.Split(out, "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		name := strings.SplitN(line, " ", 2)[0]
		if seen[name] {
			t.Fatalf("duplicate series %q", name)
		}
		seen[name] = true
	}
	// Bucket cumulative counts must be monotone for each series.
	var prev int64 = -1
	for _, line := range strings.Split(out, "\n") {
		if !strings.HasPrefix(line, `spinner_req_seconds_bucket{route="lookup"`) {
			continue
		}
		v, err := strconv.ParseInt(line[strings.LastIndex(line, " ")+1:], 10, 64)
		if err != nil {
			t.Fatalf("bad bucket line %q: %v", line, err)
		}
		if v < prev {
			t.Fatalf("non-monotone buckets at %q", line)
		}
		prev = v
	}
}

func TestEscapeLabel(t *testing.T) {
	r := NewRegistry()
	r.NewGaugeFunc("spinner_esc", "", func() float64 { return 1 }, Label{"path", `a"b\c` + "\n"})
	out := string(r.AppendProm(nil))
	if !strings.Contains(out, `path="a\"b\\c\n"`) {
		t.Fatalf("label not escaped: %s", out)
	}
}

// TestCounterTags checks the one declaration: every ServeCounters field
// registers under a unique spinner_-prefixed name with help text.
func TestCounterTags(t *testing.T) {
	var c ServeCounters
	r := NewRegistry()
	r.RegisterCounters(&c)
	registered := 0
	r.Each(func(s *Series) {
		registered++
		if !strings.HasPrefix(s.Name, "spinner_") {
			t.Errorf("%s: metric name %s lacks the spinner_ prefix", s.Field, s.Name)
		}
		if s.Help == "" {
			t.Errorf("%s: no help tag", s.Field)
		}
	})
	// Registration is get-or-create, so a metric name used twice would
	// collapse into one series and show up as a short count.
	if want := reflect.TypeOf(&c).Elem().NumField(); registered != want || len(r.Counters()) != want {
		t.Fatalf("%d series and %d counters keys for %d fields", registered, len(r.Counters()), want)
	}
}
