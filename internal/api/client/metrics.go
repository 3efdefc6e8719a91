package client

import (
	"context"
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"
	"strconv"
	"strings"
)

// MetricsText fetches the raw Prometheus exposition from GET /v1/metrics.
// Unlike every other endpoint the body is text, not JSON; error statuses
// still decode the shared envelope.
func (c *Client) MetricsText(ctx context.Context) (string, error) {
	var raw []byte
	err := c.roundTrip(ctx, http.MethodGet, "/v1/metrics", nil, func(resp *http.Response) (err error) {
		raw, err = io.ReadAll(io.LimitReader(resp.Body, 8<<20))
		return err
	})
	return string(raw), err
}

// Sample is one parsed exposition line: a series (name + label set) and
// its value.
type Sample struct {
	Name   string
	Labels map[string]string
	Value  float64
}

// Family groups the samples of one metric family in exposition order.
type Family struct {
	Name    string
	Type    string // "counter" | "gauge" | "histogram" | "untyped"
	Help    string
	Samples []Sample
}

// ParseProm parses Prometheus 0.0.4 text exposition into families, in
// input order. It understands exactly what the server emits — HELP/TYPE
// comments, optional labels with escaped values, float values — which is
// all spinnerctl needs; it is not a general scraper.
func ParseProm(text string) ([]*Family, error) {
	var fams []*Family
	byName := map[string]*Family{}
	family := func(name string) *Family {
		// Histogram sample names carry _bucket/_sum/_count suffixes; fold
		// them into the family that declared the base name.
		base := name
		for _, suf := range []string{"_bucket", "_sum", "_count"} {
			if t := strings.TrimSuffix(name, suf); t != name && byName[t] != nil {
				base = t
				break
			}
		}
		f := byName[base]
		if f == nil {
			f = &Family{Name: base, Type: "untyped"}
			byName[base] = f
			fams = append(fams, f)
		}
		return f
	}
	for lineNo, line := range strings.Split(text, "\n") {
		line = strings.TrimSpace(line)
		if line == "" {
			continue
		}
		if rest, ok := strings.CutPrefix(line, "# HELP "); ok {
			name, help, _ := strings.Cut(rest, " ")
			family(name).Help = help
			continue
		}
		if rest, ok := strings.CutPrefix(line, "# TYPE "); ok {
			name, typ, _ := strings.Cut(rest, " ")
			family(name).Type = typ
			continue
		}
		if strings.HasPrefix(line, "#") {
			continue
		}
		sample, err := parseSample(line)
		if err != nil {
			return nil, fmt.Errorf("client: metrics line %d: %w", lineNo+1, err)
		}
		f := family(sample.Name)
		f.Samples = append(f.Samples, sample)
	}
	return fams, nil
}

func parseSample(line string) (Sample, error) {
	sp := strings.LastIndex(line, " ")
	if sp <= 0 {
		return Sample{}, fmt.Errorf("no value in %q", line)
	}
	series, rawVal := line[:sp], line[sp+1:]
	v, err := strconv.ParseFloat(rawVal, 64)
	if err != nil {
		return Sample{}, fmt.Errorf("bad value %q", rawVal)
	}
	s := Sample{Value: v}
	brace := strings.IndexByte(series, '{')
	if brace < 0 {
		s.Name = series
		return s, nil
	}
	if !strings.HasSuffix(series, "}") {
		return Sample{}, fmt.Errorf("unterminated labels in %q", series)
	}
	s.Name = series[:brace]
	s.Labels = map[string]string{}
	body := series[brace+1 : len(series)-1]
	for len(body) > 0 {
		eq := strings.IndexByte(body, '=')
		if eq < 0 || eq+1 >= len(body) || body[eq+1] != '"' {
			return Sample{}, fmt.Errorf("bad label pair in %q", series)
		}
		key := body[:eq]
		val, rest, err := unquoteLabel(body[eq+2:])
		if err != nil {
			return Sample{}, fmt.Errorf("bad label value in %q: %w", series, err)
		}
		s.Labels[key] = val
		body = strings.TrimPrefix(rest, ",")
	}
	return s, nil
}

// unquoteLabel consumes an escaped label value up to its closing quote,
// returning the decoded value and the remainder after the quote.
func unquoteLabel(s string) (string, string, error) {
	var b strings.Builder
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case '"':
			return b.String(), s[i+1:], nil
		case '\\':
			i++
			if i >= len(s) {
				return "", "", fmt.Errorf("trailing backslash")
			}
			switch s[i] {
			case 'n':
				b.WriteByte('\n')
			default:
				b.WriteByte(s[i])
			}
		default:
			b.WriteByte(s[i])
		}
	}
	return "", "", fmt.Errorf("unterminated quote")
}

// HistQuantile extracts quantile q from a histogram family's cumulative
// buckets, interpolating within the winning bucket. Non-bucket samples
// and samples whose labels (minus "le") differ from match are ignored.
// Returns false when the matching series has no observations.
func HistQuantile(f *Family, match map[string]string, q float64) (float64, bool) {
	type bucket struct {
		le    float64
		count float64
	}
	var buckets []bucket
	for _, s := range f.Samples {
		if s.Name != f.Name+"_bucket" || !labelsMatch(s.Labels, match) {
			continue
		}
		le := s.Labels["le"]
		bound := math.Inf(1)
		if le != "+Inf" {
			v, err := strconv.ParseFloat(le, 64)
			if err != nil {
				continue
			}
			bound = v
		}
		buckets = append(buckets, bucket{le: bound, count: s.Value})
	}
	if len(buckets) == 0 {
		return 0, false
	}
	sort.Slice(buckets, func(i, j int) bool { return buckets[i].le < buckets[j].le })
	total := buckets[len(buckets)-1].count
	if total == 0 {
		return 0, false
	}
	target := q * total
	prevLe, prevCount := 0.0, 0.0
	for _, b := range buckets {
		if b.count >= target {
			if math.IsInf(b.le, 1) {
				return prevLe, true
			}
			if b.count == prevCount {
				return b.le, true
			}
			frac := (target - prevCount) / (b.count - prevCount)
			return prevLe + (b.le-prevLe)*frac, true
		}
		prevLe, prevCount = b.le, b.count
	}
	return prevLe, true
}

// labelsMatch reports whether got equals want ignoring the "le" label.
func labelsMatch(got, want map[string]string) bool {
	n := 0
	for k, v := range got {
		if k == "le" {
			continue
		}
		if want[k] != v {
			return false
		}
		n++
	}
	return n == len(want)
}
