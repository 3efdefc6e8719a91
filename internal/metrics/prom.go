package metrics

import (
	"strconv"
	"strings"
)

// Prometheus text exposition (format 0.0.4), hand-rolled — no dependency.
// Metric names are the stable spinner_* contract documented in the
// spinnerd command doc ("Metrics reference"); renaming one is an API
// break. Histograms are rendered with one cumulative `le` bucket per
// power-of-two octave (a stable boundary set across scrapes), plus _sum
// and _count; the finer sub-bucket resolution backs the quantiles in
// /stats and `spinnerctl metrics`.

// promSecondsExps and promRawExps pick the exposed octave boundaries:
// 2^7ns = 128ns up to 2^34ns ≈ 17.2s for durations, 1 up to 2^20 for raw
// counts (replication lag in records). Observations past the last
// boundary land in +Inf.
var (
	promSecondsExps = expRange(7, 34)
	promRawExps     = expRange(0, 20)
)

func expRange(lo, hi int) []uint64 {
	var out []uint64
	for e := lo; e <= hi; e++ {
		out = append(out, uint64(1)<<e)
	}
	return out
}

// AppendProm renders every registered series in Prometheus text format,
// grouped into families (one # HELP/# TYPE per family, in first-
// registration order).
func (r *Registry) AppendProm(buf []byte) []byte {
	var order []string
	families := make(map[string][]*Series)
	r.Each(func(s *Series) {
		if _, ok := families[s.Name]; !ok {
			order = append(order, s.Name)
		}
		families[s.Name] = append(families[s.Name], s)
	})
	for _, name := range order {
		group := families[name]
		buf = appendHeader(buf, name, group[0].Help, group[0].Kind)
		for _, s := range group {
			switch s.Kind {
			case KindHistogram:
				buf = appendHist(buf, s)
			default:
				buf = appendSeriesName(buf, s.Name, s.Labels)
				if s.GaugeFn != nil {
					buf = strconv.AppendFloat(buf, s.GaugeFn(), 'g', -1, 64)
				} else {
					buf = strconv.AppendInt(buf, s.Int.Load(), 10)
				}
				buf = append(buf, '\n')
			}
		}
	}
	return buf
}

func appendHeader(buf []byte, name, help string, kind Kind) []byte {
	if help != "" {
		buf = append(buf, "# HELP "...)
		buf = append(buf, name...)
		buf = append(buf, ' ')
		buf = append(buf, strings.NewReplacer("\\", `\\`, "\n", `\n`).Replace(help)...)
		buf = append(buf, '\n')
	}
	buf = append(buf, "# TYPE "...)
	buf = append(buf, name...)
	buf = append(buf, ' ')
	buf = append(buf, kind.String()...)
	buf = append(buf, '\n')
	return buf
}

// appendSeriesName writes `name{labels} ` (with the trailing space),
// leaving the value to the caller. extra, when non-empty, is appended as
// a pre-rendered last label (used for `le`).
func appendSeriesName(buf []byte, name string, labels []Label, extra ...Label) []byte {
	buf = append(buf, name...)
	all := labels
	if len(extra) > 0 {
		all = append(append([]Label(nil), labels...), extra...)
	}
	if len(all) > 0 {
		buf = append(buf, '{')
		for i, l := range all {
			if i > 0 {
				buf = append(buf, ',')
			}
			buf = append(buf, l.Key...)
			buf = append(buf, '=', '"')
			buf = append(buf, escapeLabel(l.Value)...)
			buf = append(buf, '"')
		}
		buf = append(buf, '}')
	}
	buf = append(buf, ' ')
	return buf
}

func escapeLabel(v string) string {
	if !strings.ContainsAny(v, "\\\"\n") {
		return v
	}
	return strings.NewReplacer("\\", `\\`, `"`, `\"`, "\n", `\n`).Replace(v)
}

func appendHist(buf []byte, s *Series) []byte {
	snap := s.Hist.Snapshot()
	exps := promSecondsExps
	if s.Unit == UnitNone {
		exps = promRawExps
	}
	for _, bound := range exps {
		le := strconv.FormatFloat(boundValue(bound, s.Unit), 'g', -1, 64)
		buf = appendSeriesName(buf, s.Name+"_bucket", s.Labels, Label{Key: "le", Value: le})
		buf = strconv.AppendInt(buf, snap.CountBelow(bound), 10)
		buf = append(buf, '\n')
	}
	buf = appendSeriesName(buf, s.Name+"_bucket", s.Labels, Label{Key: "le", Value: "+Inf"})
	buf = strconv.AppendInt(buf, snap.Count, 10)
	buf = append(buf, '\n')
	buf = appendSeriesName(buf, s.Name+"_sum", s.Labels)
	buf = strconv.AppendFloat(buf, sumValue(snap.Sum, s.Unit), 'g', -1, 64)
	buf = append(buf, '\n')
	buf = appendSeriesName(buf, s.Name+"_count", s.Labels)
	buf = strconv.AppendInt(buf, snap.Count, 10)
	buf = append(buf, '\n')
	return buf
}

func boundValue(bound uint64, u Unit) float64 {
	if u == UnitSeconds {
		return float64(bound) / 1e9
	}
	return float64(bound)
}

func sumValue(sum int64, u Unit) float64 {
	if u == UnitSeconds {
		return float64(sum) / 1e9
	}
	return float64(sum)
}
