package metrics

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
)

// Kind classifies a registered metric for exposition.
type Kind int

const (
	KindCounter Kind = iota
	KindGauge
	KindHistogram
)

// String returns the Prometheus TYPE keyword.
func (k Kind) String() string {
	switch k {
	case KindCounter:
		return "counter"
	case KindGauge:
		return "gauge"
	case KindHistogram:
		return "histogram"
	}
	return "untyped"
}

// Unit names the unit a histogram's raw int64 observations are in, so the
// exposition layer can scale them (nanoseconds → seconds) or leave raw
// counts alone.
type Unit int

const (
	// UnitSeconds marks nanosecond observations exposed as seconds.
	UnitSeconds Unit = iota
	// UnitNone marks dimensionless observations exposed raw.
	UnitNone
)

// Label is one metric label pair.
type Label struct{ Key, Value string }

// Series is one registered metric series: a family name, an optional label
// set, and exactly one backing instrument.
type Series struct {
	Name   string
	Help   string
	Kind   Kind
	Unit   Unit
	Labels []Label

	Hist    *Histogram
	GaugeFn func() float64
	// Int backs a counter or gauge held in a ServeCounters field; Field is
	// that field's Go name, its key in the /v1/stats "counters" object.
	Int   *atomic.Int64
	Field string
}

// Registry names every metric of the process: serving subsystems register
// series once at construction and record into the instruments lock-free;
// the exposition layer walks the registry to render /v1/metrics and the
// /v1/stats counters and latency sections.
// Registration is get-or-create on (name, labels): re-registering an
// identical series returns the existing instrument (so rebuilding an API
// server over the same store is idempotent), while re-registering with a
// different kind panics — that is a programming error.
type Registry struct {
	mu     sync.Mutex
	series []*Series
	index  map[string]*Series // seriesKey → series
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{index: make(map[string]*Series)}
}

func seriesKey(name string, labels []Label) string {
	key := name
	for _, l := range labels {
		key += "\x00" + l.Key + "\x01" + l.Value
	}
	return key
}

// register implements the get-or-create contract shared by every
// constructor. Labels are sorted by key for a canonical identity.
func (r *Registry) register(s *Series) *Series {
	sort.SliceStable(s.Labels, func(i, j int) bool { return s.Labels[i].Key < s.Labels[j].Key })
	key := seriesKey(s.Name, s.Labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	if existing, ok := r.index[key]; ok {
		if existing.Kind != s.Kind {
			panic(fmt.Sprintf("metrics: series %s re-registered as %s (was %s)", s.Name, s.Kind, existing.Kind))
		}
		return existing
	}
	r.index[key] = s
	r.series = append(r.series, s)
	return s
}

// NewHistogram registers (or returns) the histogram series name{labels}.
func (r *Registry) NewHistogram(name, help string, unit Unit, labels ...Label) *Histogram {
	s := r.register(&Series{Name: name, Help: help, Kind: KindHistogram, Unit: unit,
		Labels: labels, Hist: &Histogram{}})
	return s.Hist
}

// RegisterCounters registers every field of c as the integer series its
// tags name, reflecting over the struct once; writers keep using the typed
// fields. Registration is get-or-create, so a second struct would never be
// read: call it from one place per registry.
func (r *Registry) RegisterCounters(c *ServeCounters) {
	for _, s := range c.series() {
		r.register(s)
	}
}

// Counters reads every series RegisterCounters registered, keyed by Go
// field name: the /v1/stats "counters" object.
func (r *Registry) Counters() map[string]int64 {
	out := make(map[string]int64)
	r.Each(func(s *Series) {
		if s.Int != nil {
			out[s.Field] = s.Int.Load()
		}
	})
	return out
}

// NewGaugeFunc registers a computed gauge sampled at exposition time. On a
// duplicate registration the first function wins.
func (r *Registry) NewGaugeFunc(name, help string, fn func() float64, labels ...Label) {
	r.register(&Series{Name: name, Help: help, Kind: KindGauge,
		Labels: labels, GaugeFn: fn})
}

// Each calls fn for every registered series in registration order. The
// *Series is shared — callers must not mutate it.
func (r *Registry) Each(fn func(*Series)) {
	r.mu.Lock()
	series := append([]*Series(nil), r.series...)
	r.mu.Unlock()
	for _, s := range series {
		fn(s)
	}
}
