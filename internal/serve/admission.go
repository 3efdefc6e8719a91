package serve

// Overload robustness: per-tenant admission control on the mutation log,
// deficit-round-robin fair draining, and the degradation budget that
// trades cut quality for latency under lookup pressure.
//
//   - Admission: every submission is attributed to a tenant (the
//     Mutation.Tenant tag; empty is the default tenant) and passes a
//     token bucket refilled at Quota.Rate before it may enter the log.
//     A refusal is typed (ErrQuotaExceeded via QuotaError, with the
//     bucket's own refill time as RetryAfter) and never consumes log
//     capacity, so one abusive client cannot starve admission for the
//     rest. TrySubmit additionally enforces a per-tenant backlog cap
//     (Quota.TenantDepth) so a single tenant cannot own the whole
//     bounded log either.
//   - Fair drain: the coordinator routes admitted mutations into
//     per-tenant FIFO queues and forms each commit group by
//     deficit-round-robin over the tenants (Quota.Weights, default
//     equal), so a burst from one tenant pipelines BEHIND others'
//     steady trickle rather than ahead of it. The picked group is then
//     sorted back into arrival order, which preserves the exact FIFO
//     apply order for any single tenant — and therefore the package's
//     determinism contract: with one tenant (every test and every
//     pre-multi-tenant caller), group formation is the identity.
//   - Degradation budget: the coordinator samples lookup and drain
//     rates each Overload.Window into EWMAs; past the configured
//     thresholds it defers background restabilization (cut quality
//     degrades gracefully, lookup latency does not), and the HTTP layer
//     sheds /resize. RetryAfter derives
//     an honest client backoff from the observed drain rate.
//
// Everything here is off by default: a zero QuotaConfig admits
// everything, a zero OverloadConfig never defers, and a store with one
// (default) tenant drains in exact submission order.

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"sync"
	"sync/atomic"
	"time"
)

// Errors returned by the admission and resize paths.
var (
	// ErrQuotaExceeded is returned (wrapped in a QuotaError) when a
	// tenant's token bucket is empty. Match with errors.Is.
	ErrQuotaExceeded = errors.New("serve: tenant quota exceeded")
	// ErrDegraded is returned by the write paths after a storage fault
	// poisoned the journal: the store is read-only (fail-stop) and must
	// be closed and recovered via Open.
	ErrDegraded = errors.New("serve: store degraded after journal fault; writes refused")
	// ErrKUnchanged is returned by Resize when the requested k equals the
	// store's target partition count — the current k composed with every
	// resize already queued — making the duplicate-resize check atomic
	// with the coordinator instead of a caller-side read-then-act race.
	ErrKUnchanged = errors.New("serve: resize to current k")
)

// QuotaError is the typed admission refusal: which tenant, and when its
// bucket will hold a token again. errors.Is(err, ErrQuotaExceeded)
// matches it.
type QuotaError struct {
	Tenant     string
	RetryAfter time.Duration
}

func (e *QuotaError) Error() string {
	name := e.Tenant
	if name == "" {
		name = "default"
	}
	return fmt.Sprintf("serve: tenant %s quota exceeded (retry in %v)", name, e.RetryAfter)
}

func (e *QuotaError) Is(target error) bool { return target == ErrQuotaExceeded }

// QuotaConfig tunes per-tenant admission control and fair draining. The
// zero value disables every limit and weighs all tenants equally.
type QuotaConfig struct {
	// Rate is the sustained admission rate per tenant in batches/second;
	// 0 disables the token bucket.
	Rate float64
	// Burst is the bucket capacity (the batch count a tenant may submit
	// instantaneously). Default max(1, Rate) when Rate is set.
	Burst float64
	// TenantDepth caps one tenant's admitted-but-unresolved backlog on
	// the TrySubmit path (ErrLogFull past it), so a flooding tenant
	// saturates its own allowance, not the shared bounded log. 0
	// disables. Blocking Submit is exempt: it already pays backpressure
	// by waiting.
	TenantDepth int
	// Weights are the deficit-round-robin drain weights per tenant name;
	// tenants not listed weigh 1. A tenant with weight w gets w entries
	// per pass while backlogged.
	Weights map[string]int
}

func (q *QuotaConfig) normalize() error {
	if q.Rate < 0 {
		return fmt.Errorf("serve: Quota.Rate=%v", q.Rate)
	}
	if q.Burst < 0 {
		return fmt.Errorf("serve: Quota.Burst=%v", q.Burst)
	}
	if q.Burst == 0 && q.Rate > 0 {
		q.Burst = math.Max(1, q.Rate)
	}
	if q.TenantDepth < 0 {
		return fmt.Errorf("serve: Quota.TenantDepth=%d", q.TenantDepth)
	}
	for name, w := range q.Weights {
		if w < 1 {
			return fmt.Errorf("serve: Quota.Weights[%q]=%d, want >= 1", name, w)
		}
	}
	return nil
}

// defaultOverloadWindow is the load-sampling period when
// OverloadConfig.Window is unset.
const defaultOverloadWindow = 100 * time.Millisecond

// OverloadConfig tunes the degradation budget. The zero value never
// declares overload (maintenance always runs, nothing is shed).
type OverloadConfig struct {
	// LookupRate declares overload while the EWMA lookup rate
	// (lookups/second) exceeds this; 0 disables the trigger.
	LookupRate float64
	// Staleness declares overload while the submitted-but-unresolved
	// batch backlog (the snapshot staleness numerator) exceeds this; 0
	// disables the trigger.
	Staleness float64
	// Window is the load-sampling period. Default 100ms.
	Window time.Duration
}

func (o *OverloadConfig) normalize() error {
	if o.LookupRate < 0 || o.Staleness < 0 {
		return fmt.Errorf("serve: negative overload threshold")
	}
	if o.Window < 0 {
		return fmt.Errorf("serve: Overload.Window=%v", o.Window)
	}
	if o.Window == 0 {
		o.Window = defaultOverloadWindow
	}
	return nil
}

func (o *OverloadConfig) enabled() bool { return o.LookupRate > 0 || o.Staleness > 0 }

// tenantState is one tenant's admission bucket, counters, and
// coordinator-owned drain queue. The bucket is guarded by mu (submitters
// race each other); the counters are atomic (submitters and coordinator
// race); queue, qhead, deficit and ringed are coordinator-only.
type tenantState struct {
	name   string
	weight int

	bktMu  sync.Mutex // guards the token bucket
	tokens float64
	last   time.Time

	submitted     atomic.Int64 // admitted into the log
	committed     atomic.Int64 // resolved and applied
	rejected      atomic.Int64 // resolved and refused (validation or journal failure)
	quotaRejected atomic.Int64 // refused at admission, never enqueued
	backlog       atomic.Int64 // admitted, not yet picked into a commit group

	queue   []logEntry
	qhead   int
	deficit int
	ringed  bool
}

func (t *tenantState) qlen() int { return len(t.queue) - t.qhead }

func (t *tenantState) push(e logEntry) { t.queue = append(t.queue, e) }

func (t *tenantState) pop() logEntry {
	e := t.queue[t.qhead]
	t.queue[t.qhead] = logEntry{} // drop batch references
	t.qhead++
	if t.qhead == len(t.queue) {
		t.queue, t.qhead = t.queue[:0], 0
	}
	return e
}

// takeToken refills the bucket to now and consumes one token, or reports
// the duration until one is available.
func (t *tenantState) takeToken(rate, burst float64, now time.Time) (retry time.Duration, ok bool) {
	t.bktMu.Lock()
	defer t.bktMu.Unlock()
	if t.last.IsZero() {
		t.tokens = burst
	} else if dt := now.Sub(t.last); dt > 0 {
		t.tokens = math.Min(burst, t.tokens+rate*dt.Seconds())
	}
	t.last = now
	if t.tokens >= 1 {
		t.tokens--
		return 0, true
	}
	need := (1 - t.tokens) / rate
	return time.Duration(math.Ceil(need * float64(time.Second))), false
}

// tenant returns (lazily creating) the state for name. Safe on a
// zero-value Store: the map and its mutex initialize on first use.
func (s *Store) tenant(name string) *tenantState {
	s.tenantsMu.Lock()
	defer s.tenantsMu.Unlock()
	if t, ok := s.tenants[name]; ok {
		return t
	}
	if s.tenants == nil {
		s.tenants = make(map[string]*tenantState)
	}
	w := s.cfg.Quota.Weights[name]
	if w < 1 {
		w = 1
	}
	t := &tenantState{name: name, weight: w}
	s.tenants[name] = t
	return t
}

// admit runs admission control for one submission: the token bucket
// (both paths) and the per-tenant backlog cap (TrySubmit only).
func (s *Store) admit(t *tenantState, try bool) error {
	q := &s.cfg.Quota
	if q.Rate > 0 {
		if retry, ok := t.takeToken(q.Rate, q.Burst, s.clock()); !ok {
			t.quotaRejected.Add(1)
			s.ctr.QuotaRejections.Add(1)
			return &QuotaError{Tenant: t.name, RetryAfter: retry}
		}
	}
	if try && q.TenantDepth > 0 && t.backlog.Load() >= int64(q.TenantDepth) {
		return ErrLogFull
	}
	return nil
}

// TenantStats is one tenant's admission and resolution counters, as
// surfaced in /stats.
type TenantStats struct {
	Weight        int   `json:"weight"`
	Submitted     int64 `json:"submitted"`
	Committed     int64 `json:"committed"`
	Rejected      int64 `json:"rejected"`
	QuotaRejected int64 `json:"quota_rejected"`
	Backlog       int64 `json:"backlog"`
}

// Tenants snapshots the per-tenant counters for every tenant the store
// has seen. For any tenant, Submitted == Committed + Rejected + Backlog
// once the log is drained (QuotaRejected counts refusals that were never
// submitted).
func (s *Store) Tenants() map[string]TenantStats {
	s.tenantsMu.Lock()
	defer s.tenantsMu.Unlock()
	out := make(map[string]TenantStats, len(s.tenants))
	for name, t := range s.tenants {
		out[name] = TenantStats{
			Weight:        t.weight,
			Submitted:     t.submitted.Load(),
			Committed:     t.committed.Load(),
			Rejected:      t.rejected.Load(),
			QuotaRejected: t.quotaRejected.Load(),
			Backlog:       t.backlog.Load(),
		}
	}
	return out
}

// clock is the store's time source; tests override Store.now.
func (s *Store) clock() time.Time {
	if s.now != nil {
		return s.now()
	}
	return time.Now()
}

// Degraded reports whether a storage fault poisoned the journal: the
// store serves lookups from the last published snapshots but refuses
// every write with ErrDegraded (fail-stop; recover by Close + Open).
func (s *Store) Degraded() bool { return s.degraded.Load() }

// Overloaded reports whether the degradation budget is engaged:
// background restabilization is deferred and callers should shed
// expensive writes.
func (s *Store) Overloaded() bool { return s.overloaded.Load() }

// DrainRate returns the EWMA rate at which the coordinator resolves
// batches, in batches/second (0 until the first sampling window closes).
func (s *Store) DrainRate() float64 {
	return math.Float64frombits(s.drainRate.Load())
}

// LookupRate returns the EWMA lookup rate in lookups/second.
func (s *Store) LookupRate() float64 {
	return math.Float64frombits(s.lookupRate.Load())
}

// RetryAfter estimates how long a refused client should back off:
// backlog over observed drain rate, clamped to [1s, 30s] (1s when no
// drain rate has been observed yet).
func (s *Store) RetryAfter() time.Duration {
	backlog := s.submitted.Load() - s.applied.Load()
	if backlog < 1 {
		backlog = 1
	}
	dr := s.DrainRate()
	if dr <= 0 {
		return time.Second
	}
	d := time.Duration(float64(backlog) / dr * float64(time.Second))
	return min(max(d, time.Second), 30*time.Second)
}

// updateLoad folds one sample into the EWMA lookup/drain rates and
// re-evaluates the overload predicate. Coordinator-only; now comes from
// s.clock() (or directly from tests).
func (s *Store) updateLoad(now time.Time) {
	if s.loadAt.IsZero() {
		s.loadAt = now
		s.loadLookups = s.ctr.Lookups.Load()
		s.loadApplied = s.applied.Load()
		return
	}
	dt := now.Sub(s.loadAt)
	if dt < s.cfg.Overload.Window {
		return
	}
	lookups := s.ctr.Lookups.Load()
	applied := s.applied.Load()
	sec := dt.Seconds()
	const alpha = 0.5 // EWMA smoothing per window
	lr := alpha*(float64(lookups-s.loadLookups)/sec) + (1-alpha)*s.LookupRate()
	dr := alpha*(float64(applied-s.loadApplied)/sec) + (1-alpha)*s.DrainRate()
	s.lookupRate.Store(math.Float64bits(lr))
	s.drainRate.Store(math.Float64bits(dr))
	s.loadAt, s.loadLookups, s.loadApplied = now, lookups, applied

	oc := &s.cfg.Overload
	over := oc.LookupRate > 0 && lr > oc.LookupRate ||
		oc.Staleness > 0 && float64(s.submitted.Load()-applied) > oc.Staleness
	s.overloaded.Store(over)
	if !over {
		// The episode ends: the next deferral counts again (deferred).
		s.restabDeferred = false
	}
}

// route stamps an entry's arrival order and parks it: controls and
// resizes on the control queue, mutations on their tenant's queue.
// Coordinator-only.
func (s *Store) route(e logEntry) {
	e.seq = s.arrival
	s.arrival++
	if e.Mut == nil || e.ten == nil {
		s.controlQ = append(s.controlQ, e)
		return
	}
	t := e.ten
	if !t.ringed {
		t.ringed = true
		s.ring = append(s.ring, t)
	}
	t.push(e)
	s.queued++
}

// transferLog moves what is currently queued in the mutation log channel
// into the fair queues without blocking. The parked total — tenant queues
// and the ordered queue ApplyRecord's entries join — is capped at a small
// multiple of LogDepth: each receive frees a channel slot a blocked Submit
// or ApplyRecord refills, so an uncapped drain would grow the backlog (and
// defeat backpressure) without bound.
func (s *Store) transferLog() {
	limit := 4 * s.cfg.LogDepth
	for s.queued+len(s.controlQ) < limit {
		select {
		case e := <-s.log:
			s.route(e)
		default:
			return
		}
	}
}

// nextGroup forms the commit group for this coordinator turn: up to
// LogDepth mutations picked deficit-round-robin across the backlogged
// tenants — each pass grants every tenant its weight in credits, so over
// any contention interval tenant shares converge to the weight ratio and
// a trickle tenant's entry is picked within one pass of arriving — plus
// the parked control entries that may join. A control keeps its log
// position: no mutation that arrived after the first parked control is
// picked, and a control joins only once no mutation that arrived before
// it is still parked (a follower, which parks no mutation, takes all its
// records in one group). The picked entries are then sorted back into
// arrival order, so the apply order within a tenant is exactly FIFO (and
// with a single tenant the whole group is FIFO — the determinism contract
// is untouched). Returns a buffer reused across turns; the caller clears
// it after handling.
func (s *Store) nextGroup() []logEntry {
	g := s.groupBuf[:0]
	// fence is the first parked control's arrival, oldest the oldest
	// mutation's still parked after the picking.
	fence, oldest := uint64(math.MaxUint64), uint64(math.MaxUint64)
	if len(s.controlQ) > 0 {
		fence = s.controlQ[0].seq
	}
	eligible := func(t *tenantState) bool { return t.qlen() > 0 && t.queue[t.qhead].seq < fence }

	if s.queued > 0 {
		s.ctr.FairnessPasses.Add(1)
		budget := s.cfg.LogDepth
		n := len(s.ring)
		for budget > 0 && s.queued > 0 {
			progressed := false
			for i := 0; i < n && budget > 0 && s.queued > 0; i++ {
				t := s.ring[(s.cursor+i)%n]
				if t.qlen() == 0 {
					t.deficit = 0
					continue
				}
				if !eligible(t) {
					continue
				}
				t.deficit += t.weight
				for t.deficit >= 1 && eligible(t) && budget > 0 {
					g = append(g, t.pop())
					t.deficit--
					t.backlog.Add(-1)
					s.queued--
					budget--
					progressed = true
				}
			}
			if !progressed {
				break
			}
		}
		if n > 0 {
			s.cursor = (s.cursor + 1) % n
		}
		for _, t := range s.ring {
			if t.qlen() > 0 {
				oldest = min(oldest, t.queue[t.qhead].seq)
			}
		}
	}
	join := 0
	for join < len(s.controlQ) && s.controlQ[join].seq < oldest {
		join++
	}
	g = append(g, s.controlQ[:join]...)
	s.controlQ = slices.Delete(s.controlQ, 0, join)
	if len(g) == 0 {
		s.groupBuf = g
		return nil
	}
	slices.SortFunc(g, func(a, b logEntry) int {
		switch {
		case a.seq < b.seq:
			return -1
		case a.seq > b.seq:
			return 1
		}
		return 0
	})
	s.groupBuf = g
	return g
}
