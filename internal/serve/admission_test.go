package serve

// Tests for the overload-robustness layer (ISSUE 6): per-tenant
// token-bucket admission, deficit-round-robin fair draining, the
// degradation budget, the atomic unchanged-k resize rejection, and the
// storage fail-stop contract (an injected journal fault never loses an
// acknowledged batch).

import (
	"errors"
	"fmt"
	"os"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/wal"
)

// tenantBatch is addBatch tagged with a submitting tenant.
func tenantBatch(tenant string, n, step, edges int) *graph.Mutation {
	m := addBatch(n, step, edges)
	m.Tenant = tenant
	return m
}

// The token bucket refuses a tenant past its rate with a typed error
// carrying an honest refill estimate, refills with the clock, and keeps
// tenants' buckets independent. Driven against an unstarted coordinator
// with a fake clock, so the arithmetic is exact.
func TestQuotaTokenBucket(t *testing.T) {
	w, labels := twoClusters(20)
	cfg := Config{Options: storeOpts(2, 9), Quota: QuotaConfig{Rate: 1, Burst: 2}}
	if err := cfg.normalize(); err != nil {
		t.Fatal(err)
	}
	st, err := newFresh(w, labels, cfg)
	if err != nil {
		t.Fatal(err)
	}
	now := time.Unix(1000, 0)
	st.now = func() time.Time { return now }

	for i := 0; i < 2; i++ {
		if err := st.TrySubmit(tenantBatch("bursty", 40, i, 2)); err != nil {
			t.Fatalf("submit %d within burst: %v", i, err)
		}
	}
	err = st.TrySubmit(tenantBatch("bursty", 40, 2, 2))
	var qe *QuotaError
	if !errors.As(err, &qe) || !errors.Is(err, ErrQuotaExceeded) {
		t.Fatalf("over-burst submit err = %v, want QuotaError", err)
	}
	if qe.Tenant != "bursty" || qe.RetryAfter != time.Second {
		t.Fatalf("QuotaError = %+v, want tenant bursty, retry 1s (empty bucket, rate 1)", qe)
	}

	// Half a second refills half a token: still refused, half the wait.
	now = now.Add(500 * time.Millisecond)
	if err := st.TrySubmit(tenantBatch("bursty", 40, 3, 2)); !errors.As(err, &qe) {
		t.Fatalf("submit at half token err = %v, want QuotaError", err)
	} else if qe.RetryAfter != 500*time.Millisecond {
		t.Fatalf("RetryAfter = %v, want 500ms", qe.RetryAfter)
	}
	now = now.Add(600 * time.Millisecond)
	if err := st.TrySubmit(tenantBatch("bursty", 40, 4, 2)); err != nil {
		t.Fatalf("submit after refill: %v", err)
	}

	// Another tenant holds its own full bucket the whole time.
	if err := st.TrySubmit(tenantBatch("quiet", 40, 0, 2)); err != nil {
		t.Fatalf("independent tenant refused: %v", err)
	}

	stats := st.Tenants()
	if b := stats["bursty"]; b.Submitted != 3 || b.QuotaRejected != 2 {
		t.Fatalf("bursty stats %+v, want submitted=3 quota_rejected=2", b)
	}
	if q := stats["quiet"]; q.Submitted != 1 || q.QuotaRejected != 0 {
		t.Fatalf("quiet stats %+v, want submitted=1 quota_rejected=0", q)
	}
	if got := st.ctr.QuotaRejections.Load(); got != 2 {
		t.Fatalf("QuotaRejections = %d, want 2", got)
	}
}

// TenantDepth caps one tenant's parked backlog on the non-blocking path
// without touching other tenants.
func TestQuotaTenantDepth(t *testing.T) {
	w, labels := twoClusters(20)
	cfg := Config{Options: storeOpts(2, 9), LogDepth: 16,
		Quota: QuotaConfig{Rate: 1000, Burst: 1000, TenantDepth: 2}}
	if err := cfg.normalize(); err != nil {
		t.Fatal(err)
	}
	st, err := newFresh(w, labels, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if err := st.TrySubmit(tenantBatch("deep", 40, i, 2)); err != nil {
			t.Fatalf("submit %d under depth: %v", i, err)
		}
	}
	if err := st.TrySubmit(tenantBatch("deep", 40, 2, 2)); !errors.Is(err, ErrLogFull) {
		t.Fatalf("over-depth submit err = %v, want ErrLogFull", err)
	}
	if err := st.TrySubmit(tenantBatch("other", 40, 0, 2)); err != nil {
		t.Fatalf("other tenant refused by deep's depth cap: %v", err)
	}
}

// starvationHarness builds an unstarted coordinator, so tests drive turns
// (transferLog/nextGroup/handleGroup) by hand.
func starvationHarness(t *testing.T, cfg Config) *Store {
	t.Helper()
	if err := cfg.normalize(); err != nil {
		t.Fatal(err)
	}
	w, labels := twoClusters(50)
	st, err := newFresh(w, append([]int32(nil), labels...), cfg)
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// One tenant flooding the log cannot starve trickle tenants: the
// deficit-round-robin drain picks every waiting tenant's entry within a
// single coordinator turn, and the per-tenant counters reconcile exactly
// once the backlog drains.
func TestFairDrainStarvationFreedom(t *testing.T) {
	st := starvationHarness(t, Config{
		Options: storeOpts(2, 9), LogDepth: 8,
		DegradeFactor: 1e9,
	})

	// Park 25 flood batches (under the 4×LogDepth transfer cap, leaving
	// room for the trickles): TrySubmit fills the channel, transferLog
	// moves it into the tenant queue (the coordinator's role).
	flooded := 0
	for i := 0; i < 25; i++ {
		err := st.TrySubmit(tenantBatch("flood", 100, i, 4))
		if errors.Is(err, ErrLogFull) {
			st.transferLog()
			err = st.TrySubmit(tenantBatch("flood", 100, i, 4))
		}
		if err != nil {
			t.Fatalf("flood submit %d: %v", i, err)
		}
		flooded++
	}
	st.transferLog() // free channel slots the trickle tenants will use
	for _, tenant := range []string{"a", "b", "c"} {
		if err := st.TrySubmit(tenantBatch(tenant, 100, 77, 4)); err != nil {
			t.Fatalf("trickle submit %s: %v", tenant, err)
		}
	}
	st.transferLog()

	// One turn: every trickle tenant's sole entry is picked despite the
	// flood backlog dwarfing the turn budget.
	g := st.nextGroup()
	picked := map[string]int{}
	for _, e := range g {
		picked[e.Mut.Tenant]++
	}
	if len(g) != 8 {
		t.Fatalf("turn picked %d entries, want LogDepth=8", len(g))
	}
	for _, tenant := range []string{"a", "b", "c"} {
		if picked[tenant] != 1 {
			t.Fatalf("turn picks %v: tenant %s starved behind %d flood entries", picked, tenant, flooded)
		}
	}
	if picked["flood"] != 5 {
		t.Fatalf("turn picks %v: flood should fill the remaining budget", picked)
	}
	st.handleGroup(g)
	clear(g)

	if c := st.Tenants()["a"]; c.Committed != 1 {
		t.Fatalf("tenant a committed %d after one turn, want 1", c.Committed)
	}

	// Drain the rest and check exact accounting per tenant.
	for st.queued > 0 || len(st.log) > 0 {
		st.transferLog()
		if g := st.nextGroup(); len(g) > 0 {
			st.handleGroup(g)
			clear(g)
		}
	}
	if got := st.ctr.FairnessPasses.Load(); got < 2 {
		t.Fatalf("FairnessPasses = %d, want one per non-empty turn", got)
	}
	for tenant, want := range map[string]int64{"flood": int64(flooded), "a": 1, "b": 1, "c": 1} {
		c := st.Tenants()[tenant]
		if c.Committed+c.Rejected != want || c.Backlog != 0 {
			t.Fatalf("tenant %s stats %+v, want committed+rejected=%d backlog=0", tenant, c, want)
		}
		if c.Submitted != c.Committed+c.Rejected+c.Backlog {
			t.Fatalf("tenant %s counters do not reconcile: %+v", tenant, c)
		}
	}
}

// Drain shares converge to the configured weights while both tenants
// stay backlogged.
func TestWeightedFairShares(t *testing.T) {
	st := starvationHarness(t, Config{
		Options: storeOpts(2, 9), LogDepth: 8,
		DegradeFactor: 1e9,
		Quota:         QuotaConfig{Weights: map[string]int{"gold": 3}},
	})

	for i := 0; i < 10; i++ {
		for _, tenant := range []string{"gold", "bronze"} {
			if err := st.TrySubmit(tenantBatch(tenant, 100, i, 3)); err != nil {
				t.Fatalf("submit %s %d: %v", tenant, i, err)
			}
			st.transferLog()
		}
	}
	st.transferLog()

	g := st.nextGroup()
	picked := map[string]int{}
	for _, e := range g {
		picked[e.Mut.Tenant]++
	}
	if picked["gold"] != 6 || picked["bronze"] != 2 {
		t.Fatalf("turn picks %v, want 3:1 split of the 8-entry budget", picked)
	}
	st.handleGroup(g)
}

// Under overload the maintenance plane defers restabilization (counted
// once per episode), and it resumes at the first turn after the load
// clears.
func TestOverloadDefersMaintenance(t *testing.T) {
	const window = 100 * time.Millisecond
	st := starvationHarness(t, Config{
		Options:       storeOpts(2, 9),
		DegradeFactor: 1e9,
		Overload:      OverloadConfig{LookupRate: 10, Window: window},
	})

	now := time.Unix(1000, 0)
	st.updateLoad(now) // arm the sampler
	st.ctr.Lookups.Add(10_000)
	now = now.Add(window)
	st.updateLoad(now)
	if !st.Overloaded() {
		t.Fatalf("not overloaded at %.0f lookups/sec over a 10/sec threshold", st.LookupRate())
	}

	st.wantRestab = true
	for i := 0; i < 3; i++ {
		st.maintain(now)
	}
	if st.inflight {
		t.Fatal("restabilization started while overloaded")
	}
	c := &st.ctr
	if c.DeferredRestabs.Load() != 1 {
		t.Fatalf("deferrals = %d, want 1 (one per episode, not per turn)", c.DeferredRestabs.Load())
	}
	if c.Restabilizations.Load() != 0 {
		t.Fatal("maintenance ran while overloaded")
	}

	// Idle windows decay the EWMA below the threshold.
	for i := 0; i < 30 && st.Overloaded(); i++ {
		now = now.Add(window)
		st.updateLoad(now)
	}
	if st.Overloaded() {
		t.Fatalf("overload never cleared, lookup rate %.1f", st.LookupRate())
	}

	st.maintain(now)
	if !st.inflight {
		t.Fatal("restabilization did not start after overload cleared")
	}
	st.merge(<-st.restabDone)
	if c.Restabilizations.Load() != 1 {
		t.Fatalf("restabs=%d after overload cleared, want 1", c.Restabilizations.Load())
	}
}

// Resize rejects the current target k atomically inside the store, so
// two racing duplicate resizes cannot both be accepted (the check rides
// the claimed target, not the applied k).
func TestResizeKUnchangedAtomic(t *testing.T) {
	w, labels := twoClusters(40)
	st, err := New(w, labels, Config{Options: storeOpts(2, 9), DegradeFactor: 1e9})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()

	// A k past core.MaxK is refused synchronously and claims nothing: the
	// target stays 2.
	if err := st.Resize(core.MaxK + 1); err == nil || errors.Is(err, ErrKUnchanged) {
		t.Fatalf("resize to MaxK+1 err = %v, want a range error", err)
	}
	if err := st.Resize(2); !errors.Is(err, ErrKUnchanged) {
		t.Fatalf("resize to current k err = %v, want ErrKUnchanged", err)
	}
	if err := st.Resize(3); err != nil {
		t.Fatal(err)
	}
	// The duplicate is refused immediately — before the first resize has
	// been applied — because 3 is already the claimed target.
	if err := st.Resize(3); !errors.Is(err, ErrKUnchanged) {
		t.Fatalf("duplicate queued resize err = %v, want ErrKUnchanged", err)
	}
	if err := st.Quiesce(); err != nil {
		t.Fatal(err)
	}
	if got := st.Snapshot().K; got != 3 {
		t.Fatalf("K = %d after resize, want 3", got)
	}
	if err := st.Resize(2); err != nil {
		t.Fatal(err)
	}
	if err := st.Quiesce(); err != nil {
		t.Fatal(err)
	}
	if got := st.Snapshot().K; got != 2 {
		t.Fatalf("K = %d after resize back, want 2", got)
	}
	if got := st.ctr.ElasticResizes.Load(); got != 2 {
		t.Fatalf("ElasticResizes = %d, want 2 (duplicates never reached the coordinator)", got)
	}
}

// Property: across several injected write-fault points, a batch whose
// Quiesce succeeded is never lost — recovery lands exactly on the acked
// prefix — and the store fails stop (degraded, read-only) at the fault.
func TestFaultStopNeverLosesAckedBatch(t *testing.T) {
	for _, failAt := range []int{1, 2, 5, 9} {
		t.Run(fmt.Sprintf("failWrite%d", failAt), func(t *testing.T) {
			cfg := Config{
				Options:       storeOpts(2, 9),
				DegradeFactor: 1e9,
				Durability: DurabilityConfig{
					Fsync: wal.SyncAlways, CheckpointEvery: -1, NoFinalCheckpoint: true,
				},
			}
			w, labels := twoClusters(50)
			ref, err := New(w, append([]int32(nil), labels...),
				Config{Options: storeOpts(2, 9), DegradeFactor: 1e9})
			if err != nil {
				t.Fatal(err)
			}
			defer ref.Close()

			dir := t.TempDir()
			w2, labels2 := twoClusters(50)
			st, err := NewDurable(dir, w2, append([]int32(nil), labels2...), cfg)
			if err != nil {
				t.Fatal(err)
			}
			calls := 0
			restore := wal.InjectFaults(func(f *os.File, b []byte) (int, error) {
				calls++
				if calls >= failAt {
					return 0, errors.New("injected: write fault")
				}
				return f.Write(b)
			}, nil)

			acked := 0
			for step := 0; step < 12; step++ {
				if err := st.Submit(addBatch(100, step, 6)); err != nil {
					break // ErrDegraded once the fault landed
				}
				if err := st.Quiesce(); err != nil {
					break // the faulted batch is refused, never acked
				}
				// Acked: mirror it into the in-memory reference.
				if err := ref.Submit(addBatch(100, step, 6)); err != nil {
					t.Fatal(err)
				}
				if err := ref.Quiesce(); err != nil {
					t.Fatal(err)
				}
				acked++
			}
			if acked >= 12 {
				t.Fatal("injected fault never fired")
			}
			if !st.Degraded() {
				t.Fatal("store not degraded after journal write fault")
			}
			// Fail-stop shape: reads keep serving, writes refuse typed.
			if _, ok := st.Lookup(0); !ok {
				t.Fatal("lookup failed on degraded store")
			}
			if err := st.Submit(addBatch(100, 0, 2)); !errors.Is(err, ErrDegraded) {
				t.Fatalf("submit on degraded store err = %v, want ErrDegraded", err)
			}
			if err := st.Resize(5); !errors.Is(err, ErrDegraded) {
				t.Fatalf("resize on degraded store err = %v, want ErrDegraded", err)
			}
			st.Close()
			restore()

			rec, err := Open(dir, cfg)
			if err != nil {
				t.Fatalf("recovery after fault: %v", err)
			}
			defer rec.Close()
			if err := rec.Quiesce(); err != nil {
				t.Fatal(err)
			}
			if got := rec.Counters().ReplayedRecords.Load(); got != int64(acked) {
				t.Fatalf("replayed %d records, want the %d acked", got, acked)
			}
			requireSameState(t, "acked-prefix", rec, ref)
		})
	}
}

// An fsync fault under SyncAlways never acknowledges the affected batch;
// recovery may replay it anyway (written but unsynced — at-least-once
// for the unacknowledged), but every acked batch survives.
func TestFsyncFaultStopDegradesStore(t *testing.T) {
	cfg := Config{
		Options:       storeOpts(2, 9),
		DegradeFactor: 1e9,
		Durability: DurabilityConfig{
			Fsync: wal.SyncAlways, CheckpointEvery: -1, NoFinalCheckpoint: true,
		},
	}
	w, labels := twoClusters(50)
	dir := t.TempDir()
	st, err := NewDurable(dir, w, append([]int32(nil), labels...), cfg)
	if err != nil {
		t.Fatal(err)
	}

	acked := 0
	for step := 0; step < 3; step++ {
		if err := st.Submit(addBatch(100, step, 6)); err != nil {
			t.Fatal(err)
		}
		if err := st.Quiesce(); err != nil {
			t.Fatal(err)
		}
		acked++
	}
	restore := wal.InjectFaults(nil, func(*os.File) error {
		return errors.New("injected: fsync fault")
	})
	if err := st.Submit(addBatch(100, 3, 6)); err != nil {
		t.Fatal(err)
	}
	if err := st.Quiesce(); err == nil {
		t.Fatal("batch over failed fsync was acknowledged")
	}
	if !st.Degraded() {
		t.Fatal("store not degraded after fsync fault")
	}
	st.Close()
	restore()

	rec, err := Open(dir, cfg)
	if err != nil {
		t.Fatalf("recovery after fsync fault: %v", err)
	}
	defer rec.Close()
	if err := rec.Quiesce(); err != nil {
		t.Fatal(err)
	}
	got := rec.Counters().ReplayedRecords.Load()
	if got < int64(acked) || got > int64(acked)+1 {
		t.Fatalf("replayed %d records, want %d acked (+ at most the 1 unsynced)", got, acked)
	}
}
