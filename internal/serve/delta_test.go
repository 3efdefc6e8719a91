package serve

import (
	"bytes"
	"encoding/hex"
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/core"
	"repro/internal/gen"
)

func TestDeltaHubPublishCompactionAndBounds(t *testing.T) {
	h := newDeltaHub(4, new(atomic.Int64))
	if floor, next := h.bounds(); floor != 1 || next != 1 {
		t.Fatalf("empty hub bounds [%d, %d), want [1, 1)", floor, next)
	}
	for i := 0; i < 10; i++ {
		h.publish(&Delta{Cross: int64(i)})
	}
	floor, next := h.bounds()
	if floor != 7 || next != 11 {
		t.Fatalf("bounds [%d, %d) after 10 publishes into 4 slots, want [7, 11)", floor, next)
	}

	// A live cursor gets the dense tail.
	ds, f := h.framedSince(8, 0)
	if f != 7 || len(ds) != 2 || ds[0].Delta.Seq != 9 || ds[1].Delta.Seq != 10 {
		t.Fatalf("framedSince(8) = %d deltas floor %d", len(ds), f)
	}
	// max truncates.
	ds, _ = h.framedSince(6, 1)
	if len(ds) != 1 || ds[0].Delta.Seq != 7 {
		t.Fatalf("framedSince(6, max 1) = %v", ds)
	}
	// A compacted cursor sees a gap it must detect: first seq != after+1.
	ds, f = h.framedSince(2, 0)
	if f != 7 || len(ds) != 4 || ds[0].Delta.Seq == 3 {
		t.Fatalf("framedSince(2) = %d deltas starting %d, floor %d", len(ds), ds[0].Delta.Seq, f)
	}
	// A caught-up cursor gets nothing.
	if ds, _ := h.framedSince(10, 0); len(ds) != 0 {
		t.Fatalf("framedSince(10) = %v, want empty", ds)
	}
}

// The tentpole invariant of the encode-once fan-out: the hub encodes
// and frames each delta exactly once at publish time, and every reader
// shares the same immutable frame bytes.
func TestDeltaHubFramedSinceSharesMemoizedFrames(t *testing.T) {
	h := newDeltaHub(8, new(atomic.Int64))
	for i := 0; i < 5; i++ {
		h.publish(&Delta{Cross: int64(i), Runs: []LabelRun{{Start: i, Labels: []int32{1, 2}}}})
	}
	if got := h.encodes.Load(); got != 5 {
		t.Fatalf("encodes = %d after 5 publishes, want 5 (one per publication)", got)
	}

	a, floorA := h.framedSince(0, 0)
	b, floorB := h.framedSince(0, 0)
	if floorA != 1 || floorB != 1 || len(a) != 5 || len(b) != 5 {
		t.Fatalf("framedSince(0) = %d/%d entries, floors %d/%d", len(a), len(b), floorA, floorB)
	}
	for i := range a {
		if &a[i].Frame[0] != &b[i].Frame[0] {
			t.Fatalf("entry %d: readers got distinct frame copies, want shared memoized bytes", i)
		}
	}
	// Reading does not re-encode.
	if got := h.encodes.Load(); got != 5 {
		t.Fatalf("encodes = %d after reads, want 5", got)
	}

	// The memoized frame is byte-identical to framing the delta fresh —
	// the unshared path a pre-memoization server would have produced.
	for i, fd := range a {
		want := AppendWatchFrame(nil, WatchFrame{Kind: WatchDelta, Delta: EncodeDelta(fd.Delta)})
		if !bytes.Equal(fd.Frame, want) {
			t.Fatalf("entry %d: memoized frame differs from freshly framed bytes", i)
		}
		f, n, err := DecodeWatchFrame(fd.Frame)
		if err != nil || n != len(fd.Frame) || f.Kind != WatchDelta {
			t.Fatalf("entry %d: memoized frame decode = kind %d, %d bytes, err %v", i, f.Kind, n, err)
		}
		if !bytes.Equal(f.Delta, fd.Payload()) {
			t.Fatalf("entry %d: Payload() disagrees with decoded frame payload", i)
		}
		d, err := DecodeDelta(f.Delta)
		if err != nil || d.Seq != fd.Delta.Seq {
			t.Fatalf("entry %d: payload decodes to seq %d err %v, want %d", i, d.Seq, err, fd.Delta.Seq)
		}
	}

	// Cursor and max semantics on the shared entries.
	fds, floor := h.framedSince(2, 2)
	if floor != 1 || len(fds) != 2 || fds[0].Delta.Seq != 3 || fds[1].Delta.Seq != 4 {
		t.Fatalf("framedSince(2, max 2) = %d entries starting %d, floor %d", len(fds), fds[0].Delta.Seq, floor)
	}
	if fds, _ := h.framedSince(5, 0); len(fds) != 0 {
		t.Fatalf("caught-up framedSince = %d entries, want 0", len(fds))
	}
}

// Broadcast semantics: a subscriber gets exactly one coalesced wakeup
// token no matter how many publications it slept through, publish never
// blocks on a full slot, and Cancel removes the registration.
func TestDeltaHubSubscribeCoalescedWakeups(t *testing.T) {
	h := newDeltaHub(8, new(atomic.Int64))
	sub := h.subs.subscribe()
	if n := h.subs.len(); n != 1 {
		t.Fatalf("subscribers = %d, want 1", n)
	}
	select {
	case <-sub.C():
		t.Fatal("wakeup token before any publish")
	default:
	}

	for i := 0; i < 3; i++ {
		h.publish(&Delta{})
	}
	select {
	case <-sub.C():
	default:
		t.Fatal("no wakeup token after publishes")
	}
	// Coalesced: three publications left exactly one token.
	select {
	case <-sub.C():
		t.Fatal("second token pending; wakeups must coalesce into one slot")
	default:
	}

	// The ordering contract: ring first, then token — so after draining
	// the token, the published deltas are already readable.
	h.publish(&Delta{})
	<-sub.C()
	if fds, _ := h.framedSince(3, 0); len(fds) != 1 || fds[0].Delta.Seq != 4 {
		t.Fatalf("post-wakeup read = %d entries, want seq 4", len(fds))
	}

	sub.Cancel()
	if n := h.subs.len(); n != 0 {
		t.Fatalf("subscribers = %d after Cancel, want 0", n)
	}
	h.publish(&Delta{})
	select {
	case <-sub.C():
		t.Fatal("cancelled subscriber still woken")
	default:
	}
	sub.Cancel() // idempotent
}

// Subscribe/unsubscribe churn racing live publications (run with -race):
// every subscriber that parks after reading the ring is woken for
// publications it has not seen, and concurrent readers always observe
// dense ascending sequences inside one snapshot read. The hub has one
// publisher, the coordinator.
func TestDeltaHubBroadcastUnderConcurrentPublish(t *testing.T) {
	const (
		publishers   = 1
		perPublisher = 1200
		subscribers  = 8
	)
	h := newDeltaHub(64, new(atomic.Int64))
	var wg sync.WaitGroup
	stop := make(chan struct{})

	for p := 0; p < publishers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for i := 0; i < perPublisher; i++ {
				h.publish(&Delta{Cross: int64(p*perPublisher + i)})
			}
		}(p)
	}

	errs := make(chan error, subscribers)
	for s := 0; s < subscribers; s++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// Churn the registration: resubscribe every few drains.
			sub := h.subs.subscribe()
			defer func() { sub.Cancel() }()
			cursor := uint64(0)
			drains := 0
			for {
				fds, floor := h.framedSince(cursor, 0)
				if len(fds) == 0 {
					if cursor+1 >= h.next.Load() {
						select {
						case <-stop:
							return
						default:
						}
					}
					select {
					case <-sub.C():
					case <-stop:
						return
					}
					continue
				}
				if fds[0].Delta.Seq != cursor+1 && fds[0].Delta.Seq != floor {
					errs <- fmt.Errorf("read started at %d, cursor %d, floor %d", fds[0].Delta.Seq, cursor, floor)
					return
				}
				for i := 1; i < len(fds); i++ {
					if fds[i].Delta.Seq != fds[i-1].Delta.Seq+1 {
						errs <- fmt.Errorf("non-dense batch: %d then %d", fds[i-1].Delta.Seq, fds[i].Delta.Seq)
						return
					}
				}
				cursor = fds[len(fds)-1].Delta.Seq
				if drains++; drains%5 == 0 {
					sub.Cancel()
					sub = h.subs.subscribe()
				}
			}
		}()
	}

	// Publishers finish first; then release the subscribers.
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	for {
		if h.next.Load() == publishers*perPublisher+1 {
			break
		}
		select {
		case err := <-errs:
			t.Fatal(err)
		default:
			runtime.Gosched()
		}
	}
	close(stop)
	<-done
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if n := h.subs.len(); n != 0 {
		t.Fatalf("subscribers = %d after all cancelled, want 0", n)
	}
	floor, next := h.bounds()
	if next != publishers*perPublisher+1 || floor != next-64 {
		t.Fatalf("final bounds [%d, %d), want [%d, %d)", floor, next, next-64, publishers*perPublisher+1)
	}
}

func TestLabelDiffRunsProperties(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for trial := 0; trial < 200; trial++ {
		n := rng.Intn(64)
		old := make([]int32, n)
		for i := range old {
			old[i] = int32(rng.Intn(4))
		}
		// new: mutate some entries, sometimes grow.
		grown := n + rng.Intn(8)
		newLabels := make([]int32, grown)
		copy(newLabels, old)
		for i := n; i < grown; i++ {
			newLabels[i] = int32(rng.Intn(4))
		}
		for c := rng.Intn(10); c > 0; c-- {
			if n == 0 {
				break
			}
			newLabels[rng.Intn(n)] = int32(rng.Intn(4))
		}

		runs := labelDiffRuns(old, newLabels)
		// Applying the runs to old (grown) must reproduce new exactly.
		d := &Delta{N: grown, Runs: runs}
		got, err := d.Apply(append([]int32(nil), old...))
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != grown {
			t.Fatalf("apply grew to %d, want %d", len(got), grown)
		}
		for i := range newLabels {
			if got[i] != newLabels[i] {
				t.Fatalf("trial %d: applied[%d] = %d, want %d", trial, i, got[i], newLabels[i])
			}
		}
		// Exactness over the common prefix: a run never covers an
		// unchanged index.
		for _, r := range runs {
			for i, l := range r.Labels {
				v := r.Start + i
				if v < n && old[v] == l {
					t.Fatalf("trial %d: run covers unchanged vertex %d", trial, v)
				}
			}
		}
		// Ascending and non-overlapping.
		prevEnd := -1
		for _, r := range runs {
			if r.Start <= prevEnd {
				t.Fatalf("trial %d: runs overlap or are unsorted: %v", trial, runs)
			}
			prevEnd = r.Start + len(r.Labels) - 1
		}
	}
}

func TestDeltaApplyRejectsOutOfRangeRun(t *testing.T) {
	d := &Delta{Seq: 9, Runs: []LabelRun{{Start: 5, Labels: []int32{1, 2}}}}
	if _, err := d.Apply(make([]int32, 6)); err == nil {
		t.Fatal("run past the end applied cleanly")
	}
	d = &Delta{Seq: 9, Runs: []LabelRun{{Start: -1, Labels: []int32{1}}}}
	if _, err := d.Apply(make([]int32, 6)); err == nil {
		t.Fatal("negative run start applied cleanly")
	}
}

func TestDeltaCodecRoundTrip(t *testing.T) {
	cases := []*Delta{
		{},
		{Seq: 1, Epoch: 2, Gen: 3, K: 4, N: 5, Cross: -7, Total: 100},
		{Seq: 9, K: 2, N: 8,
			Runs: []LabelRun{{Start: 0, Labels: []int32{0, 1, 0, 1}}, {Start: 6, Labels: []int32{1}}}},
	}
	for i, d := range cases {
		payload := EncodeDelta(d)
		got, err := DecodeDelta(payload)
		if err != nil {
			t.Fatalf("case %d: %v", i, err)
		}
		if got.Seq != d.Seq || got.Epoch != d.Epoch || got.Gen != d.Gen ||
			got.K != d.K || got.N != d.N || got.Cross != d.Cross || got.Total != d.Total ||
			len(got.Runs) != len(d.Runs) {
			t.Fatalf("case %d: %+v != %+v", i, got, d)
		}
		for j := range d.Runs {
			if got.Runs[j].Start != d.Runs[j].Start || len(got.Runs[j].Labels) != len(d.Runs[j].Labels) {
				t.Fatalf("case %d runs %+v != %+v", i, got.Runs, d.Runs)
			}
		}
	}
	// A version-1 payload, with its bounds section, is refused.
	v1, _ := hex.DecodeString(goldenDeltaV1)
	if _, err := DecodeDelta(v1); err == nil || !strings.Contains(err.Error(), "delta version 1") {
		t.Fatalf("version-1 payload: %v, want a version error", err)
	}
	// Corruption is rejected: trailing garbage and truncation.
	payload := EncodeDelta(cases[2])
	if _, err := DecodeDelta(append(payload, 0)); err == nil {
		t.Fatal("trailing byte accepted")
	}
	if _, err := DecodeDelta(payload[:len(payload)-1]); err == nil {
		t.Fatal("truncated payload accepted")
	}
}

// Every store opens its feed with a baseline delta at seq 1 that alone
// reconstructs the composed labels.
func TestBaselineDeltaReconstructsLabels(t *testing.T) {
	opts := core.DefaultOptions(4)
	opts.Seed = 7
	opts.NumWorkers = 2
	opts.MaxIterations = 20
	st, err := Bootstrap(gen.WattsStrogatz(300, 6, 0.2, 7), Config{Options: opts})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()

	ds, _ := st.FramedDeltasSince(0, 1)
	if len(ds) != 1 || ds[0].Delta.Seq != 1 {
		t.Fatalf("first delta = %+v", ds)
	}
	base, err := DecodeDelta(ds[0].Payload())
	if err != nil {
		t.Fatal(err)
	}
	if base.K != 4 || base.N != 300 || base.RunVertices() != 300 {
		t.Fatalf("baseline delta k=%d n=%d runs cover %d", base.K, base.N, base.RunVertices())
	}
	labels, err := base.Apply(nil)
	if err != nil {
		t.Fatal(err)
	}
	snap := st.Snapshot()
	for v := range snap.Labels {
		if labels[v] != snap.Labels[v] {
			t.Fatalf("baseline label[%d] = %d, snapshot %d", v, labels[v], snap.Labels[v])
		}
	}
	if base.Cross != snap.CutWeight || base.Total != snap.TotalWeight {
		t.Fatalf("baseline counters %d/%d, snapshot %d/%d", base.Cross, base.Total, snap.CutWeight, snap.TotalWeight)
	}
}

func FuzzDeltaCodec(f *testing.F) {
	f.Add(EncodeDelta(&Delta{}))
	f.Add(EncodeDelta(&Delta{Seq: 3, Epoch: 1, Gen: 2, K: 4, N: 6, Cross: 5, Total: 9,
		Runs: []LabelRun{{Start: 2, Labels: []int32{1, 0}}}}))
	f.Add([]byte{1, 0})
	v1, _ := hex.DecodeString(goldenDeltaV1) // refused: a previous version
	f.Add(v1)
	f.Fuzz(func(t *testing.T, b []byte) {
		d, err := DecodeDelta(b)
		if err != nil {
			return
		}
		// The codec is canonical: whatever decodes re-encodes to exactly
		// the input.
		if enc := EncodeDelta(d); !bytes.Equal(enc, b) {
			t.Fatalf("re-encode mismatch:\n got %x\nwant %x", enc, b)
		}
		// Every strict prefix is torn and must be rejected.
		for cut := 0; cut < len(b); cut += 1 + cut/4 {
			if _, err := DecodeDelta(b[:cut]); err == nil {
				t.Fatalf("truncated payload (%d of %d bytes) decoded", cut, len(b))
			}
		}
	})
}
