package api

import (
	"bytes"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/serve"
)

// Hundreds of concurrent watchers over live churn (run with -race): the
// encode-once fan-out must hand every stream bit-identical delta
// frames, every stream must converge on the same dense prefix, the
// WatchStreams gauge must return to zero, and the publish path must
// have encoded each delta exactly once no matter how many streams were
// attached.
func TestWatchManyConcurrentStreamsBitIdentical(t *testing.T) {
	st := testStoreCfg(t, serve.Config{Options: testOpts(4)})
	srv := testServer(t, st)
	const streams = 150
	const wantDeltas = 25

	// Live churn until at least wantDeltas publications exist, racing
	// the streams below.
	churnDone := make(chan error, 1)
	go func() {
		for i := 0; ; i++ {
			if _, next := st.DeltaBounds(); next > wantDeltas {
				churnDone <- st.Quiesce()
				return
			}
			u := strconv.Itoa((i * 7) % 600)
			v := strconv.Itoa((i*13 + 1) % 600)
			r, err := http.Post(srv.URL+"/v1/mutate", "text/plain",
				strings.NewReader("+ "+u+" "+v+" 2\n"))
			if err != nil {
				churnDone <- err
				return
			}
			r.Body.Close()
		}
	}()

	type result struct {
		deltaBytes []byte // concatenated raw delta-frame bytes, in order
		seqs       []uint64
		err        error
	}
	results := make([]result, streams)
	var wg sync.WaitGroup
	for i := 0; i < streams; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, err := http.Get(srv.URL + "/v1/watch?from_seq=0&limit=" + strconv.Itoa(wantDeltas))
			if err != nil {
				results[i].err = err
				return
			}
			raw, err := io.ReadAll(resp.Body)
			resp.Body.Close()
			if err != nil {
				results[i].err = err
				return
			}
			for len(raw) > 0 {
				f, n, err := serve.DecodeWatchFrame(raw)
				if err != nil {
					results[i].err = err
					return
				}
				if f.Kind == serve.WatchDelta {
					results[i].deltaBytes = append(results[i].deltaBytes, raw[:n]...)
					d, err := serve.DecodeDelta(f.Delta)
					if err != nil {
						results[i].err = err
						return
					}
					results[i].seqs = append(results[i].seqs, d.Seq)
				}
				raw = raw[n:]
			}
		}(i)
	}
	wg.Wait()
	if err := <-churnDone; err != nil {
		t.Fatal(err)
	}

	for i := range results {
		if results[i].err != nil {
			t.Fatalf("stream %d: %v", i, results[i].err)
		}
		if len(results[i].seqs) != wantDeltas {
			t.Fatalf("stream %d got %d deltas, want %d", i, len(results[i].seqs), wantDeltas)
		}
		for j, seq := range results[i].seqs {
			if seq != uint64(j+1) {
				t.Fatalf("stream %d delta %d has seq %d, want dense from 1", i, j, seq)
			}
		}
		if !bytes.Equal(results[i].deltaBytes, results[0].deltaBytes) {
			t.Fatalf("stream %d delta frames differ from stream 0: fan-out must be bit-identical", i)
		}
	}

	// Encode-once, end to end: the publish path encoded each delta once;
	// 150 subscribers added zero encodes.
	ctr := st.Counters()
	if pub, enc := ctr.DeltasPublished.Load(), ctr.DeltaEncodes.Load(); enc != pub {
		t.Fatalf("DeltaEncodes = %d, DeltasPublished = %d; want equal (encode-once)", enc, pub)
	}
	// Every stream's bytes were accounted.
	wantBytes := int64(streams) * int64(len(results[0].deltaBytes))
	if got := ctr.WatchBytesSent.Load(); got < wantBytes {
		t.Fatalf("WatchBytesSent = %d, want >= %d (%d streams x %d delta bytes)",
			got, wantBytes, streams, len(results[0].deltaBytes))
	}

	// All streams hung up: the gauge drains to zero.
	deadline := time.Now().Add(5 * time.Second)
	for ctr.WatchStreams.Load() != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("WatchStreams gauge stuck at %d, want 0", ctr.WatchStreams.Load())
		}
		time.Sleep(time.Millisecond)
	}
}

// gapFeed wraps a store's change feed and, once, drops the first entry
// of a read — simulating compaction overtaking the cursor between the
// bounds check and the ring read, deterministically.
type gapFeed struct {
	*serve.Store
	mu      sync.Mutex
	dropped bool
}

func (g *gapFeed) FramedDeltasSince(after uint64, max int) ([]serve.FramedDelta, uint64) {
	fds, floor := g.Store.FramedDeltasSince(after, max)
	g.mu.Lock()
	defer g.mu.Unlock()
	if !g.dropped && len(fds) >= 2 {
		g.dropped = true
		return fds[1:], fds[1].Delta.Seq
	}
	return fds, floor
}

// A cursor that compaction overruns mid-stream must get a typed end
// frame carrying the new bounds before the stream closes — not a bare
// connection drop.
func TestWatchMidStreamCompactionEndFrame(t *testing.T) {
	st := testStoreCfg(t, serve.Config{Options: testOpts(4)})
	as := NewServer(st, nil)
	as.feed = &gapFeed{Store: st}
	srv := httptest.NewServer(as.Mux())
	defer srv.Close()

	// Two more publications beyond the baseline so the gapped read has a
	// second entry to start from.
	for i := 0; i < 2; i++ {
		r, err := http.Post(srv.URL+"/v1/mutate", "text/plain", strings.NewReader("v 1\n"))
		if err != nil {
			t.Fatal(err)
		}
		r.Body.Close()
	}
	if err := st.Quiesce(); err != nil {
		t.Fatal(err)
	}

	resp, err := http.Get(srv.URL + "/v1/watch?from_seq=0")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("watch status %d", resp.StatusCode)
	}
	raw, err := io.ReadAll(resp.Body) // the server ends the stream itself
	if err != nil {
		t.Fatal(err)
	}
	var kinds []byte
	var end serve.WatchFrame
	for len(raw) > 0 {
		f, n, err := serve.DecodeWatchFrame(raw)
		if err != nil {
			t.Fatalf("decode: %v (kinds so far %v)", err, kinds)
		}
		kinds = append(kinds, f.Kind)
		if f.Kind == serve.WatchEnd {
			end = f
		}
		raw = raw[n:]
	}
	if len(kinds) != 2 || kinds[0] != serve.WatchHandshake || kinds[1] != serve.WatchEnd {
		t.Fatalf("frame kinds = %v, want [handshake end]", kinds)
	}
	floor, next := st.DeltaBounds()
	if end.Floor != floor || end.Next != next {
		t.Fatalf("end frame bounds [%d,%d), want [%d,%d)", end.Floor, end.Next, floor, next)
	}
}
