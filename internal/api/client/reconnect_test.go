package client

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"strconv"
	"testing"
	"time"

	"repro/internal/api"
	"repro/internal/serve"
)

// fakeFeed is a scripted /v1/watch server: it retains deltas
// [floor, next), serves at most perConn delta frames per connection and
// then closes the stream — the degenerate flappy server an
// auto-reconnecting consumer must ride out.
type fakeFeed struct {
	floor, next uint64
	deltas      map[uint64][]byte // seq -> EncodeDelta payload
	perConn     int
	dials       int
}

func newFakeFeed(floor, next uint64, perConn int) *fakeFeed {
	f := &fakeFeed{floor: floor, next: next, deltas: map[uint64][]byte{}, perConn: perConn}
	for seq := floor; seq < next; seq++ {
		f.deltas[seq] = serve.EncodeDelta(&serve.Delta{Seq: seq, Cross: int64(seq)})
	}
	return f
}

func (f *fakeFeed) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	f.dials++
	after, _ := strconv.ParseUint(r.URL.Query().Get("from_seq"), 10, 64)
	code := ""
	if after+1 < f.floor {
		code = "compacted"
	} else if after >= f.next {
		code = "reset"
	}
	if code != "" {
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusGone)
		json.NewEncoder(w).Encode(api.ErrorBody{Error: code, Code: code})
		return
	}
	w.WriteHeader(http.StatusOK)
	buf := serve.AppendWatchFrame(nil, serve.WatchFrame{Kind: serve.WatchHandshake, Floor: f.floor, Next: f.next})
	for n := 0; n < f.perConn && after+1 < f.next; n++ {
		after++
		buf = serve.AppendWatchFrame(buf, serve.WatchFrame{Kind: serve.WatchDelta, Delta: f.deltas[after]})
	}
	w.Write(buf) // then drop the connection: the client must reconnect
}

// An end frame mid-stream must surface as ErrCompacted from Recv, with
// the event carrying the server's refreshed bounds.
func TestWatcherEndFrameSurfacesCompacted(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusOK)
		buf := serve.AppendWatchFrame(nil, serve.WatchFrame{Kind: serve.WatchHandshake, Floor: 1, Next: 4})
		buf = serve.AppendWatchFrame(buf, serve.WatchFrame{Kind: serve.WatchEnd, Floor: 42, Next: 99})
		w.Write(buf)
	}))
	defer srv.Close()

	w, err := New(srv.URL).Watch(context.Background(), 0)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	ev, err := w.Recv()
	if !errors.Is(err, ErrCompacted) {
		t.Fatalf("Recv after end frame = %v, want ErrCompacted", err)
	}
	if ev.Floor != 42 || ev.Next != 99 || w.Floor() != 42 || w.Next() != 99 {
		t.Fatalf("end frame bounds not applied: ev [%d,%d), watcher [%d,%d)",
			ev.Floor, ev.Next, w.Floor(), w.Next())
	}
}

// The auto-watcher must ride out a server that drops the stream every
// two deltas, resuming from the last applied sequence each time — six
// deltas over three connections, no gaps, no duplicates.
func TestAutoWatcherResumesAcrossDrops(t *testing.T) {
	feed := newFakeFeed(1, 7, 2)
	srv := httptest.NewServer(feed)
	defer srv.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	aw := New(srv.URL).WatchReconnect(ctx, 0)
	aw.BaseBackoff = time.Millisecond // keep the test fast
	defer aw.Close()

	for want := uint64(1); want <= 6; want++ {
		ev, err := aw.Recv()
		if err != nil {
			t.Fatalf("Recv %d: %v", want, err)
		}
		if ev.Delta == nil || ev.Delta.Seq != want {
			t.Fatalf("Recv %d = %+v, want delta seq %d", want, ev, want)
		}
	}
	if aw.Cursor() != 6 {
		t.Fatalf("cursor = %d, want 6", aw.Cursor())
	}
	if aw.Reconnects != 2 || feed.dials != 3 {
		t.Fatalf("reconnects = %d, dials = %d; want 2 re-dials over 3 connections",
			aw.Reconnects, feed.dials)
	}
}

// A compacted cursor is NOT hidden by the auto-watcher: the 410
// surfaces as ErrCompacted, and after the caller resyncs and SetCursors,
// the stream resumes from the serveable range.
func TestAutoWatcherSurfacesCompactedAndResumes(t *testing.T) {
	feed := newFakeFeed(5, 8, 10)
	srv := httptest.NewServer(feed)
	defer srv.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	aw := New(srv.URL).WatchReconnect(ctx, 0)
	aw.BaseBackoff = time.Millisecond
	defer aw.Close()

	if _, err := aw.Recv(); !errors.Is(err, ErrCompacted) {
		t.Fatalf("Recv with compacted cursor = %v, want ErrCompacted", err)
	}
	// The caller's half of the contract: resync (here: jump to the
	// floor) and re-arm.
	aw.SetCursor(4)
	for want := uint64(5); want <= 7; want++ {
		ev, err := aw.Recv()
		if err != nil {
			t.Fatalf("post-resync Recv %d: %v", want, err)
		}
		if ev.Delta == nil || ev.Delta.Seq != want {
			t.Fatalf("post-resync Recv = %+v, want delta seq %d", ev, want)
		}
	}
}
