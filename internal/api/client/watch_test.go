package client

import (
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"slices"
	"strconv"
	"testing"

	"repro/internal/api"
	"repro/internal/serve"
)

// fakeFeed is a scripted /v1/watch server: it retains deltas
// [floor, next), serves at most perConn delta frames per connection and
// then closes the stream — the degenerate flappy server a consumer that
// resumes from its cursor must ride out.
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

// A stream the server ends after two deltas reads io.EOF, and re-dialing
// from the last applied sequence resumes with no gap and no duplicate —
// the loop spinnerctl feed-labels runs. A cursor the feed no longer holds
// is refused with ErrCompacted, whether compacted away or from the future.
func TestWatchResumesFromCursorAcrossDrops(t *testing.T) {
	feed := newFakeFeed(1, 7, 2)
	srv := httptest.NewServer(feed)
	defer srv.Close()
	cli := New(srv.URL)
	ctx := context.Background()

	var got []uint64
	for cursor := uint64(0); cursor < 6; {
		w, err := cli.Watch(ctx, cursor)
		if err != nil {
			t.Fatal(err)
		}
		for {
			ev, err := w.Recv()
			if errors.Is(err, io.EOF) {
				break
			}
			if err != nil {
				t.Fatalf("Recv after seq %d: %v", cursor, err)
			}
			if ev.Delta != nil {
				cursor = ev.Delta.Seq
				got = append(got, cursor)
			}
		}
		w.Close()
	}
	if want := []uint64{1, 2, 3, 4, 5, 6}; !slices.Equal(got, want) || feed.dials != 3 {
		t.Fatalf("deltas %v over %d connections, want %v over 3", got, feed.dials, want)
	}

	feed.floor = 5
	for _, cursor := range []uint64{0, 7} {
		if _, err := cli.Watch(ctx, cursor); !errors.Is(err, ErrCompacted) {
			t.Fatalf("Watch(%d) on feed [5,7) = %v, want ErrCompacted", cursor, err)
		}
	}
}
