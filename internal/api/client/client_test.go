package client

import (
	"context"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"net/http/httptrace"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/api"
	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/serve"
)

func testClient(t *testing.T, cfg serve.Config) (*Client, *serve.Store) {
	t.Helper()
	if cfg.Options.K == 0 {
		opts := core.DefaultOptions(4)
		opts.Seed = 7
		opts.NumWorkers = 2
		opts.MaxIterations = 30
		cfg.Options = opts
	}
	st, err := serve.Bootstrap(gen.WattsStrogatz(600, 8, 0.2, 7), cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	as := api.NewServer(st, nil)
	as.Heartbeat = 10 * time.Millisecond
	srv := httptest.NewServer(as.Mux())
	t.Cleanup(srv.Close)
	return New(srv.URL), st
}

func TestClientRoundTrip(t *testing.T) {
	cli, st := testClient(t, serve.Config{})
	ctx := context.Background()

	h, err := cli.Health(ctx)
	if err != nil || h.Status != "ok" {
		t.Fatalf("Health = %+v, %v", h, err)
	}

	l, err := cli.Lookup(ctx, 5)
	if err != nil || l.Vertex != 5 || l.K != 4 {
		t.Fatalf("Lookup = %+v, %v", l, err)
	}

	m, err := cli.Mutate(ctx, "v 2\n+ 600 0\n+ 601 1 3\n")
	if err != nil || !m.Queued || m.Adds != 2 || m.Vertices != 2 {
		t.Fatalf("Mutate = %+v, %v", m, err)
	}

	r, err := cli.Resize(ctx, 6)
	if err != nil || !r.Queued || r.K != 6 {
		t.Fatalf("Resize = %+v, %v", r, err)
	}
	if err := st.Quiesce(); err != nil {
		t.Fatal(err)
	}

	stats, err := cli.Stats(ctx)
	if err != nil || stats.K != 6 || stats.Vertices != 602 {
		t.Fatalf("Stats = %+v, %v", stats, err)
	}
	if stats.DeltaNext <= stats.DeltaFloor {
		t.Fatalf("Stats delta bounds [%d, %d)", stats.DeltaFloor, stats.DeltaNext)
	}

	all, err := cli.LookupAll(ctx)
	if err != nil || all.K != 6 || all.Vertices != 602 || len(all.Labels) != 602 {
		t.Fatalf("LookupAll = k=%d n=%d labels=%d, %v", all.K, all.Vertices, len(all.Labels), err)
	}
}

func TestClientErrorSentinels(t *testing.T) {
	cli, _ := testClient(t, serve.Config{Quota: serve.QuotaConfig{Rate: 0.001, Burst: 1}})
	ctx := context.Background()

	if _, err := cli.Lookup(ctx, 99999999); !errors.Is(err, ErrNotFound) {
		t.Fatalf("missing vertex err = %v, want ErrNotFound", err)
	}
	if _, err := cli.Resize(ctx, 4); !errors.Is(err, ErrKUnchanged) {
		t.Fatalf("unchanged resize err = %v, want ErrKUnchanged", err)
	}
	if _, err := cli.Promote(ctx); !errors.Is(err, ErrNotFollower) {
		t.Fatalf("promote on leader err = %v, want ErrNotFollower", err)
	}

	cli.Tenant = "alpha"
	if _, err := cli.Mutate(ctx, "+ 1 2\n"); err != nil {
		t.Fatal(err)
	}
	_, err := cli.Mutate(ctx, "+ 2 3\n")
	if !errors.Is(err, ErrQuotaExceeded) {
		t.Fatalf("over-quota err = %v, want ErrQuotaExceeded", err)
	}
	var apiErr *APIError
	if !errors.As(err, &apiErr) {
		t.Fatalf("over-quota err %T, want *APIError", err)
	}
	if apiErr.Status != 429 || apiErr.Code != "quota_exceeded" || apiErr.RetryAfter < time.Second {
		t.Fatalf("APIError = %+v", apiErr)
	}
	// A plain 400 carries no code and matches no sentinel.
	_, err = cli.Mutate(ctx, "bogus\n")
	if err == nil || errors.Is(err, ErrQuotaExceeded) || errors.Is(err, ErrNotFound) {
		t.Fatalf("malformed mutate err = %v", err)
	}
}

// followFeed drains the watch stream from cursor until a caught-up
// heartbeat, applying every delta.
func followFeed(t *testing.T, cli *Client, labels []int32, cursor uint64) []int32 {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	for {
		w, err := cli.Watch(ctx, cursor)
		if errors.Is(err, ErrCompacted) {
			all, aerr := cli.LookupAll(ctx)
			if aerr != nil {
				t.Fatal(aerr)
			}
			labels = append(labels[:0], all.Labels...)
			cursor = all.FromSeq
			continue
		}
		if err != nil {
			t.Fatal(err)
		}
		for {
			ev, rerr := w.Recv()
			if rerr != nil {
				if errors.Is(rerr, io.EOF) {
					break
				}
				w.Close()
				t.Fatal(rerr)
			}
			if ev.Delta != nil {
				labels, err = ev.Delta.Apply(labels)
				if err != nil {
					w.Close()
					t.Fatal(err)
				}
				cursor = ev.Delta.Seq
			} else if cursor+1 >= ev.Next {
				w.Close()
				return labels
			}
		}
		w.Close()
	}
}

func TestClientWatchConverges(t *testing.T) {
	cli, st := testClient(t, serve.Config{})
	ctx := context.Background()

	for i := 0; i < 5; i++ {
		if _, err := cli.Mutate(ctx, "v 3\n+ 1 2\n+ 3 4 5\n"); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.Quiesce(); err != nil && !strings.Contains(err.Error(), "absent edge") {
		t.Fatal(err)
	}

	labels := followFeed(t, cli, nil, 0)
	all, err := cli.LookupAll(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(labels) != len(all.Labels) {
		t.Fatalf("feed has %d vertices, lookup %d", len(labels), len(all.Labels))
	}
	for v := range all.Labels {
		if labels[v] != all.Labels[v] {
			t.Fatalf("feed label[%d] = %d, lookup = %d", v, labels[v], all.Labels[v])
		}
	}
}

// A cursor compacted out of a tiny ring earns ErrCompacted, and the
// documented LookupAll resync path still converges to lookup truth.
func TestClientWatchCompactedResync(t *testing.T) {
	cli, st := testClient(t, serve.Config{DeltaRing: 4})
	ctx := context.Background()

	for i := 0; i < 12; i++ {
		if _, err := cli.Mutate(ctx, "v 1\n"); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.Quiesce(); err != nil {
		t.Fatal(err)
	}
	if _, err := cli.Watch(ctx, 0); !errors.Is(err, ErrCompacted) {
		t.Fatalf("stale cursor err = %v, want ErrCompacted", err)
	}
	labels := followFeed(t, cli, nil, 0)
	all, err := cli.LookupAll(ctx)
	if err != nil {
		t.Fatal(err)
	}
	for v := range all.Labels {
		if labels[v] != all.Labels[v] {
			t.Fatalf("post-resync label[%d] = %d, lookup = %d", v, labels[v], all.Labels[v])
		}
	}
}

// Every call leaves its connection reusable: the /v1/lookup answers carry
// Content-Length, and do drains what a json.Decoder leaves unread of a
// chunked body (here 3 KB of whitespace after the value, more than the
// decoder buffers). Sixty calls on the real routes, twenty on the tail:
// one dial each.
func TestClientReusesConnection(t *testing.T) {
	dials := func(cli *Client, calls func(ctx context.Context)) int {
		cli.HTTPClient = &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}}
		fresh := 0
		calls(httptrace.WithClientTrace(context.Background(), &httptrace.ClientTrace{
			GotConn: func(info httptrace.GotConnInfo) {
				if !info.Reused {
					fresh++
				}
			},
		}))
		return fresh
	}
	cli, _ := testClient(t, serve.Config{})
	if n := dials(cli, func(ctx context.Context) {
		for i := 0; i < 20; i++ {
			if all, err := cli.LookupAll(ctx); err != nil || len(all.Labels) != 600 {
				t.Fatalf("LookupAll %d: %v", i, err)
			}
			if _, err := cli.Lookup(ctx, int64(i)); err != nil {
				t.Fatalf("Lookup %d: %v", i, err)
			}
			if _, err := cli.Stats(ctx); err != nil {
				t.Fatalf("Stats %d: %v", i, err)
			}
		}
	}); n != 1 {
		t.Fatalf("60 calls on one client dialed %d connections, want 1", n)
	}

	tail := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.WriteString(w, `{"status":"ok"}`)
		w.(http.Flusher).Flush()
		io.WriteString(w, strings.Repeat(" ", 3000)+"\n")
	}))
	defer tail.Close()
	tailCli := New(tail.URL)
	if n := dials(tailCli, func(ctx context.Context) {
		for i := 0; i < 20; i++ {
			if h, err := tailCli.Health(ctx); err != nil || h.Status != "ok" {
				t.Fatalf("Health %d: %+v, %v", i, h, err)
			}
		}
	}); n != 1 {
		t.Fatalf("20 calls answered with a chunked tail dialed %d connections, want 1", n)
	}
}

// LookupAll does not need the Content-Length it sizes its buffer by: a
// chunked body with the keys in another order and whitespace reads the same.
func TestLookupAllReadsChunkedBody(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.WriteString(w, "{ \"from_seq\": 9,\n \"labels\": [1, 0, 3],")
		w.(http.Flusher).Flush()
		io.WriteString(w, " \"vertices\": 3, \"k\": 4 }\n")
	}))
	defer srv.Close()
	all, err := New(srv.URL).LookupAll(context.Background())
	want := &api.ResyncResponse{K: 4, Vertices: 3, Labels: []int32{1, 0, 3}, FromSeq: 9}
	if err != nil || !reflect.DeepEqual(all, want) {
		t.Fatalf("LookupAll = %+v, %v; want %+v", all, err, want)
	}
}
