// Package client is the typed Go client for spinnerd's /v1 HTTP API:
// every endpoint as a method returning the api package's response
// structs, server error envelopes surfaced as *APIError values that
// errors.Is-match stable sentinels (ErrQuotaExceeded, ErrReadOnly,
// ErrStaleReplica, ...), and the /v1/watch change feed as a Watcher that
// decodes the CRC-framed delta stream back into serve.Delta records.
package client

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"time"

	"repro/internal/api"
	"repro/internal/frame"
	"repro/internal/serve"
)

// Sentinel errors matching the server's stable "code" field, for
// errors.Is against any error returned by a Client method.
var (
	ErrQuotaExceeded = errors.New("quota exceeded")
	ErrLogFull       = errors.New("mutation log full")
	ErrOverloaded    = errors.New("overloaded")
	ErrDegraded      = errors.New("degraded")
	ErrReadOnly      = errors.New("read only")
	ErrStaleReplica  = errors.New("stale replica")
	ErrKUnchanged    = errors.New("k unchanged")
	ErrUnavailable   = errors.New("unavailable")
	ErrNotFollower   = errors.New("not a follower")
	ErrNotFound      = errors.New("not found")
	// ErrCompacted matches both 410 codes a /v1/watch cursor can earn
	// ("compacted" and "reset"): either way the cursor is unserveable and
	// the consumer must full-resync via LookupAll.
	ErrCompacted = errors.New("cursor compacted away")
)

// codeSentinels maps server error codes to their sentinel.
var codeSentinels = map[string]error{
	"quota_exceeded": ErrQuotaExceeded,
	"log_full":       ErrLogFull,
	"overloaded":     ErrOverloaded,
	"degraded":       ErrDegraded,
	"read_only":      ErrReadOnly,
	"stale_replica":  ErrStaleReplica,
	"k_unchanged":    ErrKUnchanged,
	"unavailable":    ErrUnavailable,
	"not_follower":   ErrNotFollower,
	"compacted":      ErrCompacted,
	"reset":          ErrCompacted,
}

// APIError is a server error envelope ({"error","code"} + status +
// Retry-After) surfaced as a Go error. errors.Is matches the sentinel
// for its code (and ErrNotFound for any 404).
type APIError struct {
	Status     int           // HTTP status
	Code       string        // stable machine-readable code ("" on plain errors)
	Message    string        // server's human-readable message
	RetryAfter time.Duration // from the Retry-After header (0 = none)
}

func (e *APIError) Error() string {
	if e.Code != "" {
		return fmt.Sprintf("api: %s (%s, http %d)", e.Message, e.Code, e.Status)
	}
	return fmt.Sprintf("api: %s (http %d)", e.Message, e.Status)
}

// Is matches the sentinel corresponding to the error's code (and
// ErrNotFound for 404s), so callers branch with errors.Is instead of
// string-matching.
func (e *APIError) Is(target error) bool {
	if target == ErrNotFound && e.Status == http.StatusNotFound {
		return true
	}
	if s, ok := codeSentinels[e.Code]; ok {
		return target == s
	}
	return false
}

// Client talks to one spinnerd node's /v1 API.
type Client struct {
	// BaseURL is the node's root URL, e.g. "http://127.0.0.1:8080".
	BaseURL string
	// HTTPClient overrides http.DefaultClient when non-nil. Watch
	// streams are long-lived: give the client no overall timeout.
	HTTPClient *http.Client
	// Tenant, when set, is sent as X-Tenant on every mutate.
	Tenant string
}

// New returns a client for the node at baseURL.
func New(baseURL string) *Client {
	return &Client{BaseURL: strings.TrimRight(baseURL, "/")}
}

func (c *Client) httpClient() *http.Client {
	if c.HTTPClient != nil {
		return c.HTTPClient
	}
	return http.DefaultClient
}

// do issues the request and decodes a JSON success body into out,
// converting error envelopes into *APIError.
func (c *Client) do(ctx context.Context, method, path string, body io.Reader, out any) error {
	return c.roundTrip(ctx, method, path, body, func(resp *http.Response) error {
		return json.NewDecoder(resp.Body).Decode(out)
	})
}

// roundTrip issues the request, converts an error envelope into an
// *APIError and hands a success response to decode. Whatever decode left
// unread (a json.Decoder stops at the end of its value, short of a
// chunked body's terminator) is drained before Close, so the transport
// keeps the connection; the drain is bounded, since a body much longer
// than its value is not worth the connection.
func (c *Client) roundTrip(ctx context.Context, method, path string, body io.Reader, decode func(*http.Response) error) error {
	req, err := http.NewRequestWithContext(ctx, method, c.BaseURL+path, body)
	if err != nil {
		return err
	}
	if c.Tenant != "" {
		req.Header.Set("X-Tenant", c.Tenant)
	}
	resp, err := c.httpClient().Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode >= 400 {
		err = decodeError(resp)
	} else {
		err = decode(resp)
	}
	_, _ = io.CopyN(io.Discard, resp.Body, 4<<10)
	return err
}

// decodeError converts an error response into an *APIError, consuming
// the body.
func decodeError(resp *http.Response) error {
	apiErr := &APIError{Status: resp.StatusCode}
	if ra := resp.Header.Get("Retry-After"); ra != "" {
		if secs, err := strconv.Atoi(ra); err == nil && secs > 0 {
			apiErr.RetryAfter = time.Duration(secs) * time.Second
		}
	}
	var envelope api.ErrorBody
	if err := json.NewDecoder(io.LimitReader(resp.Body, 1<<16)).Decode(&envelope); err == nil {
		apiErr.Code = envelope.Code
		apiErr.Message = envelope.Error
	}
	if apiErr.Message == "" {
		apiErr.Message = resp.Status
	}
	return apiErr
}

// Health fetches GET /v1/healthz. A degraded node answers 503, which
// surfaces as an *APIError with Status 503.
func (c *Client) Health(ctx context.Context) (*api.HealthResponse, error) {
	var out api.HealthResponse
	if err := c.do(ctx, http.MethodGet, "/v1/healthz", nil, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// Lookup resolves one vertex's partition.
func (c *Client) Lookup(ctx context.Context, v int64) (*api.LookupResponse, error) {
	var out api.LookupResponse
	if err := c.do(ctx, http.MethodGet, "/v1/lookup?v="+strconv.FormatInt(v, 10), nil, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// LookupAll fetches the full label map plus the watch cursor to resume
// the change feed from — the resync path after ErrCompacted.
func (c *Client) LookupAll(ctx context.Context) (*api.ResyncResponse, error) {
	var out api.ResyncResponse
	err := c.roundTrip(ctx, http.MethodGet, "/v1/lookup", nil, func(resp *http.Response) error {
		// One buffer, sized by Content-Length (plus the spare room ReadFrom
		// wants before it sees EOF; capped, as a header is only a claim),
		// scanned in place.
		var buf bytes.Buffer
		if resp.ContentLength > 0 {
			buf.Grow(int(min(resp.ContentLength, 1<<28)) + bytes.MinRead)
		}
		if _, err := buf.ReadFrom(resp.Body); err != nil {
			return err
		}
		var err error
		out, err = api.ParseResync(buf.Bytes())
		return err
	})
	if err != nil {
		return nil, err
	}
	return &out, nil
}

// Mutate submits a batch in the line protocol ("+ u v [w]", "- u v",
// "v n"; see api.ParseMutation).
func (c *Client) Mutate(ctx context.Context, ops string) (*api.MutateResponse, error) {
	var out api.MutateResponse
	if err := c.do(ctx, http.MethodPost, "/v1/mutate", strings.NewReader(ops), &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// Resize requests an elastic resize to k partitions.
func (c *Client) Resize(ctx context.Context, k int) (*api.ResizeResponse, error) {
	var out api.ResizeResponse
	if err := c.do(ctx, http.MethodPost, "/v1/resize?k="+strconv.Itoa(k), nil, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// Stats fetches the full serving snapshot.
func (c *Client) Stats(ctx context.Context) (*api.StatsResponse, error) {
	var out api.StatsResponse
	if err := c.do(ctx, http.MethodGet, "/v1/stats", nil, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// Promote fails a follower over to leader.
func (c *Client) Promote(ctx context.Context) (*api.PromoteResponse, error) {
	var out api.PromoteResponse
	if err := c.do(ctx, http.MethodPost, "/v1/promote", nil, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// Event is one frame of a watch stream: a delta record, or a heartbeat
// (Delta nil) refreshing the server's retention bounds.
type Event struct {
	// Delta is nil on heartbeats.
	Delta *serve.Delta
	// Floor and Next are the server's retention bounds as of the last
	// handshake or heartbeat: deltas in [Floor, Next) are retrievable,
	// and a consumer whose cursor equals Next-1 is caught up.
	Floor, Next uint64
}

// Watcher consumes one /v1/watch stream. Not safe for concurrent use.
type Watcher struct {
	resp  *http.Response
	br    *bufio.Reader
	buf   []byte
	floor uint64
	next  uint64
}

// Watch opens a change-feed stream resuming after fromSeq (0 = from the
// beginning; the first delta is then the baseline full-label record).
// A cursor past the compaction floor (or from a previous server
// incarnation) fails with ErrCompacted: full-resync via LookupAll and
// re-watch from the returned FromSeq. Cancel ctx to end the stream.
func (c *Client) Watch(ctx context.Context, fromSeq uint64) (*Watcher, error) {
	url := c.BaseURL + "/v1/watch?from_seq=" + strconv.FormatUint(fromSeq, 10)
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return nil, err
	}
	resp, err := c.httpClient().Do(req)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		defer resp.Body.Close()
		return nil, decodeError(resp)
	}
	w := &Watcher{resp: resp, br: bufio.NewReader(resp.Body)}
	f, err := w.readFrame()
	if err != nil {
		w.Close()
		return nil, err
	}
	if f.Kind != serve.WatchHandshake {
		w.Close()
		return nil, fmt.Errorf("client: watch stream opened with frame kind %d, want handshake", f.Kind)
	}
	w.floor, w.next = f.Floor, f.Next
	return w, nil
}

// Floor returns the server's oldest retained delta sequence as of the
// last handshake or heartbeat.
func (w *Watcher) Floor() uint64 { return w.floor }

// Next returns the sequence the server will assign to its next delta as
// of the last handshake or heartbeat.
func (w *Watcher) Next() uint64 { return w.next }

// readFrame blocks until one full frame is buffered and decodes it.
func (w *Watcher) readFrame() (serve.WatchFrame, error) {
	for {
		f, n, err := serve.DecodeWatchFrame(w.buf)
		if err == nil {
			w.buf = w.buf[n:]
			return f, nil
		}
		if !errors.Is(err, frame.ErrShort) {
			return serve.WatchFrame{}, err
		}
		chunk := make([]byte, 4096)
		m, rerr := w.br.Read(chunk)
		if m > 0 {
			w.buf = append(w.buf, chunk[:m]...)
			continue
		}
		if rerr != nil {
			if errors.Is(rerr, io.EOF) && len(w.buf) > 0 {
				return serve.WatchFrame{}, io.ErrUnexpectedEOF
			}
			return serve.WatchFrame{}, rerr
		}
	}
}

// Recv blocks for the next event: a delta record, or a heartbeat with
// Delta nil. io.EOF means the server closed the stream (limit reached
// or shutdown — a plain connection end, safe to re-Watch from the same
// cursor). A cursor that compaction overran mid-stream arrives as a
// typed end frame and surfaces as an error matching ErrCompacted (with
// the event carrying the server's new bounds): full-resync via
// LookupAll, like a 410 on Watch.
func (w *Watcher) Recv() (Event, error) {
	f, err := w.readFrame()
	if err != nil {
		return Event{}, err
	}
	switch f.Kind {
	case serve.WatchDelta:
		d, err := serve.DecodeDelta(f.Delta)
		if err != nil {
			return Event{}, err
		}
		if d.Seq >= w.next {
			w.next = d.Seq + 1
		}
		return Event{Delta: d, Floor: w.floor, Next: w.next}, nil
	case serve.WatchHeartbeat:
		w.floor, w.next = f.Floor, f.Next
		return Event{Floor: w.floor, Next: w.next}, nil
	case serve.WatchEnd:
		w.floor, w.next = f.Floor, f.Next
		return Event{Floor: w.floor, Next: w.next},
			fmt.Errorf("client: cursor compacted away mid-stream (floor now %d): %w", f.Floor, ErrCompacted)
	default:
		return Event{}, fmt.Errorf("client: unexpected mid-stream frame kind %d", f.Kind)
	}
}

// Close tears the stream down. Safe after any Recv error. The body is
// deliberately not drained first: a watch stream is live and unbounded,
// so draining would block on the server's next heartbeat. Dropping the
// connection instead is the only way to hang up.
func (w *Watcher) Close() error {
	return w.resp.Body.Close()
}
