package serve

// The /v1/watch wire format: every frame rides the shared envelope in
// internal/frame (u8 kind | u32 len | u32 CRC-32C | payload — the same
// one the replication stream uses); this file owns only the watch kinds
// and their payload layouts.
//
// kinds: handshake (1, opens every stream), delta (2, one encoded
// serve.Delta — see EncodeDelta), heartbeat (3, keeps an idle
// consumer's view of the compaction floor honest), end (4, closes a
// stream whose cursor compaction overtook mid-flight — "resync, this
// was not a dropped connection"). Handshake, heartbeat and end payloads
// are u64 floor | u64 next: the server's oldest retained delta sequence
// and the next sequence it will assign, so a consumer can tell "caught
// up" (cursor == next-1) from "falling toward the floor" without a
// second request.
//
// The codec lives in serve (not internal/api) so the delta hub can
// memoize fully framed bytes at publish time: framing is deterministic,
// so one AppendWatchFrame per publication serves every watch stream
// with the byte-identical frame.

import (
	"encoding/binary"
	"errors"
	"fmt"

	"repro/internal/frame"
)

// Watch stream frame kinds.
const (
	// WatchHandshake opens a stream: the current floor and next delta
	// sequence, sent before any deltas.
	WatchHandshake byte = 1
	// WatchDelta carries one encoded delta record (EncodeDelta).
	WatchDelta byte = 2
	// WatchHeartbeat refreshes floor/next during idle periods.
	WatchHeartbeat byte = 3
	// WatchEnd terminates a stream whose cursor was compacted away
	// mid-stream (the consumer fell a full ring behind). It carries the
	// new floor/next; the consumer must resync via /v1/lookup rather
	// than treat the close as a transient network failure.
	WatchEnd byte = 4
)

// watchFixed is the control-frame payload: u64 floor + u64 next.
const watchFixed = 16

// WatchFrame is one decoded /v1/watch stream frame.
type WatchFrame struct {
	Kind  byte
	Floor uint64 // handshake/heartbeat/end: oldest retained delta seq
	Next  uint64 // handshake/heartbeat/end: next delta seq to be assigned
	Delta []byte // WatchDelta only: EncodeDelta payload
}

// AppendWatchFrame encodes f onto dst and returns the extended slice.
func AppendWatchFrame(dst []byte, f WatchFrame) []byte {
	if f.Kind == WatchDelta {
		return frame.Append(dst, f.Kind, f.Delta)
	}
	var fixed [watchFixed]byte
	binary.LittleEndian.PutUint64(fixed[:], f.Floor)
	binary.LittleEndian.PutUint64(fixed[8:], f.Next)
	return frame.Append(dst, f.Kind, fixed[:])
}

// DecodeWatchFrame parses one frame from the front of b, returning it
// and the number of bytes consumed. frame.ErrShort means b ends
// mid-frame (a torn read — wait for more bytes); any other error means
// the bytes can never parse and the stream must be abandoned. Delta
// aliases b.
func DecodeWatchFrame(b []byte) (WatchFrame, int, error) {
	kind, payload, n, err := frame.Decode(b)
	if err != nil {
		return WatchFrame{}, 0, err
	}
	switch {
	case kind < WatchHandshake || kind > WatchEnd:
		return WatchFrame{}, 0, fmt.Errorf("serve: unknown watch frame kind %d", kind)
	case kind == WatchDelta:
		if len(payload) == 0 {
			return WatchFrame{}, 0, errors.New("serve: empty delta frame")
		}
		return WatchFrame{Kind: kind, Delta: payload}, n, nil
	case len(payload) != watchFixed:
		return WatchFrame{}, 0, fmt.Errorf("serve: %d-byte payload on control frame kind %d", len(payload), kind)
	}
	return WatchFrame{
		Kind:  kind,
		Floor: binary.LittleEndian.Uint64(payload),
		Next:  binary.LittleEndian.Uint64(payload[8:]),
	}, n, nil
}
