// Package replica is the replicated serving plane: a leader streams its
// group-framed WAL journal over HTTP to followers that bootstrap from the
// leader's latest checkpoint and then replay the tail forever — recovery
// that never stops. A follower is a durable serve.Store over its own data
// directory, opened read-only; it serves ~50ns lookups from its own
// atomically-swapped snapshots with a bounded staleness watermark, and
// promotion (with epoch fencing against the deposed leader) flips it to a
// full read-write coordinator.
//
// The wire protocol carries the journal's on-disk frames verbatim inside
// stream frames that ride the shared envelope in internal/frame (u8 kind |
// u32 len | u32 CRC-32C | payload — the same one /v1/watch uses); this
// package owns only the kinds and the payload layout:
//
//	payload = u64 epoch | u64 leaderSeq | [records: raw WAL frames]
//
// kinds: handshake (1, opens every stream), records (2, one or more
// journal frames in sequence order), heartbeat (3, keeps the staleness
// watermark honest across idle periods). Every frame carries the leader's
// epoch, so fencing is per-frame, not just per-connection: after a
// follower promotes, any frame still in flight from the deposed leader
// fails the epoch check and is dropped with the connection.
//
// The leader pushes; nothing polls. Each stream (Server.ServeStream) owns
// a wal.Tail — the journal segment it is in, held open, and the byte
// offset of the first frame it has not sent — and is woken by the serving
// coordinator each time a commit group advances serve.Store.JournalSeq
// (Store.SubscribeJournal: the coalesced single-slot wake-up /v1/watch
// gets from the delta hub). A woken stream reads from its offset up to
// that sequence and no further. The coordinator stores the sequence only
// after the group's write (and fsync, under SyncAlways) has returned, so
// every byte the cursor parses was written in full: a torn tail cannot be
// seen, and a frame that fails its CRC there is corruption, which drops
// the stream. Per commit the leader reads the new bytes, not the segment.
//
// A follower is recovery that never stops: Follower.applyRecords and
// serve.Open's journal replay push every record through the same
// (*serve.Store).ApplyRecord, which is what makes follower state
// bit-identical to the leader's at the same journal position, quiesced
// or not: the leader journals each restabilization's relabel, and the
// follower adopts it rather than computing one (it never restabilizes
// until promoted). Only what legitimately differs (sequence alignment,
// the lag histogram, which counter ticks) stays with the caller.
package replica

import (
	"encoding/binary"
	"errors"
	"fmt"

	"repro/internal/frame"
)

// Stream frame kinds.
const (
	// FrameHandshake opens a stream: epoch + the leader's current journal
	// sequence, sent before any records.
	FrameHandshake byte = 1
	// FrameRecords carries raw journal frames (wal.Tail.Next format) in
	// sequence order.
	FrameRecords byte = 2
	// FrameHeartbeat refreshes leaderSeq during idle periods.
	FrameHeartbeat byte = 3
)

// frameFixed is the payload prefix every frame carries: u64 epoch + u64
// leaderSeq.
const frameFixed = 16

// Frame is one decoded replication stream frame.
type Frame struct {
	Kind      byte
	Epoch     uint64
	LeaderSeq uint64 // leader's last journaled sequence at send time
	Records   []byte // FrameRecords only: concatenated raw journal frames
}

// AppendFrame encodes f onto dst and returns the extended slice.
func AppendFrame(dst []byte, f Frame) []byte {
	var fixed [frameFixed]byte
	binary.LittleEndian.PutUint64(fixed[:], f.Epoch)
	binary.LittleEndian.PutUint64(fixed[8:], f.LeaderSeq)
	return frame.Append(dst, f.Kind, fixed[:], f.Records)
}

// DecodeFrame parses one frame from the front of b, returning it and the
// number of bytes consumed. frame.ErrShort means b ends mid-frame (a torn
// read — wait for more bytes); any other error means the bytes can never
// parse and the stream must be abandoned. Records aliases b.
func DecodeFrame(b []byte) (Frame, int, error) {
	kind, payload, n, err := frame.Decode(b)
	if err != nil {
		return Frame{}, 0, err
	}
	switch {
	case kind < FrameHandshake || kind > FrameHeartbeat:
		return Frame{}, 0, fmt.Errorf("replica: unknown frame kind %d", kind)
	case len(payload) < frameFixed:
		return Frame{}, 0, fmt.Errorf("replica: frame payload of %d bytes", len(payload))
	case kind != FrameRecords && len(payload) != frameFixed:
		return Frame{}, 0, fmt.Errorf("replica: %d-byte payload on control frame kind %d", len(payload), kind)
	case kind == FrameRecords && len(payload) == frameFixed:
		return Frame{}, 0, errors.New("replica: empty records frame")
	}
	f := Frame{
		Kind:      kind,
		Epoch:     binary.LittleEndian.Uint64(payload),
		LeaderSeq: binary.LittleEndian.Uint64(payload[8:]),
	}
	if kind == FrameRecords {
		f.Records = payload[frameFixed:]
	}
	return f, n, nil
}
