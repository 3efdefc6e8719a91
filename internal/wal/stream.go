package wal

// Replication read path: a leader streams its journal to followers in the
// exact on-disk frame format (u32 len | u32 crc | payload), so the wire
// needs no second encoding and the follower can verify every frame with
// the same CRC the journal uses. Tail is the leader-side cursor, one per
// stream, serving catch-up and live tailing alike: it holds the current
// segment open with the byte offset of the first frame it has not
// consumed, so each Next reads only what was appended since the last one.
// The caller passes the journal's acknowledged sequence (a position whose
// write — and, under SyncAlways, fsync — has returned) and Next never
// parses past it, so a torn tail cannot be seen: every byte it looks at
// was written in full, and a frame that fails to parse is corruption.
// Segment names make stepping free of directory scans — the record after
// the last one in a drained segment opens the file named after it.
// DecodeRecords is the follower-side iterator over a received chunk.

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
)

// ErrGap is OpenTail's report that the journal no longer holds
// afterSeq+1 (truncated below the caller's position): the caller must
// re-bootstrap from a checkpoint.
var ErrGap = errors.New("wal: journal truncated past the requested sequence")

// Tail is a forward cursor over a journal directory that a Journal may
// be appending to. Not safe for concurrent use.
type Tail struct {
	dir  string
	f    *os.File // segment holding record pos+1; nil until it is needed
	off  int64    // offset in f of the first unconsumed frame
	pos  uint64   // last sequence consumed
	skip uint64   // frames with seq <= skip are consumed but not returned
	buf  []byte   // read buffer, reused; Next's result aliases it
}

// OpenTail positions a cursor after record afterSeq. The one directory
// scan of a cursor's life happens here, and so does gap detection: once
// open, the streaming leader pins retention above the cursor's position.
func OpenTail(dir string, afterSeq uint64) (*Tail, error) {
	segs, err := listSegments(dir)
	if err != nil {
		return nil, err
	}
	t := &Tail{dir: dir, pos: afterSeq, skip: afterSeq}
	i := len(segs) - 1
	for i >= 0 && segs[i].first > afterSeq+1 {
		i--
	}
	if i < 0 {
		if len(segs) > 0 {
			return nil, fmt.Errorf("%w: starts at seq %d, need %d", ErrGap, segs[0].first, afterSeq+1)
		}
		return t, nil // empty journal: the first record will open its segment
	}
	if t.f, err = os.Open(segs[i].path); err != nil {
		return nil, err
	}
	t.pos = segs[i].first - 1
	return t, nil
}

// Next returns the raw, CRC-verified frames of the records after the
// cursor with Seq <= upTo, concatenated in sequence order, at most
// maxBytes of them (the cut is always on a frame boundary; a single
// larger frame is still returned whole), and the sequence of the last
// one. No frames means the cursor has reached upTo. upTo must not exceed
// the journal's acknowledged position. The result aliases the cursor's
// buffer and is valid until the next call.
func (t *Tail) Next(upTo uint64, maxBytes int) (frames []byte, last uint64, err error) {
	size := max(maxBytes, frameHeader)
	for t.pos < upTo {
		if t.f == nil {
			if t.f, err = os.Open(filepath.Join(t.dir, segName(t.pos+1))); err != nil {
				return nil, 0, err
			}
			t.off = 0
		}
		if cap(t.buf) < size {
			t.buf = make([]byte, size)
		}
		n, err := t.f.ReadAt(t.buf[:size], t.off)
		if err != nil && err != io.EOF {
			return nil, 0, err
		}
		if n == 0 && t.off > 0 {
			// Drained, yet pos+1 is acknowledged: it opens the next segment.
			t.f.Close()
			t.f = nil
			continue
		}
		data, start, end := t.buf[:n], 0, 0
		for t.pos < upTo {
			frameLen, payload, ok := readFrame(data[end:])
			if !ok {
				break
			}
			if seq := binary.LittleEndian.Uint64(payload); seq != t.pos+1 {
				return nil, 0, fmt.Errorf("wal: %s+%d: seq %d, want %d", t.f.Name(), t.off+int64(end), seq, t.pos+1)
			}
			t.pos++
			end += frameLen
			if t.pos <= t.skip {
				start = end
			}
		}
		t.off += int64(end)
		if end > start {
			return data[start:end], t.pos, nil
		}
		if end == 0 {
			// Not one whole frame in a full buffer: a frame larger than
			// maxBytes, if the file really holds that many bytes.
			if n == size {
				if need := t.frameBytes(data); need > size {
					size = need
					continue
				}
			}
			return nil, 0, fmt.Errorf("wal: corrupt frame at %s+%d, below the acknowledged seq %d", t.f.Name(), t.off, upTo)
		}
	}
	return nil, 0, nil
}

// frameBytes returns the size of the frame whose header starts data, or 0
// when the length prefix is out of range or runs past the end of the file.
func (t *Tail) frameBytes(data []byte) int {
	n := int64(binary.LittleEndian.Uint32(data))
	fi, err := t.f.Stat()
	if n < recHeader || n > MaxRecordBytes || err != nil || t.off+frameHeader+n > fi.Size() {
		return 0
	}
	return frameHeader + int(n)
}

// Close releases the open segment.
func (t *Tail) Close() error {
	if t.f == nil {
		return nil
	}
	return t.f.Close()
}

// DecodeRecords iterates the records in a buffer of concatenated journal
// frames (the Tail.Next wire format), invoking fn for each in
// order. Unlike Replay there is no torn-tail tolerance: the buffer
// arrived inside an integrity-checked transport frame, so a frame that
// fails to parse means corruption (or a version skew), and trailing
// garbage is an error rather than a crash artifact.
func DecodeRecords(b []byte, fn func(Record) error) error {
	off := 0
	for off < len(b) {
		frameLen, payload, ok := readFrame(b[off:])
		if !ok {
			return fmt.Errorf("wal: bad journal frame at offset %d of %d-byte chunk", off, len(b))
		}
		rec, err := decodePayload(payload)
		if err != nil {
			return err
		}
		if err := fn(rec); err != nil {
			return err
		}
		off += frameLen
	}
	return nil
}
