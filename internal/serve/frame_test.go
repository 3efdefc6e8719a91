package serve

import (
	"bytes"
	"testing"
)

// FuzzWatchFrame covers the watch payload layouts and kind range on top
// of the shared envelope (which has its own target in internal/frame).
func FuzzWatchFrame(f *testing.F) {
	f.Add(AppendWatchFrame(nil, WatchFrame{Kind: WatchHandshake, Floor: 1, Next: 9}))
	f.Add(AppendWatchFrame(nil, WatchFrame{Kind: WatchHeartbeat, Floor: 3, Next: 12}))
	f.Add(AppendWatchFrame(nil, WatchFrame{Kind: WatchDelta, Delta: []byte{1, 2, 3, 4, 5}}))
	f.Add([]byte{})
	f.Add([]byte{2, 0, 0, 0})
	f.Fuzz(func(t *testing.T, b []byte) {
		fr, n, err := DecodeWatchFrame(b)
		if err != nil {
			if n != 0 {
				t.Fatalf("error with %d bytes consumed", n)
			}
			return
		}
		if n <= 0 || n > len(b) {
			t.Fatalf("consumed %d of %d", n, len(b))
		}
		// Round-trip: re-encoding the decoded frame must reproduce the
		// consumed bytes exactly.
		enc := AppendWatchFrame(nil, fr)
		if !bytes.Equal(enc, b[:n]) {
			t.Fatalf("re-encode mismatch:\n got %x\nwant %x", enc, b[:n])
		}
		// Truncation: every strict prefix must be a short frame, never a
		// misparse.
		for cut := 0; cut < n; cut += 1 + cut/3 {
			if _, _, err := DecodeWatchFrame(b[:cut]); err == nil {
				t.Fatalf("truncated frame (%d of %d bytes) decoded", cut, n)
			}
		}
	})
}
