package replica

import (
	"bytes"
	"encoding/hex"
	"testing"
)

// Replication stream frames as they appeared on the wire at commit
// 21e3f19, before the envelope moved to internal/frame. The records
// payload is a real two-record journal (journalFrames); its second record,
// a resize (type 2) then, became a relabel (type 3) when a resize began
// to journal its relabel.
func TestGoldenStreamFrames(t *testing.T) {
	const journal = "21000000" + "42e85643" + "0100000000000000" + "01" +
		"02000000" + "01000000" + "00000000" + "01000000" + "03000000" + "00000000" +
		"0c000000" + "15d23f51" + "0200000000000000" + "03" + "020005"
	records := journalFrames(t)
	if g := hex.EncodeToString(records); g != journal {
		t.Fatalf("journal frames changed:\n got %s\nwant %s", g, journal)
	}
	for _, tc := range []struct {
		name string
		f    Frame
		want string
	}{
		{"handshake", Frame{Kind: FrameHandshake, Epoch: 2, LeaderSeq: 41},
			"0110000000" + "83eb83a5" + "0200000000000000" + "2900000000000000"},
		{"records", Frame{Kind: FrameRecords, Epoch: 2, LeaderSeq: 43, Records: records},
			"024d000000" + "17d9d8cf" + "0200000000000000" + "2b00000000000000" + journal},
		{"heartbeat", Frame{Kind: FrameHeartbeat, Epoch: 2, LeaderSeq: 43},
			"0310000000" + "cd11fb37" + "0200000000000000" + "2b00000000000000"},
	} {
		enc := AppendFrame(nil, tc.f)
		if g := hex.EncodeToString(enc); g != tc.want {
			t.Errorf("%s bytes changed:\n got %s\nwant %s", tc.name, g, tc.want)
		}
		got, n, err := DecodeFrame(enc)
		if err != nil || n != len(enc) {
			t.Fatalf("%s: decode n=%d err=%v", tc.name, n, err)
		}
		if got.Kind != tc.f.Kind || got.Epoch != tc.f.Epoch || got.LeaderSeq != tc.f.LeaderSeq || !bytes.Equal(got.Records, tc.f.Records) {
			t.Fatalf("%s: round trip %+v, want %+v", tc.name, got, tc.f)
		}
	}
}
