package frame

import (
	"bytes"
	"encoding/binary"
	"errors"
	"testing"
)

func TestAppendDecode(t *testing.T) {
	buf := Append(nil, 7, []byte("ab"), nil, []byte("cde"))
	buf = Append(buf, 1) // empty payload, chained on the same buffer
	kind, payload, n, err := Decode(buf)
	if err != nil || kind != 7 || string(payload) != "abcde" || n != HeaderSize+5 {
		t.Fatalf("first frame: kind %d payload %q n %d err %v", kind, payload, n, err)
	}
	kind, payload, n2, err := Decode(buf[n:])
	if err != nil || kind != 1 || len(payload) != 0 || n+n2 != len(buf) {
		t.Fatalf("second frame: kind %d payload %q n %d err %v", kind, payload, n2, err)
	}
	for cut := 0; cut < n; cut++ {
		if _, _, _, err := Decode(buf[:cut]); !errors.Is(err, ErrShort) {
			t.Fatalf("prefix of %d bytes: err %v, want ErrShort", cut, err)
		}
	}
	flipped := append([]byte(nil), buf...)
	flipped[HeaderSize] ^= 1
	if _, _, _, err := Decode(flipped); err == nil || errors.Is(err, ErrShort) {
		t.Fatalf("payload bit flip: err %v, want a CRC failure", err)
	}
	huge := append([]byte(nil), buf...)
	binary.LittleEndian.PutUint32(huge[1:], MaxPayload+1)
	if _, _, _, err := Decode(huge); err == nil || errors.Is(err, ErrShort) {
		t.Fatalf("oversized length prefix: err %v, want rejection (not a wait for %d bytes)", err, MaxPayload+1)
	}
}

// FuzzDecode is the envelope's one fuzz target: Decode must never panic
// or over-read, a success must re-encode to exactly the consumed bytes,
// and every strict prefix of a valid frame must be short, never a
// misparse.
func FuzzDecode(f *testing.F) {
	f.Add(Append(nil, 1, make([]byte, 16)))
	f.Add(Append(nil, 2, []byte{1, 2, 3, 4, 5}))
	f.Add(Append(Append(nil, 3), 4, []byte("tail")))
	f.Add([]byte{})
	f.Add([]byte{2, 0, 0, 0})
	f.Add([]byte{2, 0xff, 0xff, 0xff, 0xff, 0, 0, 0, 0})
	f.Fuzz(func(t *testing.T, b []byte) {
		kind, payload, n, err := Decode(b)
		if err != nil {
			if n != 0 || payload != nil {
				t.Fatalf("error %v with n=%d payload=%x", err, n, payload)
			}
			return
		}
		if n != HeaderSize+len(payload) || n > len(b) {
			t.Fatalf("consumed %d of %d bytes for a %d-byte payload", n, len(b), len(payload))
		}
		if enc := Append(nil, kind, payload); !bytes.Equal(enc, b[:n]) {
			t.Fatalf("re-encode mismatch:\n got %x\nwant %x", enc, b[:n])
		}
		for cut := 0; cut < n; cut += 1 + cut/3 {
			if _, _, _, err := Decode(b[:cut]); !errors.Is(err, ErrShort) {
				t.Fatalf("prefix (%d of %d bytes): err %v, want ErrShort", cut, n, err)
			}
		}
	})
}
