// Package frame is the one envelope the serving plane's byte streams
// share — the /v1/watch change feed (internal/serve) and the replication
// stream (internal/replica) both wrap their payloads as
//
//	u8 kind | u32 payload len | u32 CRC-32C(payload) | payload
//
// with little-endian integers. The envelope knows nothing about kinds or
// payload layouts: each stream validates its own kind range and parses
// its own payload on top of Decode. (The WAL's on-disk headers — journal
// records and .ckpt files — have their own layouts, which are a
// disk-compatibility contract and deliberately not this one.)
package frame

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
)

const (
	// HeaderSize is the envelope's fixed prefix: u8 kind + u32 len + u32 crc.
	HeaderSize = 9
	// MaxPayload bounds a frame's payload; a length prefix past it is
	// corruption rather than an allocation request.
	MaxPayload = 1 << 28
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Checksum is the CRC-32C the envelope covers its payload with, exported
// for the small fixed-size records (the replica epoch file) that guard
// themselves with the same polynomial.
func Checksum(b []byte) uint32 { return crc32.Checksum(b, castagnoli) }

// ErrShort reports that a buffer holds only a prefix of a frame: read
// more bytes and retry. Every other decode error is corruption (or a
// version skew) and must drop the connection.
var ErrShort = errors.New("frame: short frame")

// Append encodes one frame onto dst — the payload is the concatenation
// of parts — and returns the extended slice.
func Append(dst []byte, kind byte, parts ...[]byte) []byte {
	start := len(dst)
	dst = append(dst, kind, 0, 0, 0, 0, 0, 0, 0, 0)
	for _, p := range parts {
		dst = append(dst, p...)
	}
	payload := dst[start+HeaderSize:]
	binary.LittleEndian.PutUint32(dst[start+1:], uint32(len(payload)))
	binary.LittleEndian.PutUint32(dst[start+5:], Checksum(payload))
	return dst
}

// Decode parses one frame from the front of b, returning its kind, its
// CRC-verified payload (aliasing b) and the number of bytes consumed.
// ErrShort means b ends mid-frame (a torn read — wait for more bytes);
// any other error means the bytes can never parse and the stream must be
// abandoned.
func Decode(b []byte) (kind byte, payload []byte, n int, err error) {
	if len(b) < HeaderSize {
		return 0, nil, 0, ErrShort
	}
	size := binary.LittleEndian.Uint32(b[1:])
	if size > MaxPayload {
		return 0, nil, 0, fmt.Errorf("frame: payload of %d bytes", size)
	}
	n = HeaderSize + int(size)
	if len(b) < n {
		return 0, nil, 0, ErrShort
	}
	payload = b[HeaderSize:n]
	if Checksum(payload) != binary.LittleEndian.Uint32(b[5:]) {
		return 0, nil, 0, errors.New("frame: fails CRC")
	}
	return b[0], payload, n, nil
}
