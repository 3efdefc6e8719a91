// The /v1/lookup bodies, encoded by append and decoded by scan. A point
// lookup and the whole-map read are the routes whose cost is the body, so
// these two objects skip encoding/json's reflection; the bytes are the
// same ones json.NewEncoder(w).Encode writes (trailing newline included),
// so there is still one wire format and any JSON reader decodes it.
// TestLookupBodiesMatchEncodingJSON and FuzzParseResync hold both ends to
// encoding/json.
package api

import (
	"bytes"
	"fmt"
	"math"
	"slices"
	"strconv"
)

// AppendLookup appends r as the GET /v1/lookup?v=ID body. 128 bytes of
// capacity hold any value.
func AppendLookup(dst []byte, r LookupResponse) []byte {
	dst = append(dst, `{"vertex":`...)
	dst = strconv.AppendInt(dst, r.Vertex, 10)
	dst = append(dst, `,"partition":`...)
	dst = strconv.AppendInt(dst, int64(r.Partition), 10)
	dst = append(dst, `,"version":`...)
	dst = strconv.AppendUint(dst, r.Version, 10)
	dst = append(dst, `,"k":`...)
	dst = strconv.AppendInt(dst, int64(r.K), 10)
	return append(dst, "}\n"...)
}

// AppendResync appends r as the GET /v1/lookup whole-map body, growing
// dst once: a label in [0,K) takes at most K's digits plus a comma.
func AppendResync(dst []byte, r ResyncResponse) []byte {
	perLabel := len(strconv.Itoa(r.K)) + 1
	dst = slices.Grow(dst, 96+len(r.Labels)*perLabel)
	dst = append(dst, `{"k":`...)
	dst = strconv.AppendInt(dst, int64(r.K), 10)
	dst = append(dst, `,"vertices":`...)
	dst = strconv.AppendInt(dst, int64(r.Vertices), 10)
	dst = append(dst, `,"labels":`...)
	if r.Labels == nil {
		dst = append(dst, "null"...)
	} else {
		dst = append(dst, '[')
		for i, l := range r.Labels {
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = strconv.AppendInt(dst, int64(l), 10)
		}
		dst = append(dst, ']')
	}
	dst = append(dst, `,"from_seq":`...)
	dst = strconv.AppendUint(dst, r.FromSeq, 10)
	return append(dst, "}\n"...)
}

// ParseResync decodes a GET /v1/lookup whole-map body. It accepts exactly
// this object and nothing else JSON allows: the four known keys, each at
// most once and in any order (an absent key leaves its zero value, as
// encoding/json does), JSON whitespace between tokens, integers in range
// for their field, and null or an array for labels. An unknown or escaped
// key, a float, a string or null where an integer belongs, and bytes
// after the object are errors.
func ParseResync(data []byte) (ResyncResponse, error) {
	var r ResyncResponse
	s := scanner{data: data}
	if s.token() != '{' {
		return r, s.errorf("want '{'")
	}
	var seen [len(resyncKeys)]bool
	c := s.token()
	for c != '}' {
		if c != '"' {
			return r, s.errorf("want a key")
		}
		end := bytes.IndexByte(s.data[s.pos:], '"')
		if end < 0 {
			return r, s.errorf("unterminated key")
		}
		key := string(s.data[s.pos : s.pos+end])
		field := slices.Index(resyncKeys[:], key)
		if field < 0 || seen[field] {
			return r, s.errorf("unknown or repeated key %q", key)
		}
		seen[field] = true
		s.pos += end + 1
		if s.token() != ':' {
			return r, s.errorf("want ':'")
		}
		s.space()
		var v int64
		var err error
		switch field {
		case 0: // k
			v, err = s.integer(strconv.IntSize)
			r.K = int(v)
		case 1: // vertices
			v, err = s.integer(strconv.IntSize)
			r.Vertices = int(v)
		case 2: // labels
			r.Labels, err = s.labels()
		case 3: // from_seq
			var neg bool
			r.FromSeq, neg, err = s.number()
			if err == nil && neg {
				err = s.errorf("from_seq is negative")
			}
		}
		if err != nil {
			return r, err
		}
		if c = s.token(); c == ',' {
			if c = s.token(); c == '}' {
				return r, s.errorf("trailing comma")
			}
		} else if c != '}' {
			return r, s.errorf("want ',' or '}'")
		}
	}
	if s.space(); s.pos != len(s.data) {
		return r, s.errorf("bytes after the object")
	}
	return r, nil
}

// resyncKeys are ResyncResponse's JSON keys in field order.
var resyncKeys = [...]string{"k", "vertices", "labels", "from_seq"}

// scanner walks one JSON document left to right.
type scanner struct {
	data []byte
	pos  int
}

func (s *scanner) errorf(format string, args ...any) error {
	return fmt.Errorf("api: lookup body at byte %d: %s", s.pos, fmt.Sprintf(format, args...))
}

// space skips JSON whitespace.
func (s *scanner) space() {
	for s.pos < len(s.data) {
		switch s.data[s.pos] {
		case ' ', '\t', '\n', '\r':
			s.pos++
		default:
			return
		}
	}
}

// token skips whitespace and consumes one byte; 0 (no JSON token) at the
// end of the input.
func (s *scanner) token() byte {
	s.space()
	if s.pos == len(s.data) {
		return 0
	}
	s.pos++
	return s.data[s.pos-1]
}

// number scans a JSON integer, -?(0|[1-9][0-9]*), as magnitude and sign.
// A fraction or exponent is left unread, so whatever expects the next
// token refuses it.
func (s *scanner) number() (mag uint64, neg bool, err error) {
	d, i := s.data, s.pos
	if i < len(d) && d[i] == '-' {
		neg = true
		i++
	}
	start := i
	for ; i < len(d) && d[i]-'0' <= 9; i++ {
		c := uint64(d[i] - '0')
		// Nineteen digits fit; only a twentieth can overflow.
		if i-start >= 19 && mag > (math.MaxUint64-c)/10 {
			s.pos = i
			return 0, neg, s.errorf("integer overflows 64 bits")
		}
		mag = mag*10 + c
	}
	s.pos = i
	if i == start || (d[start] == '0' && i-start > 1) {
		return 0, neg, s.errorf("want an integer")
	}
	return mag, neg, nil
}

// integer scans a JSON integer that fits a signed type of the given width.
func (s *scanner) integer(bits int) (int64, error) {
	mag, neg, err := s.number()
	if err != nil {
		return 0, err
	}
	limit := uint64(1)<<(bits-1) - 1
	if neg {
		limit++
	}
	if mag > limit {
		return 0, s.errorf("integer out of range for int%d", bits)
	}
	if neg {
		return -int64(mag), nil
	}
	return int64(mag), nil
}

// labels scans null (nil) or an array of int32. The slice is allocated
// once: the commas left in the input bound the element count.
func (s *scanner) labels() ([]int32, error) {
	if bytes.HasPrefix(s.data[s.pos:], []byte("null")) {
		s.pos += 4
		return nil, nil
	}
	if s.token() != '[' {
		return nil, s.errorf("want '[' or null")
	}
	labels := make([]int32, 0, bytes.Count(s.data[s.pos:], []byte(","))+1)
	if s.space(); s.pos < len(s.data) && s.data[s.pos] == ']' {
		s.pos++
		return labels, nil
	}
	for {
		s.space()
		v, err := s.integer(32)
		if err != nil {
			return nil, err
		}
		labels = append(labels, int32(v))
		switch s.token() {
		case ']':
			return labels, nil
		case ',':
		default:
			return nil, s.errorf("want ',' or ']'")
		}
	}
}
