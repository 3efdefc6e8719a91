// The /v1/lookup bodies, encoded by append and decoded by scan, and the
// POST /v1/mutate answer, encoded by append. A point lookup and the
// whole-map read are the routes whose cost is the body, and the mutate
// answer is written once per accepted batch, so these objects skip
// encoding/json's reflection; the bytes are the same ones
// json.NewEncoder(w).Encode writes (trailing newline included), so there
// is still one wire format and any JSON reader decodes it.
// TestLookupBodiesMatchEncodingJSON, TestMutateBodyMatchesEncodingJSON
// and FuzzParseResync hold both ends to encoding/json.
//
// The whole map is a long run of small integers, so each end has a kernel
// for one label. The encoder writes a label two digits at a time from
// digitPairs — a label below 1000, so every label of a k up to 1000, in
// one append — and calls no strconv. It takes the labels the store
// publishes, so the server never copies the map.
// The scanner takes a canonical label — 1 to 9 digits, no leading zero,
// followed at once by ',' or ']', which is what the encoder writes for
// any label in [0, 10^9) — in one tight loop. Any other bytes (whitespace,
// a sign, a leading zero, ten or more digits, a fraction) go to the
// general scanner from the same byte, so the general rules alone decide
// what the scanner accepts, refuses and returns.
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

// AppendMutate appends r as the POST /v1/mutate body, the answer to every
// accepted batch. 128 bytes of capacity hold any value.
func AppendMutate(dst []byte, r MutateResponse) []byte {
	dst = append(dst, `{"queued":`...)
	dst = strconv.AppendBool(dst, r.Queued)
	dst = append(dst, `,"adds":`...)
	dst = strconv.AppendInt(dst, int64(r.Adds), 10)
	dst = append(dst, `,"removes":`...)
	dst = strconv.AppendInt(dst, int64(r.Removes), 10)
	dst = append(dst, `,"vertices":`...)
	dst = strconv.AppendInt(dst, int64(r.Vertices), 10)
	return append(dst, "}\n"...)
}

// appendResync is the one whole-map encoder: r with its labels; nil
// labels is a null map. dst grows once: a label in [0,K) takes at most K's
// digits plus a comma.
func appendResync(dst []byte, r ResyncResponse) []byte {
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
		// Every label is followed by a comma; the last one becomes ']'.
		dst = append(dst, '[')
		for _, l := range r.Labels {
			switch u := uint32(l); {
			case u < 10:
				dst = append(dst, '0'+byte(u), ',')
			case u < 100:
				dst = append(dst, digitPairs[2*u], digitPairs[2*u+1], ',')
			case u < 1000:
				h, t := u/100, u%100
				dst = append(dst, '0'+byte(h), digitPairs[2*t], digitPairs[2*t+1], ',')
			default:
				dst = append(appendLabel(dst, l), ',')
			}
		}
		if len(r.Labels) == 0 {
			dst = append(dst, ']')
		} else {
			dst[len(dst)-1] = ']'
		}
	}
	dst = append(dst, `,"from_seq":`...)
	dst = strconv.AppendUint(dst, r.FromSeq, 10)
	return append(dst, "}\n"...)
}

// digitPairs is "00" through "99": digitPairs[2*i:2*i+2] spells i.
const digitPairs = "00010203040506070809" +
	"10111213141516171819" +
	"20212223242526272829" +
	"30313233343536373839" +
	"40414243444546474849" +
	"50515253545556575859" +
	"60616263646566676869" +
	"70717273747576777879" +
	"80818283848586878889" +
	"90919293949596979899"

// appendLabel appends l in decimal, two digits per division: a minus
// sign, then the magnitude (2^31 for MinInt32 fits a uint32).
func appendLabel(dst []byte, l int32) []byte {
	u := uint32(l)
	if l < 0 {
		dst = append(dst, '-')
		u = -u
	}
	var buf [10]byte
	i := len(buf)
	for u >= 100 {
		r := u % 100
		u /= 100
		i -= 2
		buf[i], buf[i+1] = digitPairs[2*r], digitPairs[2*r+1]
	}
	if u >= 10 {
		i -= 2
		buf[i], buf[i+1] = digitPairs[2*u], digitPairs[2*u+1]
	} else {
		i--
		buf[i] = '0' + byte(u)
	}
	return append(dst, buf[i:]...)
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
// once: the commas left in the input bound the element count. A canonical
// label is taken by the tight loop; anything else by the general scanner,
// starting at the same byte.
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
	d, i := s.data, s.pos
	for {
		if i < len(d) && d[i]-'0' <= 9 {
			v, j := uint32(d[i]-'0'), i+1
			if v != 0 {
				for ; j < len(d) && d[j]-'0' <= 9; j++ {
					v = v*10 + uint32(d[j]-'0')
				}
			}
			// A leading zero stands alone, and 9 digits stay below 2^31.
			if j-i <= 9 && j < len(d) && (d[j] == ',' || d[j] == ']') {
				labels = append(labels, int32(v))
				i = j + 1
				if d[j] == ']' {
					s.pos = i
					return labels, nil
				}
				continue
			}
		}
		s.pos = i
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
			i = s.pos
		default:
			return nil, s.errorf("want ',' or ']'")
		}
	}
}
