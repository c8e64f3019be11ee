package tuple

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
)

// Deterministic binary encoding for fields and tuples.
//
// The encoding is self-delimiting and canonical: equal tuples always
// produce identical byte strings, which the BFT substrate relies on for
// request digests and reply voting.
//
// Layout:
//
//	field  := mode:uint8 payload
//	payload(value)    := kind:uint8 data
//	payload(wildcard) := (empty)
//	payload(formal)   := len:uvarint name-bytes
//	data(int)    := zigzag-uvarint
//	data(string) := len:uvarint bytes
//	data(bool)   := uint8 (0 or 1)
//	data(bytes)  := len:uvarint bytes
//	tuple  := arity:uvarint field*

// ErrBadEncoding is returned when decoding malformed tuple bytes.
var ErrBadEncoding = errors.New("tuple: bad encoding")

// AppendField appends the canonical encoding of f to dst.
func AppendField(dst []byte, f Field) []byte {
	dst = append(dst, byte(f.mode))
	switch f.mode {
	case modeWildcard:
	case modeFormal:
		dst = binary.AppendUvarint(dst, uint64(len(f.s)))
		dst = append(dst, f.s...)
	case modeValue:
		dst = append(dst, byte(f.kind))
		switch f.kind {
		case KindInt:
			dst = binary.AppendUvarint(dst, zigzag(f.i))
		case KindString, KindBytes:
			dst = binary.AppendUvarint(dst, uint64(len(f.s)))
			dst = append(dst, f.s...)
		case KindBool:
			dst = append(dst, byte(f.i))
		}
	}
	return dst
}

// Append appends the canonical encoding of t to dst.
func Append(dst []byte, t Tuple) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(t.fields)))
	for _, f := range t.fields {
		dst = AppendField(dst, f)
	}
	return dst
}

// Encode returns the canonical encoding of t.
func Encode(t Tuple) []byte { return Append(nil, t) }

// DecodeField decodes one field from b, returning the field and the
// number of bytes consumed.
func DecodeField(b []byte) (Field, int, error) {
	if len(b) == 0 {
		return Field{}, 0, fmt.Errorf("%w: empty field", ErrBadEncoding)
	}
	mode := fieldMode(b[0])
	n := 1
	switch mode {
	case modeWildcard:
		return Field{mode: modeWildcard}, n, nil
	case modeFormal:
		s, m, err := decodeString(b[n:])
		if err != nil {
			return Field{}, 0, err
		}
		return Field{mode: modeFormal, s: s}, n + m, nil
	case modeValue:
		if len(b) < n+1 {
			return Field{}, 0, fmt.Errorf("%w: truncated kind", ErrBadEncoding)
		}
		kind := Kind(b[n])
		n++
		switch kind {
		case KindInt:
			u, m := binary.Uvarint(b[n:])
			if m <= 0 {
				return Field{}, 0, fmt.Errorf("%w: bad int", ErrBadEncoding)
			}
			return Field{mode: modeValue, kind: KindInt, i: unzigzag(u)}, n + m, nil
		case KindString:
			s, m, err := decodeString(b[n:])
			if err != nil {
				return Field{}, 0, err
			}
			return Field{mode: modeValue, kind: KindString, s: s}, n + m, nil
		case KindBool:
			if len(b) < n+1 {
				return Field{}, 0, fmt.Errorf("%w: truncated bool", ErrBadEncoding)
			}
			var v int64
			if b[n] != 0 {
				v = 1
			}
			return Field{mode: modeValue, kind: KindBool, i: v}, n + 1, nil
		case KindBytes:
			s, m, err := decodeString(b[n:])
			if err != nil {
				return Field{}, 0, err
			}
			return Field{mode: modeValue, kind: KindBytes, s: s}, n + m, nil
		default:
			return Field{}, 0, fmt.Errorf("%w: unknown kind %d", ErrBadEncoding, kind)
		}
	default:
		return Field{}, 0, fmt.Errorf("%w: unknown mode %d", ErrBadEncoding, mode)
	}
}

// Decode decodes one tuple from b, returning the tuple and the number of
// bytes consumed.
func Decode(b []byte) (Tuple, int, error) {
	arity, n := binary.Uvarint(b)
	if n <= 0 {
		return Tuple{}, 0, fmt.Errorf("%w: bad arity", ErrBadEncoding)
	}
	if arity > math.MaxInt32 {
		return Tuple{}, 0, fmt.Errorf("%w: arity %d too large", ErrBadEncoding, arity)
	}
	fields := make([]Field, 0, arity)
	for i := uint64(0); i < arity; i++ {
		f, m, err := DecodeField(b[n:])
		if err != nil {
			return Tuple{}, 0, err
		}
		fields = append(fields, f)
		n += m
	}
	return Tuple{fields: fields}, n, nil
}

func decodeString(b []byte) (string, int, error) {
	l, n := binary.Uvarint(b)
	if n <= 0 {
		return "", 0, fmt.Errorf("%w: bad length", ErrBadEncoding)
	}
	if uint64(len(b)-n) < l {
		return "", 0, fmt.Errorf("%w: truncated string", ErrBadEncoding)
	}
	return string(b[n : n+int(l)]), n + int(l), nil
}

func zigzag(v int64) uint64   { return uint64((v << 1) ^ (v >> 63)) }
func unzigzag(u uint64) int64 { return int64(u>>1) ^ -int64(u&1) }
