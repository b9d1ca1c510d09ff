package wire

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
)

// SZXB batch framing, little-endian throughout:
//
//	request:  "SZXB" | u8 version=1 | u32 count | count × (u32 len | payload)
//	response: "SZXB" | u8 version=1 | u32 count | count × (u8 status | u32 len | payload)
//
// A response entry's status is StatusOK (the payload is the result bytes)
// or StatusError (the payload is an ArrayError as JSON).
const (
	Magic   = "SZXB"
	Version = 1
	// HeaderLen is magic + version + count.
	HeaderLen = len(Magic) + 1 + 4
)

// Response entry statuses.
const (
	StatusOK    byte = 0
	StatusError byte = 1
)

// Entry is one parsed response entry; Payload is a view into the body.
type Entry struct {
	Status  byte
	Payload []byte
}

// AppendHeader starts a request or a response of count entries.
func AppendHeader(dst []byte, count int) []byte {
	dst = append(dst, Magic...)
	dst = append(dst, Version)
	return binary.LittleEndian.AppendUint32(dst, uint32(count))
}

// AppendArray appends the length prefix of an n-byte request array; the
// caller appends the n bytes.
func AppendArray(dst []byte, n int) []byte {
	return binary.LittleEndian.AppendUint32(dst, uint32(n))
}

// AppendRequest frames payloads as a whole request.
func AppendRequest(dst []byte, payloads [][]byte) []byte {
	dst = AppendHeader(dst, len(payloads))
	for _, p := range payloads {
		dst = append(AppendArray(dst, len(p)), p...)
	}
	return dst
}

// AppendResult appends the status byte and length prefix of an n-byte
// response entry; the caller appends the n bytes.
func AppendResult(dst []byte, status byte, n int) []byte {
	dst = append(dst, status)
	return binary.LittleEndian.AppendUint32(dst, uint32(n))
}

// AppendArrayError appends a whole StatusError entry carrying e.
func AppendArrayError(dst []byte, e ArrayError) []byte {
	msg, _ := json.Marshal(e) // two strings and an int always marshal
	return append(AppendResult(dst, StatusError, len(msg)), msg...)
}

// header checks an envelope and returns its entry count.
func header(body []byte) (int, error) {
	if len(body) < HeaderLen {
		return 0, fmt.Errorf("batch body too short for the SZXB header (%d bytes)", len(body))
	}
	if string(body[:4]) != Magic {
		return 0, fmt.Errorf("bad batch magic %q (want %q)", body[:4], Magic)
	}
	if body[4] != Version {
		return 0, fmt.Errorf("unsupported batch version %d (want %d)", body[4], Version)
	}
	return int(binary.LittleEndian.Uint32(body[5:HeaderLen])), nil
}

// ParseRequest validates a request envelope and returns each array as a
// view into body, reusing views' backing array. An empty batch, a count
// over maxArrays, truncated framing or trailing bytes fail the whole
// request.
func ParseRequest(views [][]byte, body []byte, maxArrays int) ([][]byte, error) {
	count, err := header(body)
	switch {
	case err != nil:
		return views[:0], err
	case count == 0:
		return views[:0], errors.New("empty batch")
	case count > maxArrays:
		return views[:0], fmt.Errorf("batch of %d arrays exceeds the %d-array limit", count, maxArrays)
	}
	views = views[:0]
	off := HeaderLen
	for i := 0; i < count; i++ {
		if len(body)-off < 4 {
			return views[:0], fmt.Errorf("batch truncated in array %d's length prefix", i)
		}
		n := int(binary.LittleEndian.Uint32(body[off:]))
		off += 4
		if len(body)-off < n {
			return views[:0], fmt.Errorf("batch truncated in array %d: frame declares %d bytes, %d remain", i, n, len(body)-off)
		}
		views = append(views, body[off:off+n])
		off += n
	}
	if off != len(body) {
		return views[:0], fmt.Errorf("%d trailing bytes after the last array", len(body)-off)
	}
	return views, nil
}

// ParseResponse validates a response envelope and returns its entries,
// reusing entries' backing array. Truncated framing, an unknown status or
// trailing bytes fail the whole response.
func ParseResponse(entries []Entry, body []byte) ([]Entry, error) {
	count, err := header(body)
	if err != nil {
		return entries[:0], err
	}
	entries = entries[:0]
	off := HeaderLen
	for i := 0; i < count; i++ {
		if len(body)-off < 5 {
			return entries[:0], fmt.Errorf("batch response truncated at array %d", i)
		}
		status, n := body[off], int(binary.LittleEndian.Uint32(body[off+1:]))
		off += 5
		if status != StatusOK && status != StatusError {
			return entries[:0], fmt.Errorf("batch response array %d has unknown status %d", i, status)
		}
		if len(body)-off < n {
			return entries[:0], fmt.Errorf("batch response truncated in array %d", i)
		}
		entries = append(entries, Entry{status, body[off : off+n]})
		off += n
	}
	if off != len(body) {
		return entries[:0], fmt.Errorf("%d trailing bytes after the last array", len(body)-off)
	}
	return entries, nil
}
