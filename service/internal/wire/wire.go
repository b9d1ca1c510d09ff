// Package wire is the szxd wire contract, declared once for the server
// (package service) and its client (package service/client): the SZXB
// batch framing, the JSON error bodies and their codes, the query-string
// options, and the header names both sides read.
package wire

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"time"

	szx "repro"
)

// Header names. The server answers every data request with its trace ID in
// TraceIDHeader; a caller supplies its own trace in TraceparentHeader
// (version-00 format, see telemetry/trace). Shed responses carry
// RetryAfterHeader.
const (
	TraceIDHeader     = "Szx-Trace-Id"
	TraceparentHeader = "Traceparent"
	RetryAfterHeader  = "Retry-After"
)

// FormatRetryAfter renders d as a Retry-After value: whole seconds, at
// least 1, so the hint is never "now".
func FormatRetryAfter(d time.Duration) string {
	return strconv.Itoa(max(int(d.Seconds()), 1))
}

// ParseRetryAfter reads a Retry-After value in seconds; 0 if v is absent
// or not a number.
func ParseRetryAfter(v string) time.Duration {
	secs, err := strconv.Atoi(v)
	if err != nil {
		return 0
	}
	return time.Duration(secs) * time.Second
}

// Error codes: the service's stable vocabulary for what went wrong.
const (
	CodeBadRequest = "bad_request" // malformed parameters or payload shape
	CodeBadOptions = "bad_options" // options rejected by szx validation (szx.ErrBadOptions)
	CodeCorrupt    = "corrupt"     // stream failed validation during decode
	CodeWrongType  = "wrong_type"  // f32 stream sent to f64 decode or vice versa
	CodeTooLarge   = "too_large"   // body exceeds the server's body cap
	CodeOverloaded = "overloaded"  // shed by admission control (retryable)
	CodeDraining   = "draining"    // server shutting down (retry elsewhere)
	CodeCancelled  = "cancelled"   // client went away mid-request
	CodeInternal   = "internal"    // anything the server cannot blame on the client
)

// codes maps each code to its HTTP status and to the szx sentinel a client
// error with that code unwraps to. CodeOf takes the first row that matches,
// so ErrBadOptions, which can wrap ErrErrBound, comes before bad_request.
var codes = [...]struct {
	code     string
	status   int
	sentinel error   // nil: no szx error stands for this code
	also     []error // further errors the server reports under this code
}{
	{CodeBadOptions, http.StatusBadRequest, szx.ErrBadOptions, nil},
	{CodeWrongType, http.StatusBadRequest, szx.ErrWrongType, nil},
	{CodeCorrupt, http.StatusBadRequest, szx.ErrCorrupt, []error{szx.ErrBadMagic, szx.ErrBadVersion, szx.ErrStream}},
	{CodeBadRequest, http.StatusBadRequest, nil, []error{szx.ErrErrBound, szx.ErrBlockSize, szx.ErrDegenerateRange, ErrQuery}},
	{CodeTooLarge, http.StatusRequestEntityTooLarge, nil, nil},
	{CodeOverloaded, http.StatusTooManyRequests, nil, nil},
	{CodeDraining, http.StatusServiceUnavailable, nil, nil},
	// nginx's non-standard 499: the client hung up before a response. It
	// never reaches the client but keeps access logs honest.
	{CodeCancelled, 499, nil, nil},
	{CodeInternal, http.StatusInternalServerError, nil, nil},
}

// Status is the HTTP status the server answers code with; 500 for a code
// it does not know.
func Status(code string) int {
	for _, c := range codes {
		if c.code == code {
			return c.status
		}
	}
	return http.StatusInternalServerError
}

// Sentinel is the szx error a client error carrying code unwraps to, so
// errors.Is works on a remote failure as on a local one; nil if none.
func Sentinel(code string) error {
	for _, c := range codes {
		if c.code == code {
			return c.sentinel
		}
	}
	return nil
}

// CodeOf classifies an error from the codec or from ParseQuery:
// client-attributable failures get a 400 code, anything else is internal.
func CodeOf(err error) string {
	for _, c := range codes {
		if c.sentinel != nil && errors.Is(err, c.sentinel) {
			return c.code
		}
		for _, e := range c.also {
			if errors.Is(err, e) {
				return c.code
			}
		}
	}
	return CodeInternal
}

// Error is the JSON body of every non-2xx response from a data endpoint.
// Frame and Offset locate a failure inside a streaming container.
type Error struct {
	Code    string `json:"code"`
	Message string `json:"error"`
	Frame   int    `json:"frame,omitempty"`
	Offset  int64  `json:"offset,omitempty"`
}

// WriteError sends e with the status its code maps to, and a Retry-After
// hint when retryAfter is positive.
func WriteError(w http.ResponseWriter, e Error, retryAfter time.Duration) {
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	if retryAfter > 0 {
		w.Header().Set(RetryAfterHeader, FormatRetryAfter(retryAfter))
	}
	w.WriteHeader(Status(e.Code))
	_ = json.NewEncoder(w).Encode(e)
}

// ParseError reads an error body; ok is false unless b is JSON carrying a
// code (an intermediary's plain-text error, say).
func ParseError(b []byte) (e Error, ok bool) {
	err := json.Unmarshal(b, &e)
	return e, err == nil && e.Code != ""
}

// ArrayError is one array's failure inside an otherwise successful batch:
// the JSON payload of a status-1 SZXB response entry. Index always
// serializes, so array 0 is attributable. It unwraps to the szx sentinels
// as the client's request-level error does.
type ArrayError struct {
	Code    string `json:"code"` // wire error code ("corrupt", "wrong_type", ...)
	Message string `json:"error"`
	Index   int    `json:"index"` // position in the request batch
}

func (e *ArrayError) Error() string {
	return fmt.Sprintf("szxd: array %d: %s (%s)", e.Index, e.Message, e.Code)
}

func (e *ArrayError) Unwrap() error { return Sentinel(e.Code) }

// ParseArrayError reads a status-1 entry's payload; ok is false unless b
// is JSON carrying a code.
func ParseArrayError(b []byte) (e ArrayError, ok bool) {
	err := json.Unmarshal(b, &e)
	return e, err == nil && e.Code != ""
}
