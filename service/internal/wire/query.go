package wire

import (
	"errors"
	"fmt"
	"net/url"
	"strconv"

	szx "repro"
)

// Element types, the t= option. An empty one leaves the choice to the
// endpoint: f32, the only type the streaming endpoints carry.
const (
	ElemF32 = "f32"
	ElemF64 = "f64"
)

// Params is the query-string form of szx.Options. A zero field is left
// off the wire and means "server default"; any other value is sent, and
// the server answers an invalid one with a 400. Mode is sent only when it
// is BoundRelative: szx reads every other Mode as absolute.
type Params struct {
	ErrorBound  float64  // 0 = server default
	TargetRatio float64  // fixed-ratio mode; mutually exclusive with ErrorBound
	Mode        szx.Mode // BoundAbsolute or BoundRelative
	BlockSize   int      // 0 = server default
	Workers     int      // 0 = server default, -1 = server max, else capped by server
}

// ErrQuery is wrapped by every error ParseQuery returns.
var ErrQuery = errors.New("bad query")

// Encode returns p as a query string, with t=elem unless elem is empty.
func (p Params) Encode(elem string) string {
	q := url.Values{}
	if elem != "" {
		q.Set("t", elem)
	}
	if p.ErrorBound != 0 {
		q.Set("e", strconv.FormatFloat(p.ErrorBound, 'g', -1, 64))
	}
	if p.TargetRatio != 0 {
		q.Set("ratio", strconv.FormatFloat(p.TargetRatio, 'g', -1, 64))
	}
	if p.Mode == szx.BoundRelative {
		q.Set("mode", "rel")
	}
	if p.BlockSize != 0 {
		q.Set("block", strconv.Itoa(p.BlockSize))
	}
	if p.Workers != 0 {
		q.Set("workers", strconv.Itoa(p.Workers))
	}
	return q.Encode()
}

// ParseQuery reads the options Encode writes, rejecting malformed values
// and workers below -1; whether the values make valid szx.Options is the
// server's call.
func ParseQuery(q url.Values) (p Params, elem string, err error) {
	switch elem = q.Get("t"); elem {
	case "", ElemF32, ElemF64:
	default:
		return p, "", fmt.Errorf("%w: unknown element type %q (want f32 or f64)", ErrQuery, elem)
	}
	switch m := q.Get("mode"); m {
	case "", "abs":
	case "rel":
		p.Mode = szx.BoundRelative
	default:
		return p, "", fmt.Errorf("%w: unknown bound mode %q (want abs or rel)", ErrQuery, m)
	}
	if p.ErrorBound, err = option(q, "e", parseFloat); err != nil {
		return p, "", err
	}
	if p.TargetRatio, err = option(q, "ratio", parseFloat); err != nil {
		return p, "", err
	}
	if p.BlockSize, err = option(q, "block", strconv.Atoi); err != nil {
		return p, "", err
	}
	if p.Workers, err = option(q, "workers", strconv.Atoi); err != nil {
		return p, "", err
	}
	if p.Workers < -1 {
		return p, "", fmt.Errorf("%w: bad workers %d", ErrQuery, p.Workers)
	}
	return p, elem, nil
}

// option parses q's value for key; zero when the key is absent.
func option[T any](q url.Values, key string, parse func(string) (T, error)) (v T, err error) {
	s := q.Get(key)
	if s == "" {
		return v, nil
	}
	if v, err = parse(s); err != nil {
		return v, fmt.Errorf("%w: bad %s %q", ErrQuery, key, s)
	}
	return v, nil
}

func parseFloat(s string) (float64, error) { return strconv.ParseFloat(s, 64) }
