package service_test

import (
	"bytes"
	"net/http/httptest"
	"net/url"
	"testing"
	"time"

	"repro/service/internal/wire"
)

// TestWireRoundTrip: every message the wire carries survives client encode
// → server parse → server encode → client parse, with the encoders and
// parsers both sides run.
func TestWireRoundTrip(t *testing.T) {
	t.Run("params", func(t *testing.T) {
		for _, wp := range wireParams {
			enc := wp.p.Encode(wp.elem)
			if enc != wp.query {
				t.Errorf("%+v encodes to %q, want %q", wp.p, enc, wp.query)
			}
			q, err := url.ParseQuery(enc)
			if err != nil {
				t.Fatal(err)
			}
			p, elem, err := wire.ParseQuery(q)
			if err != nil || p != wp.p || elem != wp.elem {
				t.Errorf("%q parses to %+v %q (%v), want %+v %q", enc, p, elem, err, wp.p, wp.elem)
			}
		}
	})

	t.Run("batch", func(t *testing.T) {
		payloads := [][]byte{f32Bytes(testField(300, 1)), {}, []byte("not a stream"), f32Bytes(testField(7, 2))}
		views, err := wire.ParseRequest(nil, wire.AppendRequest(nil, payloads), len(payloads))
		if err != nil || len(views) != len(payloads) {
			t.Fatalf("request parsed to %d arrays (%v), want %d", len(views), err, len(payloads))
		}
		rsp := wire.AppendHeader(nil, len(views))
		want := make([]wire.ArrayError, len(views))
		for i, v := range views {
			if !bytes.Equal(v, payloads[i]) {
				t.Fatalf("array %d: request carried %d bytes, want %d", i, len(v), len(payloads[i]))
			}
			if i%2 == 0 {
				rsp = append(wire.AppendResult(rsp, wire.StatusOK, len(v)), v...)
				continue
			}
			want[i] = wire.ArrayError{Code: wire.CodeCorrupt, Message: "szx: corrupt or truncated stream", Index: i}
			rsp = wire.AppendArrayError(rsp, want[i])
		}
		entries, err := wire.ParseResponse(nil, rsp)
		if err != nil || len(entries) != len(payloads) {
			t.Fatalf("response parsed to %d entries (%v), want %d", len(entries), err, len(payloads))
		}
		for i, e := range entries {
			if i%2 == 0 {
				if e.Status != wire.StatusOK || !bytes.Equal(e.Payload, payloads[i]) {
					t.Errorf("entry %d: status %d, %d bytes", i, e.Status, len(e.Payload))
				}
				continue
			}
			if ae, ok := wire.ParseArrayError(e.Payload); e.Status != wire.StatusError || !ok || ae != want[i] {
				t.Errorf("entry %d: status %d, %+v, want %+v", i, e.Status, ae, want[i])
			}
		}
	})

	t.Run("error", func(t *testing.T) {
		for _, we := range []wire.Error{
			{Code: wire.CodeCorrupt, Message: "szx: malformed stream container", Frame: 3, Offset: 812},
			{Code: wire.CodeOverloaded, Message: "admission queue full"},
		} {
			rr := httptest.NewRecorder()
			wire.WriteError(rr, we, 2*time.Second)
			got, ok := wire.ParseError(rr.Body.Bytes())
			if !ok || got != we || rr.Code != wire.Status(we.Code) ||
				wire.ParseRetryAfter(rr.Header().Get(wire.RetryAfterHeader)) != 2*time.Second {
				t.Errorf("%+v came back as %+v (status %d, headers %v)", we, got, rr.Code, rr.Header())
			}
		}
	})
}
