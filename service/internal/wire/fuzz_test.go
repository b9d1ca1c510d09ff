package wire

import (
	"bytes"
	"encoding/binary"
	"math"
	"net/http/httptest"
	"net/url"
	"testing"
	"time"
)

// batchSeeds are FuzzBatchWire's seeds (package service): the SZXB shapes
// the batch endpoints are fuzzed from, valid and broken.
func batchSeeds() [][]byte {
	field := func(n int, seed int64) []byte {
		out := make([]byte, 4*n)
		for i := range n {
			x := float64(i) * 0.01
			v := float32(math.Sin(x+float64(seed)) + 0.2*math.Cos(3*x))
			binary.LittleEndian.PutUint32(out[4*i:], math.Float32bits(v))
		}
		return out
	}
	return [][]byte{
		{},
		[]byte("SZXB"),
		AppendHeader(nil, 0),
		AppendRequest(nil, [][]byte{field(256, 1)}),
		AppendRequest(nil, [][]byte{make([]byte, 7), field(16, 2), {}}),
		AppendRequest(nil, [][]byte{[]byte("not a stream"), []byte("SZX\x00garbage")}),
		append(AppendHeader(nil, 2), 0xff, 0xff, 0xff, 0xff),
		append(AppendRequest(nil, [][]byte{{1, 2, 3, 4}}), 0x00),
	}
}

// appendResponse re-encodes parsed entries as the server writes them.
func appendResponse(dst []byte, entries []Entry) []byte {
	dst = AppendHeader(dst, len(entries))
	for _, e := range entries {
		dst = append(AppendResult(dst, e.Status, len(e.Payload)), e.Payload...)
	}
	return dst
}

func FuzzParseRequest(f *testing.F) {
	for _, s := range batchSeeds() {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		views, err := ParseRequest(nil, body, 1024)
		if err != nil {
			return
		}
		if len(views) == 0 || len(views) > 1024 {
			t.Fatalf("accepted %d arrays", len(views))
		}
		if again := AppendRequest(nil, views); !bytes.Equal(again, body) {
			t.Fatalf("accepted request re-encodes differently:\n% x\n% x", body, again)
		}
	})
}

func FuzzParseResponse(f *testing.F) {
	for _, s := range batchSeeds() {
		f.Add(s)
	}
	ok := append(AppendHeader(nil, 2), AppendResult(nil, StatusOK, 3)...)
	ok = AppendArrayError(append(ok, 1, 2, 3), ArrayError{Code: CodeCorrupt, Message: "bad", Index: 1})
	f.Add(ok)
	f.Fuzz(func(t *testing.T, body []byte) {
		entries, err := ParseResponse(nil, body)
		if err != nil {
			return
		}
		if again := appendResponse(nil, entries); !bytes.Equal(again, body) {
			t.Fatalf("accepted response re-encodes differently:\n% x\n% x", body, again)
		}
	})
}

// FuzzParseError covers both error bodies: the one-shot {code,error,frame,
// offset} and the batch entry's {code,error,index}.
func FuzzParseError(f *testing.F) {
	for _, s := range batchSeeds() {
		f.Add(s)
	}
	f.Add([]byte(`{"code":"corrupt","error":"szx: corrupt or truncated stream","frame":3,"offset":812}` + "\n"))
	f.Add([]byte(`{"code":"overloaded","error":"admission queue full"}`))
	f.Add([]byte(`{"code":"wrong_type","error":"szx: stream element type does not match request","index":0}`))
	f.Add([]byte(`upstream connect error`))
	f.Fuzz(func(t *testing.T, body []byte) {
		if e, ok := ParseError(body); ok {
			rr := httptest.NewRecorder()
			WriteError(rr, e, time.Second)
			if again, ok := ParseError(rr.Body.Bytes()); !ok || again != e {
				t.Fatalf("accepted error body %q re-encodes to %q", body, rr.Body.Bytes())
			}
			if rr.Code != Status(e.Code) || ParseRetryAfter(rr.Header().Get(RetryAfterHeader)) != time.Second {
				t.Fatalf("error %+v sent with status %d, headers %v", e, rr.Code, rr.Header())
			}
		}
		if e, ok := ParseArrayError(body); ok {
			entries, err := ParseResponse(nil, AppendArrayError(AppendHeader(nil, 1), e))
			if err != nil || entries[0].Status != StatusError {
				t.Fatalf("array error %+v framed badly: %v", e, err)
			}
			if again, ok := ParseArrayError(entries[0].Payload); !ok || again != e {
				t.Fatalf("accepted array error %q re-encodes to %q", body, entries[0].Payload)
			}
		}
	})
}

// sameParams is == with NaN equal to itself.
func sameParams(a, b Params) bool {
	same := func(x, y float64) bool { return x == y || (x != x && y != y) }
	return same(a.ErrorBound, b.ErrorBound) && same(a.TargetRatio, b.TargetRatio) &&
		a.Mode == b.Mode && a.BlockSize == b.BlockSize && a.Workers == b.Workers
}

func FuzzParseQuery(f *testing.F) {
	for _, s := range batchSeeds() {
		f.Add(string(s))
	}
	for _, s := range []string{
		"t=f32", "e=0.001&t=f32", "block=256&ratio=4.5&t=f64", "e=0.01&mode=rel&t=f32",
		"e=0.001&t=f32&workers=-1", "e=-1", "ratio=-3", "block=-8", "e=NaN&ratio=+Inf",
		"mode=abs&e=0x1p-10", "t=f99", "workers=-2", "e=1e-3&e=5",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, raw string) {
		q, err := url.ParseQuery(raw)
		if err != nil {
			return
		}
		p, elem, err := ParseQuery(q)
		if err != nil {
			return
		}
		enc := p.Encode(elem)
		q2, err := url.ParseQuery(enc)
		if err != nil {
			t.Fatalf("Encode wrote an unparsable query %q", enc)
		}
		p2, elem2, err := ParseQuery(q2)
		if err != nil || elem2 != elem || !sameParams(p2, p) {
			t.Fatalf("%q parses to %+v %q, re-encodes to %q, which parses to %+v %q (%v)", raw, p, elem, enc, p2, elem2, err)
		}
	})
}
