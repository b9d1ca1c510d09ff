package service

import (
	"bytes"
	"encoding/binary"
	"math"
	"net/http/httptest"
	"testing"

	"repro/service/internal/wire"
)

// batchTestField synthesizes a smooth field (the in-package twin of the
// external tests' helper).
func batchTestField(n int, seed int64) []float32 {
	out := make([]float32, n)
	for i := range out {
		x := float64(i) * 0.01
		out[i] = float32(math.Sin(x+float64(seed)) + 0.2*math.Cos(3*x))
	}
	return out
}

func batchF32Bytes(v []float32) []byte {
	out := make([]byte, 4*len(v))
	for i, x := range v {
		binary.LittleEndian.PutUint32(out[4*i:], math.Float32bits(x))
	}
	return out
}

func postBatch(srv *Server, path, query string, body []byte) *httptest.ResponseRecorder {
	u := path
	if query != "" {
		u += "?" + query
	}
	req := httptest.NewRequest("POST", u, bytes.NewReader(body))
	rr := httptest.NewRecorder()
	srv.Handler().ServeHTTP(rr, req)
	return rr
}

// mustParseResponse parses an SZXB response with the client's parser,
// failing the test on any framing defect.
func mustParseResponse(t *testing.T, body []byte) []wire.Entry {
	t.Helper()
	entries, err := wire.ParseResponse(nil, body)
	if err != nil {
		t.Fatal(err)
	}
	return entries
}

// mustArrayError parses a status-1 payload.
func mustArrayError(t *testing.T, payload []byte) wire.ArrayError {
	t.Helper()
	ae, ok := wire.ParseArrayError(payload)
	if !ok {
		t.Fatalf("error payload is not an array error: %q", payload)
	}
	return ae
}

// TestBatchCompressByteIdentity pins the headline contract at the HTTP
// layer: every stream a batch produces is byte-identical to the one-shot
// endpoint's output for the same array and options — batching changes
// costs, never bytes.
func TestBatchCompressByteIdentity(t *testing.T) {
	srv := New(Config{})
	arrays := [][]float32{
		batchTestField(4096, 1),
		batchTestField(999, 2), // sub-block tail
		{},                     // empty array is valid
		batchTestField(64, 3),
	}
	payloads := make([][]byte, len(arrays))
	for i, a := range arrays {
		payloads[i] = batchF32Bytes(a)
	}
	const query = "e=0.001"
	rr := postBatch(srv, "/v1/batch/compress", query, wire.AppendRequest(nil, payloads))
	if rr.Code != 200 {
		t.Fatalf("batch status %d: %s", rr.Code, rr.Body.String())
	}
	entries := mustParseResponse(t, rr.Body.Bytes())
	if len(entries) != len(arrays) {
		t.Fatalf("%d entries, want %d", len(entries), len(arrays))
	}
	for i, e := range entries {
		if e.Status != 0 {
			t.Fatalf("array %d failed: %s", i, e.Payload)
		}
		if len(arrays[i]) == 0 {
			// One-shot rejects empty bodies, so an empty array is only
			// reachable batched; its stream just has to decode to nothing.
			dec := postBatch(srv, "/v1/decompress", "", e.Payload)
			if dec.Code != 200 || dec.Body.Len() != 0 {
				t.Fatalf("empty array: decode status %d, %d bytes", dec.Code, dec.Body.Len())
			}
			continue
		}
		one := postBatch(srv, "/v1/compress", query, payloads[i])
		if one.Code != 200 {
			t.Fatalf("one-shot %d status %d: %s", i, one.Code, one.Body.String())
		}
		if !bytes.Equal(e.Payload, one.Body.Bytes()) {
			t.Fatalf("array %d: batched stream (%d bytes) differs from one-shot (%d bytes)",
				i, len(e.Payload), one.Body.Len())
		}
	}
}

// TestBatchRoundTrip pushes a batch through compress then decompress and
// checks the error bound end to end, single-array batch included.
func TestBatchRoundTrip(t *testing.T) {
	srv := New(Config{})
	for _, arrays := range [][][]float32{
		{batchTestField(2048, 5)}, // single array
		{batchTestField(2048, 5), batchTestField(300, 6), batchTestField(4096, 7)},
	} {
		payloads := make([][]byte, len(arrays))
		for i, a := range arrays {
			payloads[i] = batchF32Bytes(a)
		}
		rr := postBatch(srv, "/v1/batch/compress", "e=0.001", wire.AppendRequest(nil, payloads))
		if rr.Code != 200 {
			t.Fatalf("compress status %d: %s", rr.Code, rr.Body.String())
		}
		comp := mustParseResponse(t, rr.Body.Bytes())
		comps := make([][]byte, len(comp))
		for i, e := range comp {
			if e.Status != 0 {
				t.Fatalf("array %d failed: %s", i, e.Payload)
			}
			comps[i] = e.Payload
		}
		rr = postBatch(srv, "/v1/batch/decompress", "", wire.AppendRequest(nil, comps))
		if rr.Code != 200 {
			t.Fatalf("decompress status %d: %s", rr.Code, rr.Body.String())
		}
		dec := mustParseResponse(t, rr.Body.Bytes())
		for i, e := range dec {
			if e.Status != 0 {
				t.Fatalf("decompress array %d failed: %s", i, e.Payload)
			}
			if len(e.Payload) != 4*len(arrays[i]) {
				t.Fatalf("array %d: %d bytes back, want %d", i, len(e.Payload), 4*len(arrays[i]))
			}
			for j, want := range arrays[i] {
				got := math.Float32frombits(binary.LittleEndian.Uint32(e.Payload[4*j:]))
				if math.Abs(float64(got)-float64(want)) > 1e-3*1.0001 {
					t.Fatalf("array %d value %d out of bound: %v vs %v", i, j, got, want)
				}
			}
		}
	}
}

// TestBatchEnvelopeRejects pins the whole-request failures: empty batches,
// bad magic/version, truncated framing, and counts over the limit are 400s.
func TestBatchEnvelopeRejects(t *testing.T) {
	srv := New(Config{MaxBatchArrays: 4})
	for name, body := range map[string][]byte{
		"empty batch":   wire.AppendHeader(nil, 0),
		"bad magic":     append([]byte("NOPE\x01"), 1, 0, 0, 0),
		"bad version":   append([]byte("SZXB\x09"), 1, 0, 0, 0),
		"short header":  []byte("SZXB"),
		"over limit":    wire.AppendRequest(nil, [][]byte{{1}, {2}, {3}, {4}, {5}}),
		"truncated len": append(wire.AppendHeader(nil, 1), 0xff),
		"truncated arr": append(wire.AppendHeader(nil, 1), 0xff, 0xff, 0xff, 0x7f),
		"trailing":      append(wire.AppendRequest(nil, [][]byte{{1, 2, 3, 4}}), 0xEE),
	} {
		for _, path := range []string{"/v1/batch/compress", "/v1/batch/decompress"} {
			rr := postBatch(srv, path, "e=0.001", body)
			if rr.Code != 400 {
				t.Errorf("%s on %s: status %d, want 400 (%s)", name, path, rr.Code, rr.Body.String())
			}
		}
	}
}

// TestBatchPerArrayErrors is the isolation contract: a bad array yields a
// status-1 entry carrying its own index, and its neighbours still succeed —
// the batch as a whole stays 200.
func TestBatchPerArrayErrors(t *testing.T) {
	srv := New(Config{})
	good := batchTestField(2048, 9)
	goodComp := postBatch(srv, "/v1/compress", "e=0.001", batchF32Bytes(good))
	if goodComp.Code != 200 {
		t.Fatal("one-shot compress failed")
	}
	f64Comp := postBatch(srv, "/v1/compress", "t=f64&e=0.001", make([]byte, 8*512))
	if f64Comp.Code != 200 {
		t.Fatal("one-shot f64 compress failed")
	}

	t.Run("decompress", func(t *testing.T) {
		// Array 1 is corrupt, array 2 is an f64 stream in an f32 batch;
		// arrays 0 and 3 must come back intact.
		comps := [][]byte{
			goodComp.Body.Bytes(),
			[]byte("not a stream at all"),
			f64Comp.Body.Bytes(),
			goodComp.Body.Bytes(),
		}
		rr := postBatch(srv, "/v1/batch/decompress", "", wire.AppendRequest(nil, comps))
		if rr.Code != 200 {
			t.Fatalf("batch status %d, want 200: %s", rr.Code, rr.Body.String())
		}
		entries := mustParseResponse(t, rr.Body.Bytes())
		if entries[0].Status != 0 || entries[3].Status != 0 {
			t.Fatalf("good arrays failed: %d %d", entries[0].Status, entries[3].Status)
		}
		be := mustArrayError(t, entries[1].Payload)
		if be.Code != wire.CodeCorrupt || be.Index != 1 {
			t.Fatalf("array 1: got %+v, want corrupt at index 1", be)
		}
		be = mustArrayError(t, entries[2].Payload)
		if be.Code != wire.CodeWrongType || be.Index != 2 {
			t.Fatalf("array 2: got %+v, want wrong_type at index 2", be)
		}
		if !bytes.Equal(entries[0].Payload, entries[3].Payload) {
			t.Fatal("identical good arrays decoded differently")
		}
	})

	t.Run("compress", func(t *testing.T) {
		// Array 0 is misaligned (7 bytes of float32 data); array 1 is fine.
		rr := postBatch(srv, "/v1/batch/compress", "e=0.001",
			wire.AppendRequest(nil, [][]byte{make([]byte, 7), batchF32Bytes(good)}))
		if rr.Code != 200 {
			t.Fatalf("batch status %d, want 200: %s", rr.Code, rr.Body.String())
		}
		entries := mustParseResponse(t, rr.Body.Bytes())
		be := mustArrayError(t, entries[0].Payload)
		if be.Code != wire.CodeBadRequest || be.Index != 0 {
			t.Fatalf("array 0: got %+v, want bad_request at index 0", be)
		}
		if entries[1].Status != 0 || !bytes.Equal(entries[1].Payload, goodComp.Body.Bytes()) {
			t.Fatal("good array after a misaligned one did not compress identically")
		}
	})
}

// TestBatchOneAdmissionSlot: a whole batch occupies ONE admission slot. A
// server with MaxInFlight=1 and no queue would shed 63 of 64 concurrent
// one-shot requests; the same arrays as one batch must fully succeed.
func TestBatchOneAdmissionSlot(t *testing.T) {
	srv := New(Config{MaxInFlight: 1, MaxQueue: -1})
	payloads := make([][]byte, 64)
	for i := range payloads {
		payloads[i] = batchF32Bytes(batchTestField(1024, int64(i)))
	}
	rr := postBatch(srv, "/v1/batch/compress", "e=0.001", wire.AppendRequest(nil, payloads))
	if rr.Code != 200 {
		t.Fatalf("status %d, want 200: %s", rr.Code, rr.Body.String())
	}
	for i, e := range mustParseResponse(t, rr.Body.Bytes()) {
		if e.Status != 0 {
			t.Fatalf("array %d failed under MaxInFlight=1: %s", i, e.Payload)
		}
	}
}

// FuzzBatchWire throws arbitrary bytes at both batch endpoints. The
// contract: no panics, never a 5xx, and every 200 carries a response the
// client's parser accepts, one entry per request array, whose error
// entries are positionally labeled.
func FuzzBatchWire(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte("SZXB"))
	f.Add(wire.AppendHeader(nil, 0))
	f.Add(wire.AppendRequest(nil, [][]byte{batchF32Bytes(batchTestField(256, 1))}))
	f.Add(wire.AppendRequest(nil, [][]byte{make([]byte, 7), batchF32Bytes(batchTestField(16, 2)), {}}))
	f.Add(wire.AppendRequest(nil, [][]byte{[]byte("not a stream"), []byte("SZX\x00garbage")}))
	f.Add(append(wire.AppendHeader(nil, 2), 0xff, 0xff, 0xff, 0xff))
	f.Add(append(wire.AppendRequest(nil, [][]byte{{1, 2, 3, 4}}), 0x00))
	srv := New(Config{MaxBodyBytes: 1 << 22, MaxBatchArrays: 128})
	f.Fuzz(func(t *testing.T, blob []byte) {
		for _, path := range []string{"/v1/batch/compress", "/v1/batch/decompress"} {
			rr := postBatch(srv, path, "e=0.001", blob)
			if rr.Code >= 500 {
				t.Fatalf("%s: 5xx (%d) for fuzzed input: %s", path, rr.Code, rr.Body.String())
			}
			if rr.Code != 200 {
				continue
			}
			views, err := wire.ParseRequest(nil, blob, 128)
			if err != nil {
				t.Fatalf("%s: 200 for a request the server's parser rejects: %v", path, err)
			}
			entries, err := wire.ParseResponse(nil, rr.Body.Bytes())
			if err != nil {
				t.Fatalf("%s: 200 with a malformed response: %v", path, err)
			}
			if len(entries) != len(views) {
				t.Fatalf("%s: %d response entries for %d arrays", path, len(entries), len(views))
			}
			for i, e := range entries {
				if e.Status != wire.StatusError {
					continue
				}
				ae, ok := wire.ParseArrayError(e.Payload)
				if !ok {
					t.Fatalf("%s: entry %d error payload is not an array error: %q", path, i, e.Payload)
				}
				if ae.Index != i {
					t.Fatalf("%s: entry %d error labeled index %d", path, i, ae.Index)
				}
			}
		}
	})
}
