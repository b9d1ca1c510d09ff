package service_test

import (
	"context"
	"errors"
	"net/http/httptest"
	"testing"

	szx "repro"
	"repro/service"
	"repro/service/client"
)

// TestClientBatch drives the batch endpoints through the client package:
// positional results, per-array errors that unwrap to szx sentinels, and a
// full round trip.
func TestClientBatch(t *testing.T) {
	_, c, _ := newTestServer(t, service.Config{})
	ctx := context.Background()
	arrays := [][]float32{testField(2048, 1), testField(300, 2), testField(4096, 3)}

	results, err := c.CompressBatch(ctx, arrays, client.Params{ErrorBound: 1e-3})
	if err != nil {
		t.Fatal(err)
	}
	comps := make([][]byte, len(results))
	for i, r := range results {
		if r.Err != nil {
			t.Fatalf("array %d: %v", i, r.Err)
		}
		comps[i] = r.Comp
	}

	// Corrupt the middle stream: its array must fail alone, with the szx
	// sentinel reachable through errors.Is and the index preserved.
	comps[1] = []byte("definitely not a stream")
	vals, err := c.DecompressBatch(ctx, comps, client.Params{})
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range vals {
		if i == 1 {
			if r.Err == nil {
				t.Fatal("corrupt array decoded successfully")
			}
			var ae *client.ArrayError
			if !errors.As(r.Err, &ae) || ae.Index != 1 {
				t.Fatalf("array 1 error %v lacks positional context", r.Err)
			}
			if !errors.Is(r.Err, szx.ErrCorrupt) {
				t.Fatalf("array 1 error %v does not unwrap to ErrCorrupt", r.Err)
			}
			continue
		}
		if r.Err != nil {
			t.Fatalf("array %d: %v", i, r.Err)
		}
		if len(r.Values) != len(arrays[i]) {
			t.Fatalf("array %d: %d values back, want %d", i, len(r.Values), len(arrays[i]))
		}
	}
}

// BenchmarkClientRoundTrip4K measures the client-side cost of a 4 KiB
// compress round trip — the small-payload case the pooled body buffers,
// cached query strings, and recycled header maps exist for. ReportAllocs
// keeps the per-call allocation count honest.
func BenchmarkClientRoundTrip4K(b *testing.B) {
	srv := service.New(service.Config{DisableTracing: true})
	ts := httptest.NewServer(srv.Handler())
	b.Cleanup(ts.Close)
	c := client.New(ts.URL)
	vals := testField(1024, 1) // 4 KiB
	p := client.Params{ErrorBound: 1e-3}
	ctx := context.Background()
	if _, err := c.Compress(ctx, vals, p); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.SetBytes(4 * int64(len(vals)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.Compress(ctx, vals, p); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkClientBatchCompress4K is the batched counterpart: 64 4 KiB
// arrays per request, reported per-array.
func BenchmarkClientBatchCompress4K(b *testing.B) {
	srv := service.New(service.Config{DisableTracing: true})
	ts := httptest.NewServer(srv.Handler())
	b.Cleanup(ts.Close)
	c := client.New(ts.URL)
	arrays := make([][]float32, 64)
	for i := range arrays {
		arrays[i] = testField(1024, int64(i))
	}
	p := client.Params{ErrorBound: 1e-3}
	ctx := context.Background()
	if _, err := c.CompressBatch(ctx, arrays, p); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.SetBytes(64 * 4 * 1024)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := c.CompressBatch(ctx, arrays, p)
		if err != nil {
			b.Fatal(err)
		}
		for j := range res {
			if res[j].Err != nil {
				b.Fatal(res[j].Err)
			}
		}
	}
}
