package service_test

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"

	szx "repro"
	"repro/service"
	"repro/service/client"
)

// wireParams is every valid Params shape the wire carries, with the query
// string the client sends for it. Zero fields stay off the wire: zero
// means "server default".
var wireParams = []struct {
	elem  string // "f32" (Compress), "f64" (CompressFloat64) or "" (StreamCompress)
	p     client.Params
	query string
}{
	{"f32", client.Params{}, "t=f32"},
	{"f32", client.Params{ErrorBound: 1e-3}, "e=0.001&t=f32"},
	{"f64", client.Params{ErrorBound: 1e-4}, "e=0.0001&t=f64"},
	{"f32", client.Params{ErrorBound: 1e-2, Mode: szx.BoundRelative}, "e=0.01&mode=rel&t=f32"},
	{"f64", client.Params{Mode: szx.BoundRelative}, "mode=rel&t=f64"},
	{"f32", client.Params{TargetRatio: 8}, "ratio=8&t=f32"},
	{"f64", client.Params{TargetRatio: 4.5, BlockSize: 256}, "block=256&ratio=4.5&t=f64"},
	{"f32", client.Params{ErrorBound: 1e-3, BlockSize: 64}, "block=64&e=0.001&t=f32"},
	{"f32", client.Params{ErrorBound: 1e-3, Workers: -1}, "e=0.001&t=f32&workers=-1"},
	{"f64", client.Params{ErrorBound: 1e-3, Mode: szx.BoundRelative, Workers: 4}, "e=0.001&mode=rel&t=f64&workers=4"},
	{"", client.Params{ErrorBound: 1e-3, Workers: 4}, "e=0.001&workers=4"},
}

// wireTap records the last exchange through the handler it wraps: the raw
// query, the request body and the response body, exactly as they crossed
// the wire. Response bytes are recorded before they are sent, so a client
// that has read a whole response finds all of it here.
type wireTap struct {
	h                http.Handler
	mu               sync.Mutex
	query            string
	reqBody, rspBody []byte
}

type teeWriter struct {
	http.ResponseWriter
	tap *wireTap
}

func (w teeWriter) Write(p []byte) (int, error) {
	w.tap.mu.Lock()
	w.tap.rspBody = append(w.tap.rspBody, p...)
	w.tap.mu.Unlock()
	return w.ResponseWriter.Write(p)
}

func (t *wireTap) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	body, _ := io.ReadAll(r.Body)
	r.Body = io.NopCloser(bytes.NewReader(body))
	t.mu.Lock()
	t.query, t.reqBody, t.rspBody = r.URL.RawQuery, body, nil
	t.mu.Unlock()
	t.h.ServeHTTP(teeWriter{w, t}, r)
}

func (t *wireTap) last() (query string, req, rsp []byte) {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.query, t.reqBody, t.rspBody
}

func sha(b []byte) string {
	h := sha256.Sum256(b)
	return hex.EncodeToString(h[:])
}

// goldenArray is exactly representable data, so the hashes below do not
// depend on any math library.
func goldenArray(n, mod int) []float32 {
	out := make([]float32, n)
	for i := range out {
		out[i] = float32(i%mod) * 0.125
	}
	return out
}

// TestWireGolden pins the szxd wire bytes: SHA-256 hashes of a
// client-staged SZXB request, the server's responses to it and to a batch
// with one corrupt stream, the one-shot error body for a corrupt stream,
// and the query string of every valid Params. It drives only the public
// client and server, so any change to the bytes either side puts on the
// wire fails here.
func TestWireGolden(t *testing.T) {
	tap := &wireTap{h: service.New(service.Config{DisableTracing: true}).Handler()}
	ts := httptest.NewServer(tap)
	defer ts.Close()
	c := client.New(ts.URL)
	ctx := context.Background()

	check := func(what, got, want string) {
		t.Helper()
		if got != want {
			t.Errorf("%s: got %s, want %s", what, got, want)
		}
	}

	arrays := [][]float32{goldenArray(1000, 97), goldenArray(300, 7), goldenArray(4096, 1001)}
	results, err := c.CompressBatch(ctx, arrays, client.Params{ErrorBound: 1e-3})
	if err != nil {
		t.Fatal(err)
	}
	_, req, rsp := tap.last()
	check("batch-compress request", sha(req), "7a1ac3ef29ed901d75f83a36486ded632a2c3adcc8ae7583f0b2a6173423b36a")
	check("batch-compress response", sha(rsp), "40f5dc125a36421101736288501761aef3b8416ceeda5c00fadd8a75572fb11b")

	comps := [][]byte{results[0].Comp, []byte("not an SZx stream"), results[2].Comp}
	vals, err := c.DecompressBatch(ctx, comps, client.Params{})
	if err != nil {
		t.Fatal(err)
	}
	if vals[1].Err == nil || vals[0].Err != nil || vals[2].Err != nil {
		t.Fatalf("want only array 1 to fail, got %v %v %v", vals[0].Err, vals[1].Err, vals[2].Err)
	}
	_, _, rsp = tap.last()
	check("batch-decompress response", sha(rsp), "1f47f9ba9973b633104561641c07f3dff558b0f82ab1d2dc957bd416e35a283a")

	if _, err := c.Decompress(ctx, []byte("not an SZx stream")); err == nil {
		t.Fatal("corrupt stream decoded")
	}
	_, _, rsp = tap.last()
	check("one-shot error body", sha(rsp), "b0baee94bee62a621c3e869bdb08c67d533cd32d2a9aaa3b736d82eab86b0618")

	f32 := goldenArray(1024, 97)
	f64 := make([]float64, len(f32))
	for i, v := range f32 {
		f64[i] = float64(v)
	}
	for _, wp := range wireParams {
		var err error
		switch wp.elem {
		case "f32":
			_, err = c.Compress(ctx, f32, wp.p)
		case "f64":
			_, err = c.CompressFloat64(ctx, f64, wp.p)
		default:
			var rc io.ReadCloser
			if rc, err = c.StreamCompress(ctx, bytes.NewReader(f32Bytes(f32)), wp.p); err == nil {
				_, err = io.Copy(io.Discard, rc)
				rc.Close()
			}
		}
		if err != nil {
			t.Fatalf("%+v: %v", wp.p, err)
		}
		q, _, _ := tap.last()
		check("query", q, wp.query)
	}
}
