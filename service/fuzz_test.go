package service

import (
	"bytes"
	"fmt"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/service/internal/wire"
)

// loadStreamReaderCorpus parses the FuzzStreamReader seed corpus (Go fuzz
// v1 text files: a version line, then one []byte("...") literal per
// argument) so the service fuzzer starts from inputs already known to
// exercise the container parser's edges.
func loadStreamReaderCorpus(t testing.TB) [][]byte {
	t.Helper()
	dir := filepath.Join("..", "testdata", "fuzz", "FuzzStreamReader")
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatalf("read corpus dir: %v", err)
	}
	var seeds [][]byte
	for _, e := range ents {
		if e.IsDir() {
			continue
		}
		raw, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatalf("read seed %s: %v", e.Name(), err)
		}
		lines := strings.Split(string(raw), "\n")
		if len(lines) < 2 || !strings.HasPrefix(lines[0], "go test fuzz v1") {
			t.Fatalf("seed %s: unrecognized corpus format", e.Name())
		}
		for _, line := range lines[1:] {
			line = strings.TrimSpace(line)
			if !strings.HasPrefix(line, "[]byte(") || !strings.HasSuffix(line, ")") {
				continue
			}
			quoted := line[len("[]byte(") : len(line)-1]
			s, err := strconv.Unquote(quoted)
			if err != nil {
				t.Fatalf("seed %s: unquote: %v", e.Name(), err)
			}
			seeds = append(seeds, []byte(s))
		}
	}
	if len(seeds) == 0 {
		t.Fatal("no seeds parsed from corpus")
	}
	return seeds
}

// postDecompress drives the decompress handler directly (no network) and
// returns the response.
func postDecompress(srv *Server, body []byte) *httptest.ResponseRecorder {
	req := httptest.NewRequest("POST", "/v1/decompress", bytes.NewReader(body))
	rr := httptest.NewRecorder()
	srv.Handler().ServeHTTP(rr, req)
	return rr
}

// FuzzServiceDecompressHandler throws arbitrary bytes — seeded with the
// stream-reader corpus — at /v1/decompress. Whatever the input, the
// service must answer 200 or a clean 4xx: no panics, no 5xx, no hung
// handler. This is the service-boundary restatement of the codec's own
// "decoding untrusted bytes never crashes" guarantee.
func FuzzServiceDecompressHandler(f *testing.F) {
	for _, seed := range loadStreamReaderCorpus(f) {
		f.Add(seed)
	}
	f.Add([]byte{})
	srv := New(Config{MaxBodyBytes: 1 << 22})
	f.Fuzz(func(t *testing.T, blob []byte) {
		rr := postDecompress(srv, blob)
		if rr.Code >= 500 {
			t.Fatalf("5xx (%d) for fuzzed input: %s", rr.Code, rr.Body.String())
		}
		if rr.Code != 200 && rr.Code != 400 && rr.Code != 413 {
			t.Fatalf("unexpected status %d: %s", rr.Code, rr.Body.String())
		}
	})
}

// TestServiceDecompressCorpusNoLeak runs every corpus seed through the
// handler deterministically and then checks the goroutine count returned
// to baseline — the leak-freedom half of the fuzz target's contract,
// which the fuzzer itself can't assert reliably.
func TestServiceDecompressCorpusNoLeak(t *testing.T) {
	seeds := loadStreamReaderCorpus(t)
	srv := New(Config{MaxBodyBytes: 1 << 22})
	runtime.GC()
	baseline := runtime.NumGoroutine()
	for i, seed := range seeds {
		rr := postDecompress(srv, seed)
		if rr.Code >= 500 {
			t.Fatalf("seed %d: 5xx (%d): %s", i, rr.Code, rr.Body.String())
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		runtime.GC()
		n := runtime.NumGoroutine()
		if n <= baseline {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("goroutine leak after corpus replay: %d > %d\n%s",
				n, baseline, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestClassifyStatuses pins the error-to-wire mapping.
func TestClassifyStatuses(t *testing.T) {
	srv := New(Config{})
	for _, tc := range []struct {
		body   []byte
		status int
		code   string
	}{
		{[]byte("garbage that is not a stream"), 400, wire.CodeCorrupt},
		{[]byte("SZXS\x01\xff\xff\xff\xff"), 400, wire.CodeCorrupt},
		{nil, 400, wire.CodeBadRequest},
	} {
		rr := postDecompress(srv, tc.body)
		if rr.Code != tc.status {
			t.Errorf("body %q: status %d, want %d", tc.body, rr.Code, tc.status)
		}
		if !strings.Contains(rr.Body.String(), fmt.Sprintf("%q", tc.code)) {
			t.Errorf("body %q: response %s missing code %q", tc.body, rr.Body.String(), tc.code)
		}
	}
}
