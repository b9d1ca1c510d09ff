package main

import (
	"bytes"
	"errors"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	szx "repro"
)

// TestExitCodeClassification pins the error-to-exit-code mapping that
// scripts depend on: corrupt input is distinguishable from a missing file,
// which is distinguishable from bad parameters.
func TestExitCodeClassification(t *testing.T) {
	// A genuine decode failure from the codec.
	_, corruptErr := szx.Decompress([]byte("definitely not a stream"))
	if corruptErr == nil {
		t.Fatal("expected decode error")
	}
	// A genuine streaming-container failure, wrapped in FrameError.
	var buf bytes.Buffer
	w := szx.NewWriter(&buf, szx.Options{ErrorBound: 1e-3}, 64)
	_ = w.Write(make([]float32, 200))
	_ = w.Close()
	_, streamErr := szx.NewReader(bytes.NewReader(buf.Bytes()[:buf.Len()/2])).ReadAll()
	if streamErr == nil {
		t.Fatal("expected stream error")
	}
	// A genuine parameter failure.
	_, boundErr := szx.Compress(make([]float32, 10), szx.Options{ErrorBound: -1})
	if boundErr == nil {
		t.Fatal("expected bound error")
	}
	// A genuine options failure from fixed-ratio validation.
	_, ratioErr := szx.Compress(make([]float32, 10), szx.Options{TargetRatio: 0.5})
	if ratioErr == nil {
		t.Fatal("expected ratio error")
	}

	for _, tc := range []struct {
		name string
		err  error
		want int
	}{
		{"nil", nil, exitOK},
		{"corrupt stream", corruptErr, exitCorrupt},
		{"bad magic", szx.ErrBadMagic, exitCorrupt},
		{"bad version", szx.ErrBadVersion, exitCorrupt},
		{"wrong type", szx.ErrWrongType, exitCorrupt},
		{"container frame error", streamErr, exitCorrupt},
		{"truncated read", io.ErrUnexpectedEOF, exitCorrupt},
		{"bad bound", boundErr, exitUsage},
		{"bad options sentinel", szx.ErrBadOptions, exitUsage},
		{"bad target ratio", ratioErr, exitUsage},
		{"bad block size", szx.ErrBlockSize, exitUsage},
		{"degenerate range", szx.ErrDegenerateRange, exitUsage},
		{"file missing", errors.New("open /no/such/file: no such file or directory"), exitIO},
	} {
		if got := exitCodeFor(tc.err); got != tc.want {
			t.Errorf("%s: exit code %d, want %d", tc.name, got, tc.want)
		}
	}
}

// TestInfoForgedFrameLength pins szx -info on a container whose first
// length prefix promises far more than the file holds: exit 4 with the
// truncated-container message, and no allocation sized by the prefix. A
// well-formed container still gets its frame census.
func TestInfoForgedFrameLength(t *testing.T) {
	dir := t.TempDir()
	for _, prefix := range []string{"\xff\xff\xff\xff", "\xff\xff\xff\x7f"} {
		path := filepath.Join(dir, "forged.szxs")
		if err := os.WriteFile(path, []byte("SZXS\x01"+prefix), 0o644); err != nil {
			t.Fatal(err)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		code, err := runInfo(path, io.Discard)
		runtime.ReadMemStats(&after)
		if code != exitCorrupt || err == nil ||
			!strings.HasPrefix(err.Error(), "truncated streaming container after 0 frames") {
			t.Errorf("prefix %q: exit %d, %v; want exit %d and the truncated-container message",
				prefix, code, err, exitCorrupt)
		}
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 {
			t.Errorf("prefix %q: -info allocated %d bytes", prefix, grew)
		}
	}

	var buf bytes.Buffer
	w := szx.NewWriter(&buf, szx.Options{ErrorBound: 1e-3}, 64)
	if err := errors.Join(w.Write(make([]float32, 200)), w.Close()); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "ok.szxs")
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	var out strings.Builder
	if code, err := runInfo(path, &out); code != exitOK || err != nil {
		t.Fatalf("well-formed container: exit %d, %v", code, err)
	}
	if want := "container=SZXS version=1 frames=4 "; !strings.HasPrefix(out.String(), want) ||
		!strings.Contains(out.String(), "errBound=0.001") {
		t.Fatalf("census %q; want prefix %q and errBound=0.001", out.String(), want)
	}
}

// TestCompressTrailingBytes pins szx -z on a file that ends partway into a
// value: exit 4, as -z -stream gives, instead of a stream that silently
// drops the partial value. A whole file still compresses every value.
func TestCompressTrailingBytes(t *testing.T) {
	dir := t.TempDir()
	out := filepath.Join(dir, "out.szx")
	for _, dtype := range []string{"f32", "f64"} {
		path := filepath.Join(dir, "odd."+dtype)
		if err := os.WriteFile(path, make([]byte, 4099), 0o644); err != nil {
			t.Fatal(err)
		}
		code, err := runCompress(path, out, szx.Options{ErrorBound: 1e-3}, dtype, true)
		if code != exitCorrupt || err == nil || !strings.Contains(err.Error(), "(3 trailing bytes)") {
			t.Errorf("-t %s, 4099 bytes: exit %d, %v; want exit %d and the trailing-bytes message",
				dtype, code, err, exitCorrupt)
		}
	}

	path := filepath.Join(dir, "whole.f32")
	if err := os.WriteFile(path, make([]byte, 4096), 0o644); err != nil {
		t.Fatal(err)
	}
	if code, err := runCompress(path, out, szx.Options{ErrorBound: 1e-3}, "f32", true); code != exitOK || err != nil {
		t.Fatalf("4096 bytes: exit %d, %v", code, err)
	}
	var info strings.Builder
	if code, err := runInfo(out, &info); code != exitOK || err != nil {
		t.Fatalf("-info: exit %d, %v", code, err)
	}
	if !strings.Contains(info.String(), " n=1024 ") {
		t.Fatalf("-info %q; want n=1024", info.String())
	}
}
