package szx

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"math"
	"runtime"
	"testing"
	"time"
)

// serialStreamBytes compresses data through the inline Writer, the byte
// reference every pipelined configuration must reproduce exactly.
func serialStreamBytes(t *testing.T, data []float32, opt Options, chunk int) []byte {
	t.Helper()
	var buf bytes.Buffer
	w := NewWriter(&buf, opt, chunk)
	if err := w.Write(data); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestPipeWriterByteIdentity pins the tentpole invariant: the pipelined
// writer's output is byte-identical to the inline Writer's for every
// parallelism, chunk size (including ragged tails), and write-slicing
// pattern.
func TestPipeWriterByteIdentity(t *testing.T) {
	data := testField(300000, 23)
	parallelisms := []int{1, 2, runtime.GOMAXPROCS(0)}
	chunks := []int{1 << 16, 10007, 1 << 14} // 10007 leaves a ragged tail
	opts := []Options{
		{ErrorBound: 1e-3},
		{ErrorBound: 1e-3, Mode: BoundRelative}, // per-chunk range resolution
	}
	for _, opt := range opts {
		for _, chunk := range chunks {
			want := serialStreamBytes(t, data, opt, chunk)
			for _, par := range parallelisms {
				var buf bytes.Buffer
				pw := NewPipeWriter(&buf, opt, chunk, par)
				// Uneven write slices exercise the internal re-buffering.
				for lo := 0; lo < len(data); {
					hi := lo + 9001
					if hi > len(data) {
						hi = len(data)
					}
					if err := pw.Write(data[lo:hi]); err != nil {
						t.Fatal(err)
					}
					lo = hi
				}
				if err := pw.Close(); err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(want, buf.Bytes()) {
					t.Fatalf("mode=%v chunk=%d par=%d: pipelined bytes differ from serial (%d vs %d)",
						opt.Mode, chunk, par, buf.Len(), len(want))
				}
			}
		}
	}
}

// TestPipeStreamGoldenHash pins the pipelined container bytes to the
// historical serial wire format with a literal hash, so neither side can
// drift even in lockstep.
func TestPipeStreamGoldenHash(t *testing.T) {
	const golden = "6b13a6fb3d2c1b8a3e278e99c00c38f3a6f5de3b477ce9d8c051a0ecd3007b05"
	data := testField(100000, 7)
	want := serialStreamBytes(t, data, Options{ErrorBound: 1e-3}, 1<<15)
	if got := hex.EncodeToString(sumOf(want)); got != golden {
		t.Fatalf("serial stream hash drifted: %s", got)
	}
	var buf bytes.Buffer
	pw := NewPipeWriter(&buf, Options{ErrorBound: 1e-3}, 1<<15, 3)
	if err := pw.Write(data); err != nil {
		t.Fatal(err)
	}
	if err := pw.Close(); err != nil {
		t.Fatal(err)
	}
	if got := hex.EncodeToString(sumOf(buf.Bytes())); got != golden {
		t.Fatalf("pipelined stream hash drifted: %s", got)
	}
}

func sumOf(b []byte) []byte {
	s := sha256.Sum256(b)
	return s[:]
}

// TestPipeReaderRoundTrip drives the pipelined reader's ReadAll over inline
// Writer output at several parallelisms, checking values against the
// inline Reader bit for bit (TestPipeReadWindow covers Read).
func TestPipeReaderRoundTrip(t *testing.T) {
	data := testField(250000, 29)
	blob := serialStreamBytes(t, data, Options{ErrorBound: 1e-3}, 10007)
	want, err := NewReader(bytes.NewReader(blob)).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	for _, par := range []int{1, 2, runtime.GOMAXPROCS(0)} {
		pr := NewPipeReader(bytes.NewReader(blob), par)
		got, err := pr.ReadAll()
		if err != nil {
			t.Fatalf("par=%d: %v", par, err)
		}
		if len(got) != len(want) {
			t.Fatalf("par=%d: got %d values want %d", par, len(got), len(want))
		}
		for i := range want {
			if math.Float32bits(want[i]) != math.Float32bits(got[i]) {
				t.Fatalf("par=%d: value %d differs from serial reader", par, i)
			}
		}
		if err := pr.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestPipeRoundTripEmpty checks the empty-stream container both ways.
func TestPipeRoundTripEmpty(t *testing.T) {
	var buf bytes.Buffer
	pw := NewPipeWriter(&buf, Options{ErrorBound: 1e-3}, 0, 2)
	if err := pw.Close(); err != nil {
		t.Fatal(err)
	}
	if want := serialStreamBytes(t, nil, Options{ErrorBound: 1e-3}, 0); !bytes.Equal(want, buf.Bytes()) {
		t.Fatalf("empty pipelined container differs from serial")
	}
	pr := NewPipeReader(bytes.NewReader(buf.Bytes()), 2)
	out, err := pr.ReadAll()
	if err != nil || len(out) != 0 {
		t.Fatalf("empty stream: %v, %d values", err, len(out))
	}
	if _, err := pr.Read(make([]float32, 4)); err != io.EOF {
		t.Fatalf("read after EOF: %v", err)
	}
}

// TestPipeWriterErrors pins the error semantics: a compression error from
// an in-flight chunk surfaces on Write or Close, first error wins, and the
// writer shuts down cleanly.
func TestPipeWriterErrors(t *testing.T) {
	t.Run("bad options", func(t *testing.T) {
		var buf bytes.Buffer
		pw := NewPipeWriter(&buf, Options{ErrorBound: -1}, 1<<12, 2)
		err := pw.Write(testField(1<<14, 3))
		if err == nil {
			err = pw.Close()
		} else {
			_ = pw.Close()
		}
		if !errors.Is(err, ErrErrBound) {
			t.Fatalf("got %v, want ErrErrBound", err)
		}
	})

	t.Run("sink write error", func(t *testing.T) {
		fw := &failAfterWriter{failAt: 2}
		pw := NewPipeWriter(fw, Options{ErrorBound: 1e-3}, 1<<12, 2)
		data := testField(1<<16, 4)
		var err error
		for i := 0; i < 8 && err == nil; i++ {
			err = pw.Write(data)
		}
		cerr := pw.Close()
		if err == nil {
			err = cerr
		}
		if !errors.Is(err, errSinkFull) {
			t.Fatalf("got %v, want errSinkFull", err)
		}
		// The error state is sticky.
		if werr := pw.Write(data[:10]); !errors.Is(werr, errSinkFull) {
			t.Fatalf("write after error: %v", werr)
		}
	})

	t.Run("write after close", func(t *testing.T) {
		var buf bytes.Buffer
		pw := NewPipeWriter(&buf, Options{ErrorBound: 1e-3}, 0, 1)
		if err := pw.Close(); err != nil {
			t.Fatal(err)
		}
		if err := pw.Write([]float32{1}); err == nil {
			t.Fatal("write after close accepted")
		}
		if err := pw.Close(); err != nil {
			t.Fatalf("second close: %v", err)
		}
	})
}

var errSinkFull = errors.New("sink full")

// gatedWriter blocks every Write until its gate channel is closed.
type gatedWriter struct{ gate chan struct{} }

func (g *gatedWriter) Write(p []byte) (int, error) {
	<-g.gate
	return len(p), nil
}

// failAfterWriter accepts failAt writes then fails every later one.
type failAfterWriter struct {
	writes int
	failAt int
}

func (f *failAfterWriter) Write(p []byte) (int, error) {
	f.writes++
	if f.writes > f.failAt {
		return 0, errSinkFull
	}
	return len(p), nil
}

// TestPipeReaderFrameError pins that the pipelined reader reports
// corruption exactly like the inline Reader: same FrameError index/offset,
// same unwrapping, first frame error wins even when later frames are
// already in flight.
func TestPipeReaderFrameError(t *testing.T) {
	data := testField(4*16384, 21)
	blob := serialStreamBytes(t, data, Options{ErrorBound: 1e-3}, 1<<14)
	offs := streamFrameOffsets(t, blob)
	if len(offs) != 4 {
		t.Fatalf("got %d frames; want 4", len(offs))
	}

	check := func(t *testing.T, err error, frame int, off int64, cause error) {
		t.Helper()
		var fe *FrameError
		if !errors.As(err, &fe) {
			t.Fatalf("error %v (%T) is not a *FrameError", err, err)
		}
		if fe.Frame != frame || fe.Offset != off {
			t.Errorf("FrameError{Frame: %d, Offset: %d}; want frame %d at offset %d",
				fe.Frame, fe.Offset, frame, off)
		}
		if !errors.Is(err, ErrStream) || !errors.Is(err, cause) {
			t.Errorf("%v does not unwrap to ErrStream and %v", err, cause)
		}
	}

	t.Run("corrupt middle frame", func(t *testing.T) {
		bad := append([]byte(nil), blob...)
		copy(bad[offs[1]+4:], "junk")
		pr := NewPipeReader(bytes.NewReader(bad), 3)
		out, err := pr.ReadAll()
		check(t, err, 1, offs[1], ErrBadMagic)
		if len(out) != 16384 {
			t.Fatalf("recovered %d values before the bad frame; want %d", len(out), 16384)
		}
		_ = pr.Close()
	})

	t.Run("truncated payload", func(t *testing.T) {
		pr := NewPipeReader(bytes.NewReader(blob[:offs[3]+4+10]), 3)
		out, err := pr.ReadAll()
		check(t, err, 3, offs[3], io.ErrUnexpectedEOF)
		if len(out) != 3*16384 {
			t.Fatalf("recovered %d values; want %d", len(out), 3*16384)
		}
		_ = pr.Close()
	})

	t.Run("garbage header", func(t *testing.T) {
		pr := NewPipeReader(bytes.NewReader([]byte("this is not a stream")), 2)
		if _, err := pr.ReadAll(); !errors.Is(err, ErrStream) {
			t.Fatalf("garbage accepted: %v", err)
		}
		_ = pr.Close()
	})
}

// TestPipeTruncationSweep mirrors TestStreamTruncated for the pipelined
// reader: cutting the container anywhere must error (or cleanly EOF at a
// frame edge), never panic or leak, and recovered values respect the bound.
func TestPipeTruncationSweep(t *testing.T) {
	data := testField(50000, 13)
	full := serialStreamBytes(t, data, Options{ErrorBound: 1e-3}, 1<<14)
	for cut := 0; cut < len(full); cut += len(full)/40 + 1 {
		pr := NewPipeReader(bytes.NewReader(full[:cut]), 2)
		out, err := pr.ReadAll()
		if err == nil && cut < len(full)-4 && len(out) == len(data) {
			t.Fatalf("cut=%d: full data recovered from truncated stream", cut)
		}
		for i := range out {
			if math.Abs(float64(data[i])-float64(out[i])) > 1e-3 {
				t.Fatalf("cut=%d: recovered value %d exceeds bound", cut, i)
			}
		}
		_ = pr.Close()
	}
}

// waitGoroutines polls until the goroutine count drops back to the
// baseline (goroutine exit is asynchronous after channel closes).
func waitGoroutines(t *testing.T, baseline int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		runtime.GC()
		n := runtime.NumGoroutine()
		if n <= baseline {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("goroutine leak: %d > baseline %d\n%s", n, baseline,
				buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestPipeGoroutineLeaks exercises every shutdown path — clean Close,
// writer Abort, sink error, reader mid-stream Close, reader error — and
// checks the goroutine count returns to baseline each time.
func TestPipeGoroutineLeaks(t *testing.T) {
	data := testField(200000, 31)
	blob := serialStreamBytes(t, data, Options{ErrorBound: 1e-3}, 1<<14)

	t.Run("writer clean close", func(t *testing.T) {
		baseline := runtime.NumGoroutine()
		var buf bytes.Buffer
		pw := NewPipeWriter(&buf, Options{ErrorBound: 1e-3}, 1<<14, 4)
		if err := pw.Write(data); err != nil {
			t.Fatal(err)
		}
		if err := pw.Close(); err != nil {
			t.Fatal(err)
		}
		waitGoroutines(t, baseline)
	})

	t.Run("writer abort mid-stream", func(t *testing.T) {
		baseline := runtime.NumGoroutine()
		var buf bytes.Buffer
		pw := NewPipeWriter(&buf, Options{ErrorBound: 1e-3}, 1<<12, 4)
		if err := pw.Write(data[:100000]); err != nil {
			t.Fatal(err)
		}
		pw.Abort()
		waitGoroutines(t, baseline)
		// The truncated container is still prefix-readable.
		out, err := NewReader(bytes.NewReader(buf.Bytes())).ReadAll()
		if err == nil && len(out) == 100000 {
			t.Log("all frames flushed before abort (legal)")
		}
		if err := pw.Close(); !errors.Is(err, errStreamAborted) {
			t.Fatalf("close after abort: %v", err)
		}
	})

	t.Run("writer sink error", func(t *testing.T) {
		baseline := runtime.NumGoroutine()
		pw := NewPipeWriter(&failAfterWriter{failAt: 1}, Options{ErrorBound: 1e-3}, 1<<12, 4)
		var err error
		for i := 0; i < 8 && err == nil; i++ {
			err = pw.Write(data[:50000])
		}
		_ = pw.Close()
		waitGoroutines(t, baseline)
	})

	t.Run("reader clean EOF", func(t *testing.T) {
		baseline := runtime.NumGoroutine()
		pr := NewPipeReader(bytes.NewReader(blob), 4)
		if _, err := pr.ReadAll(); err != nil {
			t.Fatal(err)
		}
		if err := pr.Close(); err != nil {
			t.Fatal(err)
		}
		waitGoroutines(t, baseline)
	})

	t.Run("reader mid-stream close", func(t *testing.T) {
		baseline := runtime.NumGoroutine()
		pr := NewPipeReader(bytes.NewReader(blob), 4)
		p := make([]float32, 1000)
		if _, err := pr.Read(p); err != nil {
			t.Fatal(err)
		}
		if err := pr.Close(); err != nil {
			t.Fatal(err)
		}
		waitGoroutines(t, baseline)
		if _, err := pr.Read(p); err == nil {
			t.Fatal("read after close accepted")
		}
	})

	t.Run("reader decode error, no Close", func(t *testing.T) {
		baseline := runtime.NumGoroutine()
		offs := streamFrameOffsets(t, blob)
		bad := append([]byte(nil), blob...)
		copy(bad[offs[1]+4:], "junk") // frame 1 reads whole but fails to decode
		pr := NewPipeReader(bytes.NewReader(bad), 2)
		var fe *FrameError
		if _, err := pr.ReadAll(); !errors.As(err, &fe) || fe.Frame != 1 {
			t.Fatalf("corrupt frame 1: %v", err)
		}
		// A terminal error stops the prefetcher and workers with no Close.
		waitGoroutines(t, baseline)
		if err := pr.Close(); err != nil {
			t.Fatal(err)
		}
	})

	t.Run("reader corrupt stream", func(t *testing.T) {
		baseline := runtime.NumGoroutine()
		bad := append([]byte(nil), blob...)
		copy(bad[20:], "garbagegarbage")
		pr := NewPipeReader(bytes.NewReader(bad), 4)
		if _, err := pr.ReadAll(); err == nil {
			t.Fatal("corrupt stream accepted")
		}
		_ = pr.Close()
		waitGoroutines(t, baseline)
	})

	t.Run("writer cancelled context", func(t *testing.T) {
		baseline := runtime.NumGoroutine()
		ctx, cancel := context.WithCancel(context.Background())
		gate := make(chan struct{})
		pw := NewPipeWriterContext(ctx, &gatedWriter{gate: gate}, Options{ErrorBound: 1e-3}, 1<<12, 2)
		// The gated sink stalls the emitter, so the ring fills and the
		// producer blocks in submit; the cancellation must wake it.
		writeErr := make(chan error, 1)
		go func() {
			var err error
			for err == nil {
				err = pw.Write(data[:1<<12])
			}
			writeErr <- err
		}()
		time.Sleep(20 * time.Millisecond)
		cancel()
		if err := <-writeErr; !errors.Is(err, context.Canceled) {
			t.Fatalf("cancelled write: %v", err)
		}
		close(gate) // let the emitter's in-flight sink write return
		if err := pw.Close(); !errors.Is(err, context.Canceled) {
			t.Fatalf("close after cancel: %v", err)
		}
		waitGoroutines(t, baseline)
	})

	t.Run("writer context cancelled before first write", func(t *testing.T) {
		baseline := runtime.NumGoroutine()
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		var buf bytes.Buffer
		pw := NewPipeWriterContext(ctx, &buf, Options{ErrorBound: 1e-3}, 1<<12, 2)
		if err := pw.Write(data[:100]); !errors.Is(err, context.Canceled) {
			t.Fatalf("write on cancelled context: %v", err)
		}
		if err := pw.Close(); !errors.Is(err, context.Canceled) {
			t.Fatalf("close on cancelled context: %v", err)
		}
		if buf.Len() != 0 {
			t.Fatalf("cancelled writer emitted %d bytes", buf.Len())
		}
		waitGoroutines(t, baseline)
	})

	t.Run("reader cancelled context", func(t *testing.T) {
		baseline := runtime.NumGoroutine()
		ctx, cancel := context.WithCancel(context.Background())
		pr := NewPipeReaderContext(ctx, bytes.NewReader(blob), 4)
		p := make([]float32, 1000)
		if _, err := pr.Read(p); err != nil {
			t.Fatal(err)
		}
		cancel()
		var err error
		for err == nil {
			_, err = pr.Read(p)
		}
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("read after cancel: %v", err)
		}
		// The prefetcher and workers wind down on cancellation alone, with
		// no Close call — the abandoned-HTTP-request guarantee.
		waitGoroutines(t, baseline)
		if err := pr.Close(); err != nil {
			t.Fatal(err)
		}
		waitGoroutines(t, baseline)
	})

	t.Run("inline writer", func(t *testing.T) {
		baseline := runtime.NumGoroutine()
		var buf bytes.Buffer
		w := NewWriter(&buf, Options{ErrorBound: 1e-3}, 1<<14)
		if err := w.Write(data); err != nil {
			t.Fatal(err)
		}
		waitGoroutines(t, baseline) // mid-stream: nothing runs in the background
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		waitGoroutines(t, baseline)
	})

	t.Run("inline reader abandoned mid-stream without Close", func(t *testing.T) {
		baseline := runtime.NumGoroutine()
		r := NewReader(bytes.NewReader(blob))
		if _, err := r.Read(make([]float32, 1000)); err != nil {
			t.Fatal(err)
		}
		waitGoroutines(t, baseline)
	})
}

// TestPipeCrossSerial round-trips pipelined writer output through the
// inline reader and vice versa — the two paths must interoperate freely.
func TestPipeCrossSerial(t *testing.T) {
	data := testField(150000, 37)
	var buf bytes.Buffer
	pw := NewPipeWriter(&buf, Options{ErrorBound: 1e-3}, 10007, 3)
	if err := pw.Write(data); err != nil {
		t.Fatal(err)
	}
	if err := pw.Close(); err != nil {
		t.Fatal(err)
	}
	serialOut, err := NewReader(bytes.NewReader(buf.Bytes())).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	pr := NewPipeReader(bytes.NewReader(buf.Bytes()), 3)
	pipeOut, err := pr.ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	_ = pr.Close()
	if len(serialOut) != len(data) || len(pipeOut) != len(data) {
		t.Fatalf("lengths: serial %d pipe %d want %d", len(serialOut), len(pipeOut), len(data))
	}
	for i := range data {
		if math.Float32bits(serialOut[i]) != math.Float32bits(pipeOut[i]) {
			t.Fatalf("value %d differs between serial and pipelined readers", i)
		}
		if math.Abs(float64(data[i])-float64(serialOut[i])) > 1e-3 {
			t.Fatalf("value %d exceeds bound", i)
		}
	}
}

// TestArchivePipelined checks the archive writer with Workers set, which
// spreads each field's blocks over the parallel engine: identical bytes to
// the serial writer, WriteTo identical to Bytes, and every field readable.
func TestArchivePipelined(t *testing.T) {
	fields := map[string][]float32{}
	serial := NewArchiveWriter(Options{ErrorBound: 1e-3})
	par := NewArchiveWriter(Options{ErrorBound: 1e-3, Workers: 4})
	for i := 0; i < 12; i++ {
		name := fmt.Sprintf("field%02d", i)
		data := testField(20000+137*i, int64(50+i))
		fields[name] = data
		if err := serial.AddField(name, []int{len(data)}, data); err != nil {
			t.Fatal(err)
		}
		if err := par.AddField(name, []int{len(data)}, data); err != nil {
			t.Fatal(err)
		}
	}
	want, got := serial.Bytes(), par.Bytes()
	if !bytes.Equal(want, got) {
		t.Fatalf("Workers 4 archive bytes differ from serial (%d vs %d)", len(got), len(want))
	}
	var sb bytes.Buffer
	n, err := par.WriteTo(&sb)
	if err != nil {
		t.Fatal(err)
	}
	if n != int64(len(want)) || !bytes.Equal(want, sb.Bytes()) {
		t.Fatalf("WriteTo differs from Bytes (%d vs %d bytes)", n, len(want))
	}
	a, err := OpenArchive(got)
	if err != nil {
		t.Fatal(err)
	}
	for name, data := range fields {
		vals, _, err := a.Read(name)
		if err != nil {
			t.Fatal(err)
		}
		if len(vals) != len(data) {
			t.Fatalf("field %s: %d values want %d", name, len(vals), len(data))
		}
	}
}

// readerUnder opens the reader under test: the inline schedule at
// parallelism 0, the pipelined one otherwise.
func readerUnder(blob []byte, par int) *PipeReader {
	if par == 0 {
		return NewReader(bytes.NewReader(blob))
	}
	return NewPipeReader(bytes.NewReader(blob), par)
}

// readThrough drains pr with Reads into a buffer of size values, after a
// first Read of first values when first > 0, and checks that io.EOF comes
// alone, on the call after the last value.
func readThrough(t *testing.T, pr *PipeReader, size, first int) []float32 {
	t.Helper()
	var out []float32
	p := make([]float32, size)
	if first > 0 {
		n, err := pr.Read(p[:first])
		if n != first || err != nil {
			t.Fatalf("short first Read: %d values, %v", n, err)
		}
		out = append(out, p[:n]...)
	}
	for {
		n, err := pr.Read(p)
		out = append(out, p[:n]...)
		if err == io.EOF {
			if n != 0 {
				t.Fatalf("io.EOF came with %d values", n)
			}
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		if n == 0 {
			t.Fatal("Read returned no values and no error")
		}
	}
	if n, err := pr.Read(p); n != 0 || err != io.EOF {
		t.Fatalf("Read after io.EOF: %d values, %v", n, err)
	}
	return out
}

// TestPipeReadWindow drains containers through Read buffers that do and
// do not fit whole frames, on every schedule, with and without a short
// Read first (so a window opens mid-frame): the values must be
// bit-identical to the inline ReadAll's.
func TestPipeReadWindow(t *testing.T) {
	data := testField(200000, 43)
	for _, chunk := range []int{10007, 1 << 14, 1 << 16} {
		blob := serialStreamBytes(t, data, Options{ErrorBound: 1e-3}, chunk)
		want, err := NewReader(bytes.NewReader(blob)).ReadAll()
		if err != nil {
			t.Fatal(err)
		}
		n := len(want)
		frames := len(streamFrameOffsets(t, blob))
		for _, par := range []int{0, 1, 2, 4} {
			for _, size := range []int{n + 1, n, chunk, chunk - 1, chunk + 1, 2*chunk - 1, 3 * chunk, 777} {
				for _, first := range []int{0, 100} {
					pr := readerUnder(blob, par)
					got := readThrough(t, pr, size, first)
					if len(got) != n {
						t.Fatalf("chunk=%d par=%d size=%d first=%d: %d values, want %d",
							chunk, par, size, first, len(got), n)
					}
					for i := range want {
						if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
							t.Fatalf("chunk=%d par=%d size=%d first=%d: value %d differs",
								chunk, par, size, first, i)
						}
					}
					if err := pr.Close(); err != nil {
						t.Fatal(err)
					}
				}
			}
			// The window must take the frames read after it opened: with
			// more frames than a ring holds, a Read of the whole stream
			// decodes its last frame in place on every schedule.
			if frames > pipelineDepth(par) {
				pr := readerUnder(blob, par)
				if m, err := pr.Read(make([]float32, n)); m != n || err != nil {
					t.Fatalf("par=%d: Read of the whole stream: %d values, %v", par, m, err)
				}
				if !pr.cur.lent {
					t.Errorf("chunk=%d par=%d: last frame was copied, not decoded into the window", chunk, par)
				}
				_ = pr.Close()
			}
		}
	}
}

// sourceFunc adapts a function to io.Reader.
type sourceFunc func(p []byte) (int, error)

func (f sourceFunc) Read(p []byte) (int, error) { return f(p) }

// breakLastBlock makes a frame's SZx payload fail in decode after all but
// its last block have decoded: the last block's size entry points past
// the payload.
func breakLastBlock(t *testing.T, frame []byte) {
	t.Helper()
	h, err := Info(frame)
	if err != nil {
		t.Fatal(err)
	}
	const headerSize = 28
	nb := h.NumBlocks()
	at := headerSize + (nb+7)/8 + 2*(nb-1)
	frame[at], frame[at+1] = 0xff, 0xff
}

// TestPipeCallerMemory pins the ownership rule: no goroutine writes a
// Read's p after the Read returns, even when it fails inside its window,
// and none reads a Write's values after the Write returns, even through a
// slot that held them and went back to the pool.
func TestPipeCallerMemory(t *testing.T) {
	const chunk = 1 << 14
	data := testField(8*chunk, 47)
	blob := serialStreamBytes(t, data, Options{ErrorBound: 1e-3}, chunk)
	offs := streamFrameOffsets(t, blob)
	if len(offs) != 8 {
		t.Fatalf("got %d frames; want 8", len(offs))
	}

	// readFails runs one Read over the whole stream, which must fail, and
	// checks that p beyond what it returned holds still once it has.
	readFails := func(t *testing.T, pr *PipeReader) (int, error) {
		t.Helper()
		p := make([]float32, len(data)+1)
		n, err := pr.Read(p)
		if err == nil {
			t.Fatalf("Read succeeded with %d values", n)
		}
		snap := append([]float32(nil), p[n:]...)
		if cerr := pr.Close(); cerr != nil {
			t.Fatal(cerr)
		}
		for i := range snap {
			if math.Float32bits(snap[i]) != math.Float32bits(p[n+i]) {
				t.Fatalf("p[%d] changed after Read returned", n+i)
			}
		}
		return n, err
	}

	t.Run("read window, corrupt frame 3 of 8", func(t *testing.T) {
		bad := append([]byte(nil), blob...)
		breakLastBlock(t, bad[offs[3]+4:offs[4]])
		for _, par := range []int{0, 1, 2, 4} {
			n, err := readFails(t, readerUnder(bad, par))
			var fe *FrameError
			if !errors.As(err, &fe) || fe.Frame != 3 || n != 3*chunk {
				t.Fatalf("par=%d: %d values, %v; want 3 frames and frame 3's error", par, n, err)
			}
		}
	})

	t.Run("read window, context cancelled after frame 0", func(t *testing.T) {
		for _, par := range []int{1, 2, 4} {
			ctx, cancel := context.WithCancel(context.Background())
			src := bytes.NewReader(blob)
			pr := NewPipeReaderContext(ctx, sourceFunc(func(p []byte) (int, error) {
				if int64(len(blob)-src.Len()) >= offs[1] {
					cancel()
				}
				return src.Read(p)
			}), par)
			if _, err := readFails(t, pr); !errors.Is(err, context.Canceled) {
				t.Fatalf("par=%d: %v, want context.Canceled", par, err)
			}
			cancel()
		}
	})

	// The scribbled slice of each writer case stays NaN through every
	// pooled stream that follows.
	var scribbled [][]float32
	t.Run("write then scribble", func(t *testing.T) {
		for _, par := range []int{0, 1, 2, 4} {
			// One full chunk fewer than the ring holds, plus a tail: the
			// Write takes every slot without waiting for one to come back,
			// so only its wait for the lent encodes orders them before the
			// scribble.
			full := pipelineDepth(max(par, 1)) - 1
			orig := append(data[:full*chunk:full*chunk], data[:777]...)
			want := serialStreamBytes(t, orig, Options{ErrorBound: 1e-3}, chunk)
			in := append([]float32(nil), orig...)
			var buf bytes.Buffer
			var pw *PipeWriter
			if par == 0 {
				pw = NewWriter(&buf, Options{ErrorBound: 1e-3}, chunk)
			} else {
				pw = NewPipeWriter(&buf, Options{ErrorBound: 1e-3}, chunk, par)
			}
			if err := pw.Write(in); err != nil {
				t.Fatal(err)
			}
			for i := range in {
				in[i] = float32(math.NaN())
			}
			if err := pw.Close(); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(buf.Bytes(), want) {
				t.Fatalf("par=%d: container differs from the inline Writer's on the original values", par)
			}
			scribbled = append(scribbled, in)
		}
	})

	t.Run("pooled slots leave the scribbled slices alone", func(t *testing.T) {
		if len(scribbled) == 0 {
			t.Skip("no scribbled slices")
		}
		for _, par := range []int{0, 1, 2, 4} {
			pr := readerUnder(blob, par)
			readThrough(t, pr, 5000, 0)
			_ = pr.Close()
			var buf bytes.Buffer
			pw := NewPipeWriter(&buf, Options{ErrorBound: 1e-3}, chunk, max(par, 1))
			for lo := 0; lo < len(data); lo += 3 * chunk {
				if err := pw.Write(data[lo:min(lo+3*chunk, len(data))]); err != nil {
					t.Fatal(err)
				}
			}
			if err := pw.Close(); err != nil {
				t.Fatal(err)
			}
		}
		for k, in := range scribbled {
			for i, v := range in {
				if !math.IsNaN(float64(v)) {
					t.Fatalf("writer case %d: scribbled value %d became %v", k, i, v)
				}
			}
		}
	})
}
