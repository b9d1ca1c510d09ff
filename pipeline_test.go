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

// TestPipeReaderRoundTrip drives the pipelined reader over inline Writer
// output at several parallelisms and read granularities, checking values
// against the inline Reader bit for bit.
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

	// Small-buffer Read path.
	pr := NewPipeReader(bytes.NewReader(blob), 2)
	var out []float32
	p := make([]float32, 777)
	for {
		n, rerr := pr.Read(p)
		out = append(out, p[:n]...)
		if rerr == io.EOF {
			break
		}
		if rerr != nil {
			t.Fatal(rerr)
		}
	}
	if len(out) != len(want) {
		t.Fatalf("chunked read: got %d values want %d", len(out), len(want))
	}
	_ = pr.Close()
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

	t.Run("timestream close paths", func(t *testing.T) {
		baseline := runtime.NumGoroutine()
		var buf bytes.Buffer
		tw, err := NewTimeStreamWriter(&buf, Options{ErrorBound: 1e-3})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 4; i++ {
			if err := tw.WriteFrame(data[:20000]); err != nil {
				t.Fatal(err)
			}
		}
		if err := tw.Close(); err != nil {
			t.Fatal(err)
		}
		tr := NewTimeStreamReader(bytes.NewReader(buf.Bytes()))
		if _, err := tr.ReadFrame(); err != nil {
			t.Fatal(err)
		}
		_ = tr.Close() // mid-stream abandon
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

// TestTimeStreamRoundTrip checks the pipelined temporal container end to
// end: bound respected on every frame, EOF after the last, truncation
// reported.
func TestTimeStreamRoundTrip(t *testing.T) {
	const frames, n = 12, 30000
	base := testField(n, 41)
	var buf bytes.Buffer
	tw, err := NewTimeStreamWriter(&buf, Options{ErrorBound: 1e-3})
	if err != nil {
		t.Fatal(err)
	}
	frame := make([]float32, n)
	for f := 0; f < frames; f++ {
		for i := range frame {
			frame[i] = base[i] + float32(f)*0.01*float32(math.Sin(float64(i)/500))
		}
		if err := tw.WriteFrame(frame); err != nil {
			t.Fatal(err)
		}
	}
	if err := tw.Close(); err != nil {
		t.Fatal(err)
	}

	tr := NewTimeStreamReader(bytes.NewReader(buf.Bytes()))
	for f := 0; f < frames; f++ {
		got, err := tr.ReadFrame()
		if err != nil {
			t.Fatalf("frame %d: %v", f, err)
		}
		for i := range got {
			want := float64(base[i]) + float64(f)*0.01*math.Sin(float64(i)/500)
			// The writer round-trips through float32, so compare against the
			// float32 frame the writer actually saw.
			w32 := base[i] + float32(f)*0.01*float32(math.Sin(float64(i)/500))
			_ = want
			if math.Abs(float64(w32)-float64(got[i])) > 1e-3 {
				t.Fatalf("frame %d value %d exceeds bound", f, i)
			}
		}
	}
	if _, err := tr.ReadFrame(); err != io.EOF {
		t.Fatalf("after last frame: %v", err)
	}
	_ = tr.Close()

	// Truncation errors cleanly.
	trunc := NewTimeStreamReader(bytes.NewReader(buf.Bytes()[:buf.Len()/2]))
	var terr error
	for terr == nil {
		_, terr = trunc.ReadFrame()
	}
	if terr == io.EOF || !errors.Is(terr, ErrTimeStream) {
		t.Fatalf("truncated temporal stream: %v", terr)
	}
	_ = trunc.Close()
}

// TestTimeStreamGoldenHash pins the SZXT container bytes with a literal
// hash, the temporal counterpart of TestPipeStreamGoldenHash: a keyframe,
// delta frames, and the empty container's header-plus-terminator.
func TestTimeStreamGoldenHash(t *testing.T) {
	const golden = "748b413f9a8f78a624017f81abed9a25e29287cda08025d4b95162e6a18940f8"
	write := func(frames [][]float32) []byte {
		var buf bytes.Buffer
		tw, err := NewTimeStreamWriter(&buf, Options{ErrorBound: 1e-4})
		if err != nil {
			t.Fatal(err)
		}
		for _, f := range frames {
			if err := tw.WriteFrame(f); err != nil {
				t.Fatal(err)
			}
		}
		if err := tw.Close(); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	if got := hex.EncodeToString(sumOf(write(evolveFrames(20000, 6, 7)))); got != golden {
		t.Fatalf("temporal stream hash drifted: %s", got)
	}
	if got, want := write(nil), []byte("SZXT\x01\x00\x00\x00\x00"); !bytes.Equal(got, want) {
		t.Fatalf("empty temporal container = %q, want %q", got, want)
	}
}

// TestArchivePipelined checks the concurrent archive writer: identical
// bytes to the serial writer, WriteTo identical to Bytes, and error
// surfacing through Flush.
func TestArchivePipelined(t *testing.T) {
	fields := map[string][]float32{}
	serial := NewArchiveWriter(Options{ErrorBound: 1e-3})
	pipe := NewPipelinedArchiveWriter(Options{ErrorBound: 1e-3}, 4)
	for i := 0; i < 12; i++ {
		name := fmt.Sprintf("field%02d", i)
		data := testField(20000+137*i, int64(50+i))
		fields[name] = data
		if err := serial.AddField(name, []int{len(data)}, data); err != nil {
			t.Fatal(err)
		}
		if err := pipe.AddField(name, []int{len(data)}, data); err != nil {
			t.Fatal(err)
		}
	}
	if err := pipe.Flush(); err != nil {
		t.Fatal(err)
	}
	want, got := serial.Bytes(), pipe.Bytes()
	if !bytes.Equal(want, got) {
		t.Fatalf("pipelined archive bytes differ from serial (%d vs %d)", len(got), len(want))
	}
	var sb bytes.Buffer
	n, err := pipe.WriteTo(&sb)
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

	// Errors from in-flight compressions surface via Flush and poison Add.
	bad := NewPipelinedArchiveWriter(Options{ErrorBound: -1}, 2)
	_ = bad.AddField("x", []int{64}, testField(64, 1))
	if err := bad.Flush(); !errors.Is(err, ErrErrBound) {
		t.Fatalf("flush error: %v", err)
	}
	if err := bad.AddField("y", []int{64}, testField(64, 2)); !errors.Is(err, ErrErrBound) {
		t.Fatalf("add after error: %v", err)
	}
	if b := bad.Bytes(); b != nil {
		t.Fatalf("Bytes after error returned %d bytes", len(b))
	}
}
