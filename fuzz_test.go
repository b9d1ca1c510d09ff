package szx

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"runtime"
	"testing"

	"repro/internal/core"
)

func FuzzOpenArchive(f *testing.F) {
	aw := NewArchiveWriter(Options{ErrorBound: 1e-3})
	_ = aw.AddField("x", []int{64}, testField(64, 1))
	f.Add(aw.Bytes())
	f.Add([]byte("SZXA\x01\x00\x00\x00\x01"))
	f.Add([]byte("SZXA\x01\x00\x00\x10\x00"))
	for _, forged := range forgedArchives(f) {
		f.Add(forged)
	}
	f.Fuzz(func(t *testing.T, blob []byte) {
		a, err := OpenArchive(blob)
		if err == nil {
			for _, inf := range a.Fields() {
				_, _, _ = a.Read(inf.Name)
			}
		}
	})
}

func FuzzStreamReader(f *testing.F) {
	var buf bytes.Buffer
	w := NewWriter(&buf, Options{ErrorBound: 1e-3}, 64)
	_ = w.Write(testField(200, 2))
	_ = w.Close()
	f.Add(buf.Bytes())
	f.Add([]byte("SZXS\x01\x00\x00\x00\x00"))
	f.Fuzz(func(t *testing.T, blob []byte) {
		// Both read schedules must agree on corrupt input too: the same
		// values before the failure, and the same failing frame — through
		// ReadAll, and through Read windows that hold the whole stream, hold
		// it with room to spare, or hold a sliver of it.
		want, werr := NewReader(bytes.NewReader(blob)).ReadAll()
		check := func(how string, got []float32, gerr error) {
			t.Helper()
			if (werr == nil) != (gerr == nil) {
				t.Fatalf("%s: readers disagree on validity: inline=%v pipelined=%v", how, werr, gerr)
			}
			var wfe, gfe *FrameError
			if errors.As(werr, &wfe) != errors.As(gerr, &gfe) ||
				wfe != nil && (wfe.Frame != gfe.Frame || wfe.Offset != gfe.Offset) {
				t.Fatalf("%s: readers disagree on the failure: inline=%v pipelined=%v", how, werr, gerr)
			}
			if len(got) != len(want) {
				t.Fatalf("%s: pipelined reader got %d values, inline %d", how, len(got), len(want))
			}
			for i := range want {
				if math.Float32bits(want[i]) != math.Float32bits(got[i]) {
					t.Fatalf("%s: value %d differs between the inline and pipelined readers", how, i)
				}
			}
		}
		pr := NewPipeReader(bytes.NewReader(blob), 2)
		got, gerr := pr.ReadAll()
		if cerr := pr.Close(); cerr != nil {
			t.Fatalf("close: %v", cerr)
		}
		check("ReadAll", got, gerr)
		for _, size := range []int{max(len(want), 1), len(want) + 1, 64} {
			pr := NewPipeReader(bytes.NewReader(blob), 2)
			p := make([]float32, size)
			got, gerr = nil, nil
			for {
				n, err := pr.Read(p)
				got = append(got, p[:n]...)
				if err != nil {
					if err != io.EOF {
						gerr = err
					}
					break
				}
			}
			if cerr := pr.Close(); cerr != nil {
				t.Fatalf("close: %v", cerr)
			}
			check(fmt.Sprintf("Read into %d values", size), got, gerr)
		}
	})
}

func FuzzDecompressPublic(f *testing.F) {
	comp, _ := Compress(testField(300, 3), Options{ErrorBound: 1e-3})
	f.Add(comp)
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, blob []byte) {
		_, _ = Decompress(blob)
		_, _ = DecompressFloat64(blob)
		_, _ = Info(blob)
	})
}

// FuzzStreamPipeline cross-checks the pipelined streaming engine against
// the serial one: on any input the PipeWriter must emit a container
// byte-identical to Writer's at every parallelism, and the PipeReader must
// recover bit-identical values from it. The raw fuzz bytes are
// reinterpreted as float32 values (NaNs, infinities, subnormals included)
// and the chunk size is fuzzed too, so ragged tails, single-value chunks,
// and empty streams are all reached.
func FuzzStreamPipeline(f *testing.F) {
	seed := make([]byte, 4*500)
	for i := 0; i < 500; i++ {
		binary.LittleEndian.PutUint32(seed[4*i:], math.Float32bits(float32(i%89)/7))
	}
	f.Add(seed, uint16(64), uint8(0))
	f.Add(seed[:4*33+3], uint16(7), uint8(1)) // ragged tail values AND bytes
	f.Add([]byte{}, uint16(1), uint8(2))
	f.Add(seed[:4*9], uint16(1000), uint8(3)) // chunk larger than the input
	f.Fuzz(func(t *testing.T, raw []byte, chunk16 uint16, sel uint8) {
		chunk := int(chunk16)%2048 + 1
		bounds := []float64{1e-2, 1e-4, 0.5}
		opt := Options{ErrorBound: bounds[int(sel)%len(bounds)]}
		if sel&0x08 != 0 {
			opt.Mode = BoundRelative
		}
		vals := make([]float32, len(raw)/4)
		for i := range vals {
			vals[i] = math.Float32frombits(binary.LittleEndian.Uint32(raw[4*i:]))
		}

		var serial bytes.Buffer
		sw := NewWriter(&serial, opt, chunk)
		serr := sw.Write(vals)
		if serr == nil {
			serr = sw.Close()
		}

		for _, par := range []int{1, 2, runtime.GOMAXPROCS(0)} {
			var piped bytes.Buffer
			pw := NewPipeWriter(&piped, opt, chunk, par)
			// Write must be done with its values when it returns: scribble
			// over them before Close flushes the stream.
			in := append([]float32(nil), vals...)
			perr := pw.Write(in)
			for i := range in {
				in[i] = float32(math.NaN())
			}
			if perr == nil {
				perr = pw.Close()
			} else {
				_ = pw.Close()
			}
			if (serr == nil) != (perr == nil) {
				t.Fatalf("par=%d chunk=%d: serial/pipelined disagree on validity: %v vs %v",
					par, chunk, serr, perr)
			}
			if serr != nil {
				continue
			}
			if !bytes.Equal(serial.Bytes(), piped.Bytes()) {
				t.Fatalf("par=%d chunk=%d: pipelined container differs from serial (%d vs %d bytes)",
					par, chunk, piped.Len(), serial.Len())
			}

			pr := NewPipeReader(bytes.NewReader(piped.Bytes()), par)
			got, rerr := pr.ReadAll()
			want, werr := NewReader(bytes.NewReader(serial.Bytes())).ReadAll()
			if (rerr == nil) != (werr == nil) {
				t.Fatalf("par=%d: readers disagree on validity: serial=%v pipelined=%v", par, werr, rerr)
			}
			if rerr == nil {
				if len(got) != len(want) {
					t.Fatalf("par=%d: %d values, serial reader got %d", par, len(got), len(want))
				}
				for i := range want {
					if math.Float32bits(want[i]) != math.Float32bits(got[i]) {
						t.Fatalf("par=%d: value %d differs between serial and pipelined readers", par, i)
					}
				}
			}
			if cerr := pr.Close(); cerr != nil {
				t.Fatalf("par=%d: close: %v", par, cerr)
			}
		}
	})
}

// FuzzCompressParallel cross-checks the work-stealing parallel compressor
// against the serial encoder: on any input the two must emit byte-identical
// streams, or fail with the same error, at every worker count. The raw fuzz
// bytes are reinterpreted as float32 and float64 values (so the mutator
// reaches NaN payloads, signed zeros, subnormals, and adversarial exponent
// patterns for free), and the engine's adaptive size gate is lowered so
// fuzz-sized inputs actually exercise the chunked stealing and gather
// phases. Bit 0x20 of sel selects a value-range-relative bound, which the
// engine resolves from its own per-block stats phase.
func FuzzCompressParallel(f *testing.F) {
	seed := make([]byte, 4*300)
	for i := 0; i < 300; i++ {
		binary.LittleEndian.PutUint32(seed[4*i:], math.Float32bits(float32(i%97)/13))
	}
	f.Add(seed, uint8(0))
	f.Add(seed[:4*130+2], uint8(1)) // ragged tail bytes
	f.Add([]byte{}, uint8(2))
	weird := make([]byte, 4*64)
	for i := range weird {
		weird[i] = byte(i * 37)
	}
	f.Add(weird, uint8(3))
	f.Add(seed, uint8(0x20))
	// A relative bound over data that opens with a NaN run longer than one
	// 8-block chunk, at both widths (float32 NaN pairs read as float64 NaNs).
	nanRun := make([]byte, 4*4096)
	for i := 0; i < 4096; i++ {
		v := float32(math.NaN())
		if i >= 2100 {
			v = float32(i%97) / 13
		}
		binary.LittleEndian.PutUint32(nanRun[4*i:], math.Float32bits(v))
	}
	f.Add(nanRun, uint8(0x20))
	bounds := []float64{1e-2, 1e-4, 1e-7, 0.5}

	f.Fuzz(func(t *testing.T, raw []byte, sel uint8) {
		oldMin := core.ParallelMinBytes
		core.ParallelMinBytes = 0
		defer func() { core.ParallelMinBytes = oldMin }()

		opt := Options{ErrorBound: bounds[int(sel)%len(bounds)]}
		if sel&0x10 != 0 {
			opt.BlockSize = 64
		}
		if sel&0x20 != 0 {
			opt.Mode = BoundRelative
		}
		workerCounts := []int{2, 3, runtime.GOMAXPROCS(0)}

		f32 := make([]float32, len(raw)/4)
		for i := range f32 {
			f32[i] = math.Float32frombits(binary.LittleEndian.Uint32(raw[4*i:]))
		}
		ser, serr := CompressInto[float32](nil, f32, opt)
		for _, w := range workerCounts {
			popt := opt
			popt.Workers = w
			par, perr := CompressInto[float32](nil, f32, popt)
			if perr != serr {
				t.Fatalf("f32 w=%d: serial/parallel disagree on the error: %v vs %v", w, serr, perr)
			}
			if serr == nil && !bytes.Equal(ser, par) {
				t.Fatalf("f32 w=%d: parallel stream differs from serial (%d vs %d bytes)", w, len(ser), len(par))
			}
		}

		f64 := make([]float64, len(raw)/8)
		for i := range f64 {
			f64[i] = math.Float64frombits(binary.LittleEndian.Uint64(raw[8*i:]))
		}
		ser64, serr := CompressFloat64(f64, opt)
		for _, w := range workerCounts {
			popt := opt
			popt.Workers = w
			par64, perr := CompressInto[float64](nil, f64, popt)
			if perr != serr {
				t.Fatalf("f64 w=%d: serial/parallel disagree on the error: %v vs %v", w, serr, perr)
			}
			if serr == nil && !bytes.Equal(ser64, par64) {
				t.Fatalf("f64 w=%d: parallel stream differs from serial (%d vs %d bytes)", w, len(ser64), len(par64))
			}
		}
	})
}

// FuzzDecompressParallel drives the sharded decoders with arbitrary bytes.
// The parallel path trusts the zsize prefix sum to slice payloads per
// worker, so corrupted or truncated size tables are exactly where it could
// over-read; it must instead fail cleanly and, on valid streams, agree
// bitwise with the serial decoder.
func FuzzDecompressParallel(f *testing.F) {
	comp, _ := Compress(testField(1000, 4), Options{ErrorBound: 1e-3})
	f.Add(comp, 4)
	data64 := make([]float64, 700)
	for i := range data64 {
		data64[i] = float64(i%97) / 13
	}
	comp64, _ := CompressFloat64(data64, Options{ErrorBound: 1e-6})
	f.Add(comp64, 3)
	if len(comp) > 40 {
		trunc := append([]byte(nil), comp[:len(comp)-7]...)
		f.Add(trunc, 2)
		bad := append([]byte(nil), comp...)
		bad[30] ^= 0xFF // flip bits inside the zsize table
		f.Add(bad, 8)
	}
	f.Add([]byte("SZX1\x01\x00\x00\x00\x80\x00\x00\x00\xff\xff\xff\xff\xff\xff\xff\xff"), 5)
	f.Add([]byte{}, 0)
	f.Fuzz(func(t *testing.T, blob []byte, workers int) {
		workers = workers%16 + 1
		par, perr := DecompressParallel(blob, workers)
		ser, serr := Decompress(blob)
		if (perr == nil) != (serr == nil) {
			t.Fatalf("f32 serial/parallel disagree on validity: serial=%v parallel=%v", serr, perr)
		}
		if perr == nil {
			if len(par) != len(ser) {
				t.Fatalf("f32 length mismatch: serial %d, parallel %d", len(ser), len(par))
			}
			for i := range ser {
				if math.Float32bits(ser[i]) != math.Float32bits(par[i]) {
					t.Fatalf("f32 value %d differs between serial and parallel", i)
				}
			}
		}
		par64, perr := DecompressFloat64Parallel(blob, workers)
		ser64, serr := DecompressFloat64(blob)
		if (perr == nil) != (serr == nil) {
			t.Fatalf("f64 serial/parallel disagree on validity: serial=%v parallel=%v", serr, perr)
		}
		if perr == nil {
			if len(par64) != len(ser64) {
				t.Fatalf("f64 length mismatch: serial %d, parallel %d", len(ser64), len(par64))
			}
			for i := range ser64 {
				if math.Float64bits(ser64[i]) != math.Float64bits(par64[i]) {
					t.Fatalf("f64 value %d differs between serial and parallel", i)
				}
			}
		}
	})
}

// FuzzTargetRatio drives the fixed-ratio bound search over arbitrary
// inputs: the raw fuzz bytes become float32 values (NaNs, infinities, and
// constant runs included) and the target ratio is fuzzed across [1, 65).
// Whatever the input, the search must stay within its probe budget, the
// resolved bound must be positive, the stream must record that bound, and
// every finite value must decompress back within it.
func FuzzTargetRatio(f *testing.F) {
	smooth := make([]byte, 4*600)
	for i := 0; i < 600; i++ {
		binary.LittleEndian.PutUint32(smooth[4*i:], math.Float32bits(float32(math.Sin(float64(i)*0.05))))
	}
	f.Add(smooth, uint8(8))
	f.Add(smooth[:4*5], uint8(4))                   // shorter than one block
	f.Add([]byte{}, uint8(2))                       // empty
	f.Add(bytes.Repeat(smooth[:4], 300), uint8(16)) // constant field
	f.Fuzz(func(t *testing.T, raw []byte, tsel uint8) {
		target := 1 + float64(tsel%64)
		vals := make([]float32, len(raw)/4)
		for i := range vals {
			vals[i] = math.Float32frombits(binary.LittleEndian.Uint32(raw[4*i:]))
		}
		opt := Options{TargetRatio: target}

		p, err := ResolvePlan(vals, opt)
		if err != nil {
			// Only inputs with no usable value range may fail resolution.
			if !errors.Is(err, ErrDegenerateRange) {
				t.Fatalf("unexpected resolve error: %v", err)
			}
			return
		}
		if p.Probes > 8 {
			t.Fatalf("%d probes > budget 8", p.Probes)
		}
		if !(p.Bound > 0) {
			t.Fatalf("resolved bound %v not positive", p.Bound)
		}

		comp, st, cerr := CompressStats(vals, opt)
		if cerr != nil {
			t.Fatalf("compress after successful resolve: %v", cerr)
		}
		if !(st.EffectiveBound > 0) {
			t.Fatalf("stats carry no effective bound")
		}
		h, herr := Info(comp)
		if herr != nil {
			t.Fatalf("info on own stream: %v", herr)
		}
		if h.ErrBound != st.EffectiveBound {
			t.Fatalf("header bound %g != stats bound %g", h.ErrBound, st.EffectiveBound)
		}
		got, derr := Decompress(comp)
		if derr != nil {
			t.Fatalf("decompress own stream: %v", derr)
		}
		if len(got) != len(vals) {
			t.Fatalf("roundtrip length %d want %d", len(got), len(vals))
		}
		for i, want := range vals {
			w64, g64 := float64(want), float64(got[i])
			if math.IsNaN(w64) || math.IsInf(w64, 0) {
				continue // non-finite values have no meaningful bound
			}
			if math.Abs(g64-w64) > st.EffectiveBound*(1+1e-9) {
				t.Fatalf("value %d breaks converged bound %g: %v vs %v",
					i, st.EffectiveBound, got[i], want)
			}
		}
	})
}
