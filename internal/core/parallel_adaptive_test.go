package core

import (
	"bytes"
	"fmt"
	"runtime"
	"sync"
	"testing"

	"repro/telemetry"
)

// TestParallelThresholdByteIdentity pins the adaptive engine's contract at
// the serial-fallback boundary: for input sizes straddling ParallelMinBytes
// (so some sizes take the serial fallback and some engage the work-stealing
// engine), the parallel entry points must produce exactly the serial bytes
// at every worker count.
func TestParallelThresholdByteIdentity(t *testing.T) {
	// ParallelMinBytes is 64 KiB: 16384 float32 values or 8192 float64
	// values sit exactly on it. Straddle it from well below to well above,
	// including off-by-one on both sides of the exact boundary.
	sizes32 := []int{16383, 16384, 16385, 8191, 32768, 16384 - 128, 16384 + 128}
	sizes64 := []int{8191, 8192, 8193, 4095, 16384}
	workerCounts := []int{2, 3, 4, runtime.GOMAXPROCS(0)}

	// Each size runs under the default adaptive policy (which may pick the
	// serial fallback, depending on size and core count) and with the policy
	// disabled (ParallelMinBytes = 0 forces the engine even on one core), so
	// the engine itself is exercised at these sizes on every host.
	for _, forced := range []bool{false, true} {
		if forced {
			old := ParallelMinBytes
			ParallelMinBytes = 0
			defer func() { ParallelMinBytes = old }()
		}
		for _, n := range sizes32 {
			data := goldenData32(n, int64(n))
			want, err := CompressInto[float32](nil, data, 1e-3, Options{})
			if err != nil {
				t.Fatal(err)
			}
			for _, w := range workerCounts {
				got, err := CompressParallelInto[float32](nil, data, 1e-3, Options{}, w)
				if err != nil {
					t.Fatalf("f32 n=%d w=%d forced=%v: %v", n, w, forced, err)
				}
				if !bytes.Equal(got, want) {
					t.Errorf("f32 n=%d w=%d forced=%v: parallel stream differs from serial", n, w, forced)
				}
				dec, err := DecompressParallelInto[float32](nil, want, w)
				if err != nil {
					t.Fatalf("f32 n=%d w=%d forced=%v decompress: %v", n, w, forced, err)
				}
				ser, err := DecompressInto[float32](nil, want)
				if err != nil {
					t.Fatal(err)
				}
				if valuesHash(dec) != valuesHash(ser) {
					t.Errorf("f32 n=%d w=%d forced=%v: parallel decode differs from serial", n, w, forced)
				}
			}
		}
		for _, n := range sizes64 {
			data := goldenData64(n, int64(n))
			want, err := CompressInto[float64](nil, data, 1e-6, Options{})
			if err != nil {
				t.Fatal(err)
			}
			for _, w := range workerCounts {
				got, err := CompressParallelInto[float64](nil, data, 1e-6, Options{}, w)
				if err != nil {
					t.Fatalf("f64 n=%d w=%d forced=%v: %v", n, w, forced, err)
				}
				if !bytes.Equal(got, want) {
					t.Errorf("f64 n=%d w=%d forced=%v: parallel stream differs from serial", n, w, forced)
				}
			}
		}
	}
}

// TestParallelEngineForcedSmall forces the work-stealing engine onto inputs
// that would normally take the serial fallback, so chunk scheduling, the
// gather phase, and the bitmap/zsize stitching are exercised on ragged
// shapes (tail blocks, single-value blocks, constant runs) regardless of
// the host's core count.
func TestParallelEngineForcedSmall(t *testing.T) {
	old := ParallelMinBytes
	ParallelMinBytes = 0
	defer func() { ParallelMinBytes = old }()

	cases := []struct {
		n  int
		bs int
		e  float64
	}{
		{129, 128, 1e-3},
		{12345, 128, 1e-4},
		{12345, 64, 1e-3},
		{1000, 1, 1e-3},   // single-value blocks, many chunks
		{4097, 100, 1e-2}, // constant-heavy at loose bounds
		{257, 8, 1e-5},
	}
	for _, c := range cases {
		data := goldenData32(c.n, int64(c.n))
		want, err := CompressInto[float32](nil, data, c.e, Options{BlockSize: c.bs})
		if err != nil {
			t.Fatal(err)
		}
		for _, w := range []int{2, 3, 5, 16} {
			got, err := CompressParallelInto[float32](nil, data, c.e, Options{BlockSize: c.bs}, w)
			if err != nil {
				t.Fatalf("n=%d bs=%d w=%d: %v", c.n, c.bs, w, err)
			}
			if !bytes.Equal(got, want) {
				t.Errorf("n=%d bs=%d w=%d: forced parallel stream differs from serial", c.n, c.bs, w)
			}
			dec, err := DecompressParallelInto[float32](nil, want, w)
			if err != nil {
				t.Fatalf("n=%d bs=%d w=%d decompress: %v", c.n, c.bs, w, err)
			}
			ser, _ := DecompressInto[float32](nil, want)
			if valuesHash(dec) != valuesHash(ser) {
				t.Errorf("n=%d bs=%d w=%d: forced parallel decode differs", c.n, c.bs, w)
			}
		}
	}
}

// TestChunkBlocksInvariants pins the stealing granularity's contract: always
// a positive multiple of 8 (bitmap-byte privacy in the gather phase).
func TestChunkBlocksInvariants(t *testing.T) {
	for _, nb := range []int{1, 2, 7, 8, 9, 97, 128, 1000, 16384, 1 << 20} {
		for _, w := range []int{1, 2, 3, 4, 8, 64} {
			c := chunkBlocks(nb, w)
			if c < 8 || c%8 != 0 {
				t.Fatalf("chunkBlocks(%d,%d) = %d; want positive multiple of 8", nb, w, c)
			}
		}
	}
}

// TestParallelCorruptStream checks the work-stealing decompressor still
// fails cleanly (no panic, error reported from whichever worker hits it)
// when the payload is truncated mid-stream.
func TestParallelCorruptStream(t *testing.T) {
	old := ParallelMinBytes
	ParallelMinBytes = 0
	defer func() { ParallelMinBytes = old }()

	data := goldenData32(12345, 5)
	comp, err := CompressInto[float32](nil, data, 1e-4, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, cut := range []int{1, 7, len(comp) / 2} {
		trunc := comp[:len(comp)-cut]
		for _, w := range []int{2, 4} {
			if _, err := DecompressParallelInto[float32](nil, trunc, w); err == nil {
				t.Errorf("cut=%d w=%d: truncated stream decoded without error", cut, w)
			}
		}
	}

	// Consistent zsize but corrupt block content: the prefix sum passes, so
	// the error must be detected and reported by a stealing worker.
	si, err := ParseStream(comp)
	if err != nil {
		t.Fatal(err)
	}
	for k := 0; k < si.Hdr.NumBlocks(); k++ {
		if si.IsNonConstant(k) {
			offs, err := si.BlockOffsets()
			if err != nil {
				t.Fatal(err)
			}
			bad := append([]byte(nil), comp...)
			pstart := len(comp) - len(si.Payload)
			bad[pstart+offs[k]+4] = 0xFF // reqLen byte: out of range
			for _, w := range []int{2, 4} {
				if _, err := DecompressParallelInto[float32](nil, bad, w); err == nil {
					t.Errorf("w=%d: corrupt reqLen in block %d decoded without error", w, k)
				}
			}
			break
		}
	}
}

// TestTelemetryEngineCounters pins the engine-selection counter semantics:
// a parallel-entry call the adaptive policy routes to the serial kernel
// increments both the fallback counter (the routing decision) and the
// serial counter (the kernel that ran); a forced engine engagement
// increments only the parallel counter, and the work-stealing internals
// (chunks claimed, participants, active workers) add up to the chunk math.
func TestTelemetryEngineCounters(t *testing.T) {
	telemetry.Reset()
	telemetry.Enable()
	defer func() {
		telemetry.Disable()
		telemetry.Reset()
	}()

	// 4 KiB input: far below ParallelMinBytes, so the parallel entry must
	// take the serial fallback.
	small := goldenData32(1024, 1)
	comp, err := CompressParallelInto[float32](nil, small, 1e-3, Options{}, 4)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := DecompressParallelInto[float32](nil, comp, 4); err != nil {
		t.Fatal(err)
	}
	if f, s, p := telemetry.EngineCompressFallback.Load(), telemetry.EngineCompressSerial.Load(),
		telemetry.EngineCompressParallel.Load(); f != 1 || s != 1 || p != 0 {
		t.Errorf("small compress: fallback=%d serial=%d parallel=%d; want 1,1,0", f, s, p)
	}
	if f, s, p := telemetry.EngineDecompressFallback.Load(), telemetry.EngineDecompressSerial.Load(),
		telemetry.EngineDecompressParallel.Load(); f != 1 || s != 1 || p != 0 {
		t.Errorf("small decompress: fallback=%d serial=%d parallel=%d; want 1,1,0", f, s, p)
	}

	// Force the engine (policy disabled) on a multi-chunk input.
	old := ParallelMinBytes
	ParallelMinBytes = 0
	defer func() { ParallelMinBytes = old }()
	telemetry.Reset()

	const n, w = 12345, 4
	data := goldenData32(n, 7)
	nb := (n + DefaultBlockSize - 1) / DefaultBlockSize
	cb := chunkBlocks(nb, w)
	nchunks := (nb + cb - 1) / cb
	if nchunks < 2 {
		t.Fatalf("test input yields %d chunks; need >= 2 to engage the engine", nchunks)
	}
	comp, err = CompressParallelInto[float32](nil, data, 1e-3, Options{}, w)
	if err != nil {
		t.Fatal(err)
	}
	if p, f, s := telemetry.EngineCompressParallel.Load(), telemetry.EngineCompressFallback.Load(),
		telemetry.EngineCompressSerial.Load(); p != 1 || f != 0 || s != 0 {
		t.Errorf("forced compress: parallel=%d fallback=%d serial=%d; want 1,0,0", p, f, s)
	}
	if got := telemetry.ParallelChunksOwned.Load() + telemetry.ParallelChunksStolen.Load(); got != int64(nchunks) {
		t.Errorf("compress chunks owned+stolen = %d; want %d", got, nchunks)
	}
	if part, active := telemetry.ParallelParticipants.Load(),
		telemetry.ParallelActiveWorkers.Load(); part < 1 || active < 1 || active > part {
		t.Errorf("participants=%d active=%d; want 1 <= active <= participants", part, active)
	}
	if got := telemetry.BlocksConstant.Load() + telemetry.BlocksNonConstant.Load(); got != int64(nb) {
		t.Errorf("blocks tallied = %d; want %d", got, nb)
	}

	if _, err := DecompressParallelInto[float32](nil, comp, w); err != nil {
		t.Fatal(err)
	}
	if p, f, s := telemetry.EngineDecompressParallel.Load(), telemetry.EngineDecompressFallback.Load(),
		telemetry.EngineDecompressSerial.Load(); p != 1 || f != 0 || s != 0 {
		t.Errorf("forced decompress: parallel=%d fallback=%d serial=%d; want 1,0,0", p, f, s)
	}
	// Compress claims chunks once (encode phase); decompress claims the same
	// chunk count once more.
	if got := telemetry.ParallelChunksOwned.Load() + telemetry.ParallelChunksStolen.Load(); got != int64(2*nchunks) {
		t.Errorf("chunks owned+stolen after decompress = %d; want %d", got, 2*nchunks)
	}
	if got := telemetry.DecodedBlocksConstant.Load() + telemetry.DecodedBlocksNonConstant.Load(); got != int64(nb) {
		t.Errorf("blocks decoded = %d; want %d", got, nb)
	}
}

// TestTelemetryParallelRace hammers the forced work-stealing engine from
// several goroutines with telemetry enabled and checks the per-worker
// tallies still add up exactly — the counters must be race-free (this test
// runs under -race in CI) and must not double- or under-count when many
// engine invocations interleave on the shared atomics.
func TestTelemetryParallelRace(t *testing.T) {
	old := ParallelMinBytes
	ParallelMinBytes = 0
	defer func() { ParallelMinBytes = old }()

	const n, goroutines, iters = 20000, 4, 5
	data := goldenData32(n, 3)
	comp, err := CompressInto[float32](nil, data, 1e-3, Options{})
	if err != nil {
		t.Fatal(err)
	}
	nb := (n + DefaultBlockSize - 1) / DefaultBlockSize

	// Enable only after the setup compress so the totals below count exactly
	// the racing engine invocations.
	telemetry.Reset()
	telemetry.Enable()
	defer func() {
		telemetry.Disable()
		telemetry.Reset()
	}()

	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				if _, err := CompressParallelInto[float32](nil, data, 1e-3, Options{}, 2+g); err != nil {
					errs <- err
					return
				}
				if _, err := DecompressParallelInto[float32](nil, comp, 2+g); err != nil {
					errs <- err
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	calls := int64(goroutines * iters)
	if got := telemetry.BlocksConstant.Load() + telemetry.BlocksNonConstant.Load(); got != calls*int64(nb) {
		t.Errorf("blocks tallied = %d; want %d", got, calls*int64(nb))
	}
	if got := telemetry.DecodedBlocksConstant.Load() + telemetry.DecodedBlocksNonConstant.Load(); got != calls*int64(nb) {
		t.Errorf("blocks decoded = %d; want %d", got, calls*int64(nb))
	}
	if c, d := telemetry.EngineCompressParallel.Load(),
		telemetry.EngineDecompressParallel.Load(); c != calls || d != calls {
		t.Errorf("engine engagements compress=%d decompress=%d; want %d each", c, d, calls)
	}
	if got := telemetry.CompressBytesIn.Load(); got != calls*4*n {
		t.Errorf("compress bytes in = %d; want %d", got, calls*4*n)
	}
}

func init() {
	// Guard against accidentally committing a test-tuned threshold.
	if ParallelMinBytes != 64<<10 {
		panic(fmt.Sprintf("unexpected ParallelMinBytes default: %d", ParallelMinBytes))
	}
}
