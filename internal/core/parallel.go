package core

import (
	"encoding/binary"
	"math"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/ieee"
	"repro/internal/kernels"
	"repro/telemetry"
)

// ParallelMinBytes is the adaptive engine's serial-fallback threshold: inputs
// (for compression) or outputs (for decompression) smaller than this many
// bytes are always processed on the calling goroutine, because below it the
// fixed cost of scheduling workers exceeds the codec work itself. It is keyed
// on bytes rather than block count so the decision tracks actual work: a
// two-block stream is tiny, but so is a 256-block stream of one-value blocks.
//
// The default (64 KiB) was chosen empirically; it is exported as a tunable
// for benchmark harnesses and tests. Setting it to 0 disables the adaptive
// fallbacks entirely — every eligible call takes the work-stealing engine,
// even on inputs or machines where that is known to be slower (tests and
// fuzzers use this to force the engine on small inputs). It must only be
// changed while no compressions are in flight.
var ParallelMinBytes = 64 << 10

// serialFaster reports whether the adaptive policy predicts the calling
// goroutine will beat the work-stealing engine on work bytes: either the
// input is too small to amortize scheduling, or there is only one P, which
// makes the engine's two-phase scratch-then-gather copy pure overhead (no
// second core ever overlaps it). ParallelMinBytes == 0 disables the policy.
func serialFaster(workBytes int) bool {
	return ParallelMinBytes > 0 &&
		(workBytes < ParallelMinBytes || runtime.GOMAXPROCS(0) == 1)
}

// Workers resolves a worker-count request: 0 means GOMAXPROCS.
func Workers(n int) int {
	if n <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return n
}

// --- persistent worker pool ------------------------------------------------

// workerPool is a fixed set of goroutines, started once and reused by every
// parallel codec call in the process, so steady-state calls pay a channel
// handoff per participant instead of a goroutine spawn. Tasks submitted to
// the pool must be self-terminating (the codec submits work-stealing loops
// that exit when the shared cursor runs out), so running them on fewer
// goroutines than submitted is always safe — it only reduces concurrency.
type workerPool struct {
	once  sync.Once
	tasks chan func()
}

var encPool workerPool

func (p *workerPool) start() {
	n := runtime.GOMAXPROCS(0)
	if n < 1 {
		n = 1
	}
	p.tasks = make(chan func(), 4*n)
	for i := 0; i < n; i++ {
		go func() {
			for f := range p.tasks {
				f()
			}
		}()
	}
}

// submit schedules f on the pool. If the pool's queue is full (caller asked
// for far more participants than the machine has cores), f runs on a fresh
// goroutine rather than blocking the caller.
func (p *workerPool) submit(f func()) {
	p.once.Do(p.start)
	select {
	case p.tasks <- f:
	default:
		go f()
	}
}

// --- pooled scratch --------------------------------------------------------

// shardScratch is one participant's private compression output, pooled
// across calls so that steady-state parallel compression reuses warm buffers
// instead of allocating per call. payload/sizes/bitmap are appended to as
// the participant claims chunks; chunkMeta records where each chunk landed.
type shardScratch struct {
	payload []byte
	sizes   []uint16
	bitmap  []bool
}

var shardPool = sync.Pool{New: func() any { return new(shardScratch) }}

func getShardScratch(nblocks, payloadHint int) *shardScratch {
	o := shardPool.Get().(*shardScratch)
	o.payload = slices.Grow(o.payload[:0], payloadHint)
	o.sizes = slices.Grow(o.sizes[:0], nblocks)
	o.bitmap = slices.Grow(o.bitmap[:0], nblocks)
	return o
}

// chunkMeta records where one chunk's encoded output lives before the
// parallel gather copies it to its final offset.
type chunkMeta struct {
	scratch  int // index of the participant scratch holding the bytes
	off      int // chunk payload offset within that scratch's payload
	size     int // chunk payload length in bytes
	sizesOff int // index of the chunk's first block in sizes/bitmap
	dstOff   int // final offset within the output payload section
}

// parJob holds the per-call bookkeeping of the work-stealing engine, pooled
// so the parallel paths allocate only the participant closures per call.
type parJob struct {
	metas  []chunkMeta
	outs   []*shardScratch
	errs   []error
	encode atomic.Int64 // phase-1 chunk cursor
	gather atomic.Int64 // phase-2 chunk cursor
	wg     sync.WaitGroup
}

var parJobPool = sync.Pool{New: func() any { return new(parJob) }}

func getParJob(nchunks, participants int) *parJob {
	j := parJobPool.Get().(*parJob)
	j.metas = slices.Grow(j.metas[:0], nchunks)[:nchunks]
	j.outs = slices.Grow(j.outs[:0], participants)[:participants]
	j.errs = slices.Grow(j.errs[:0], participants)[:participants]
	for i := range j.errs {
		j.errs[i] = nil
	}
	j.encode.Store(0)
	j.gather.Store(0)
	return j
}

func putParJob(j *parJob) {
	for i := range j.outs {
		j.outs[i] = nil
	}
	parJobPool.Put(j)
}

// chunkBlocks picks the work-stealing granularity: a multiple of 8 blocks
// (so a chunk's bitmap bytes are private to it and the gather phase writes
// the bitmap without atomics), at least 8 blocks per chunk to amortize the
// cursor increment, and aimed at ≥4 chunks per worker so guard-retry or
// constant-block skew rebalances instead of tail-latencying a static shard.
func chunkBlocks(nb, workers int) int {
	c := nb / (4 * workers)
	c &^= 7
	if c < 8 {
		c = 8
	}
	return c
}

// offsPool recycles the block-offset prefix-sum arrays used by the parallel
// and random-access decompressors.
var offsPool = sync.Pool{New: func() any { return new([]int) }}

// blockOffsetsPooled is Index.BlockOffsets backed by a pooled array; callers
// must return the slice via putOffs when done.
func blockOffsetsPooled(si Index) ([]int, error) {
	nb := si.Hdr.NumBlocks()
	p := offsPool.Get().(*[]int)
	offs := *p
	if cap(offs) < nb+1 {
		offs = make([]int, nb+1)
	} else {
		offs = offs[:nb+1]
	}
	*p = offs
	sum := 0
	for k := 0; k < nb; k++ {
		offs[k] = sum
		sum += si.BlockSizeBytes(k)
	}
	offs[nb] = sum
	if sum > len(si.Payload) {
		putOffs(p)
		return nil, ErrCorrupt
	}
	return offs, nil
}

func putOffs(p *[]int) { offsPool.Put(p) }

// appendCompressedParallel is appendCompressed with block-parallel encoding,
// the analogue of the paper's OpenMP compressor (§6.1): blocks are
// independent, so workers compress them into private buffers and the results
// are stitched in block order (the scheduling therefore never affects the
// output bytes).
//
// The engine is adaptive and two-phase. Inputs below ParallelMinBytes are
// encoded serially on the caller. Above it, the block range is cut into
// chunks (a multiple of 8 blocks) claimed from an atomic cursor — dynamic
// work-stealing, so a run of guard-retried or constant blocks slows only the
// worker that hits it. After a barrier, the chunk offsets are prefix-summed
// and the same workers gather: each copies its claimed chunks' payload into
// the final buffer at its exact offset and fills that chunk's bitmap and
// zsize entries, replacing the old serial concatenation memcpy with parallel
// disjoint copies. Participants run on the persistent process-wide pool, not
// freshly spawned goroutines.
func appendCompressedParallel[T Float, B Word](dst []byte, data []T, errBound float64, opts Options, workers int) ([]byte, error) {
	bs, err := opts.blockSize()
	if err != nil {
		return nil, err
	}
	if !(errBound > 0) || math.IsInf(errBound, 0) {
		return nil, ErrErrBound
	}
	es := ieee.Width[T]()
	h := Header{Type: dtypeOf[T](), BlockSize: bs, N: len(data), ErrBound: errBound}
	nb := h.NumBlocks()
	w := Workers(workers)
	chunk := chunkBlocks(nb, w)
	nchunks := (nb + chunk - 1) / chunk
	rec := telemetry.Enabled()
	if w == 1 || nchunks < 2 || serialFaster(es*len(data)) {
		if rec {
			telemetry.EngineCompressFallback.Inc()
		}
		out, _, err := appendCompressed[T, B](dst, data, errBound, opts)
		return out, err
	}
	var tm telemetry.Timer
	if rec {
		tm = telemetry.Start()
		telemetry.EngineCompressParallel.Inc()
	}
	dstBase := len(dst)
	participants := w
	if participants > nchunks {
		participants = nchunks
	}
	if rec {
		telemetry.ParallelParticipants.Add(int64(participants))
	}

	j := getParJob(nchunks, participants)
	payloadHint := es * len(data) / (2 * participants)

	// Phase 1: encode. Each participant steals chunks off the cursor and
	// appends their payload to its private scratch.
	encodeWorker := func(id int) {
		enc := newBlockEncoder[T, B](errBound, !opts.Unguarded)
		scr := kernels.GetScratch()
		defer kernels.PutScratch(scr)
		var tally telemetry.BlockTally
		if rec {
			enc.tally = &tally
		}
		claimed := 0
		o := getShardScratch(nb/participants+chunk, payloadHint)
		j.outs[id] = o
		for {
			c := int(j.encode.Add(1) - 1)
			if c >= nchunks {
				break
			}
			claimed++
			lo, hi := c*chunk, (c+1)*chunk
			if hi > nb {
				hi = nb
			}
			m := &j.metas[c]
			m.scratch = id
			m.off = len(o.payload)
			m.sizesOff = len(o.sizes)
			for k := lo; k < hi; k++ {
				blo, bhi := k*bs, (k+1)*bs
				if bhi > len(data) {
					bhi = len(data)
				}
				start := len(o.payload)
				var constant bool
				o.payload, constant = enc.encodeBlock(o.payload, data[blo:bhi], scr)
				o.sizes = append(o.sizes, uint16(len(o.payload)-start))
				o.bitmap = append(o.bitmap, !constant)
			}
			m.size = len(o.payload) - m.off
		}
		if rec {
			tally.Flush()
			flushWorkerChunks(id, claimed)
		}
		j.wg.Done()
	}
	sink := opts.Spans
	var phase telemetry.Timer
	var phaseT0 time.Time
	if rec {
		phase = telemetry.Start()
	}
	if sink != nil {
		phaseT0 = time.Now()
	}
	j.wg.Add(participants)
	for id := 1; id < participants; id++ {
		id := id
		encPool.submit(func() { runStage(rec, "encode", func() { encodeWorker(id) }) })
	}
	runStage(rec, "encode", func() { encodeWorker(0) })
	j.wg.Wait()
	if rec {
		phase.Stop(&telemetry.EncodePhaseDurations)
	}
	if sink != nil {
		sink.RecordSpan("encode_phase", phaseT0, time.Now())
	}

	// Prefix-sum the chunk offsets and lay out the container.
	total := 0
	for c := range j.metas {
		j.metas[c].dstOff = total
		total += j.metas[c].size
	}
	dst = slices.Grow(dst, headerSize+(nb+7)/8+2*nb+total)
	out := AppendHeader(dst, h)
	bitmapOff := len(out)
	out = appendZeros(out, (nb+7)/8)
	zsizeOff := len(out)
	out = appendZeros(out, 2*nb)
	payloadOff := len(out)
	out = out[:payloadOff+total]

	// Phase 2: gather. The same participants steal chunks again and copy
	// each chunk's payload to its final offset, filling its zsize entries
	// and bitmap bytes (disjoint per chunk: chunk is a multiple of 8
	// blocks, so no two chunks share a bitmap byte).
	gatherWorker := func(id int) {
		for {
			c := int(j.gather.Add(1) - 1)
			if c >= nchunks {
				break
			}
			m := &j.metas[c]
			o := j.outs[m.scratch]
			copy(out[payloadOff+m.dstOff:], o.payload[m.off:m.off+m.size])
			lo, hi := c*chunk, (c+1)*chunk
			if hi > nb {
				hi = nb
			}
			for k := lo; k < hi; k++ {
				i := m.sizesOff + (k - lo)
				binary.LittleEndian.PutUint16(out[zsizeOff+2*k:], o.sizes[i])
				if o.bitmap[i] {
					out[bitmapOff+(k>>3)] |= 1 << uint(k&7)
				}
			}
		}
		j.wg.Done()
	}
	if rec {
		phase = telemetry.Start()
	}
	if sink != nil {
		phaseT0 = time.Now()
	}
	j.wg.Add(participants)
	for id := 1; id < participants; id++ {
		id := id
		encPool.submit(func() { runStage(rec, "gather", func() { gatherWorker(id) }) })
	}
	runStage(rec, "gather", func() { gatherWorker(0) })
	j.wg.Wait()
	if rec {
		phase.Stop(&telemetry.GatherPhaseDurations)
	}
	if sink != nil {
		sink.RecordSpan("gather_phase", phaseT0, time.Now())
	}

	for _, o := range j.outs {
		shardPool.Put(o)
	}
	putParJob(j)
	if rec {
		telemetry.RecordCompress(es*len(data), len(out)-dstBase, tm.Elapsed())
	}
	return out, nil
}

// appendDecompressedParallel decompresses block-parallel: a prefix sum over
// the embedded zsize array gives every worker the byte offset of its blocks
// (the paper's prefix-sum step in Fig. 10). Work distribution uses the same
// adaptive chunked work-stealing as the compressor, on the same persistent
// pool; outputs below ParallelMinBytes decode serially.
func appendDecompressedParallel[T Float, B Word](dst []T, comp []byte, workers int) ([]T, error) {
	si, err := ParseStream(comp)
	if err != nil {
		return nil, err
	}
	if si.Hdr.Type != dtypeOf[T]() {
		return nil, ErrWrongType
	}
	nb := si.Hdr.NumBlocks()
	es := ieee.Width[T]()
	w := Workers(workers)
	chunk := chunkBlocks(nb, w)
	nchunks := (nb + chunk - 1) / chunk
	rec := telemetry.Enabled()
	if w == 1 || nchunks < 2 || serialFaster(es*si.Hdr.N) {
		if rec {
			telemetry.EngineDecompressFallback.Inc()
		}
		return appendDecompressed[T, B](dst, comp)
	}
	var tm telemetry.Timer
	if rec {
		tm = telemetry.Start()
		telemetry.EngineDecompressParallel.Inc()
	}
	participants := w
	if participants > nchunks {
		participants = nchunks
	}
	if rec {
		telemetry.ParallelParticipants.Add(int64(participants))
	}
	offs, err := blockOffsetsPooled(si)
	if err != nil {
		return nil, err
	}
	defer putOffs(&offs)
	base := len(dst)
	dst = slices.Grow(dst, si.Hdr.N)[:base+si.Hdr.N]
	out := dst[base:]
	bs := si.Hdr.BlockSize

	j := getParJob(nchunks, participants)
	decodeWorker := func(id int) {
		claimed := 0
		for {
			c := int(j.encode.Add(1) - 1)
			if c >= nchunks {
				break
			}
			claimed++
			lo, hi := c*chunk, (c+1)*chunk
			if hi > nb {
				hi = nb
			}
			for k := lo; k < hi; k++ {
				blo, bhi := k*bs, (k+1)*bs
				if bhi > len(out) {
					bhi = len(out)
				}
				if err := decodeBlock[T, B](si.Payload[offs[k]:offs[k+1]], si.IsNonConstant(k), out[blo:bhi]); err != nil {
					j.errs[id] = err
					break
				}
			}
		}
		if rec {
			flushWorkerChunks(id, claimed)
		}
		j.wg.Done()
	}
	j.wg.Add(participants)
	for id := 1; id < participants; id++ {
		id := id
		encPool.submit(func() { runStage(rec, "decode", func() { decodeWorker(id) }) })
	}
	runStage(rec, "decode", func() { decodeWorker(0) })
	j.wg.Wait()
	for _, e := range j.errs {
		if e != nil {
			putParJob(j)
			return nil, e
		}
	}
	putParJob(j)
	if rec {
		recordDecodedBlocks(si)
		telemetry.RecordDecompress(len(comp), es*si.Hdr.N, tm.Elapsed())
	}
	return dst, nil
}

// --- exported wrappers (historical per-type API) ---------------------------

// CompressFloat32Parallel is CompressFloat32 with block-parallel encoding.
func CompressFloat32Parallel(data []float32, errBound float64, opts Options, workers int) ([]byte, error) {
	return appendCompressedParallel[float32, uint32](nil, data, errBound, opts, workers)
}

// DecompressFloat32Parallel is DecompressFloat32 with block-parallel decoding.
func DecompressFloat32Parallel(comp []byte, workers int) ([]float32, error) {
	return appendDecompressedParallel[float32, uint32](nil, comp, workers)
}

// CompressFloat64Parallel is the float64 analogue of CompressFloat32Parallel.
func CompressFloat64Parallel(data []float64, errBound float64, opts Options, workers int) ([]byte, error) {
	return appendCompressedParallel[float64, uint64](nil, data, errBound, opts, workers)
}

// DecompressFloat64Parallel is the float64 analogue of
// DecompressFloat32Parallel.
func DecompressFloat64Parallel(comp []byte, workers int) ([]float64, error) {
	return appendDecompressedParallel[float64, uint64](nil, comp, workers)
}
