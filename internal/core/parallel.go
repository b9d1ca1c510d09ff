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

// Participants is the one place a worker request becomes a participant
// count: both engines call it, and so do the root batch entry points. A call
// over items independent work units and workBytes bytes runs on workers
// participants (0 = GOMAXPROCS), capped at items, or on the calling
// goroutine alone (1) when that cap leaves fewer than two, when workBytes is
// below ParallelMinBytes (scheduling would cost more than the work), or when
// the process has one P (no second core ever overlaps the fan-out, so its
// handoffs and the engine's scratch-then-gather copy are pure overhead).
// ParallelMinBytes == 0 disables the byte floor and the one-P rule.
func Participants(workers, items, workBytes int) int {
	w := min(Workers(workers), items)
	if w < 2 || ParallelMinBytes > 0 && (workBytes < ParallelMinBytes || runtime.GOMAXPROCS(0) == 1) {
		return 1
	}
	return w
}

// Workers resolves a worker-count request: 0 means GOMAXPROCS.
func Workers(n int) int {
	if n <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return n
}

// --- the fan-out -------------------------------------------------------------

// workerPool is a fixed set of goroutines, started once and reused by every
// fan-out in the process, so steady-state calls pay a channel handoff per
// participant instead of a goroutine spawn. A participant is a
// work-stealing loop that exits when the shared cursor runs out, so running
// them on fewer goroutines than submitted is always safe — it only reduces
// concurrency.
type workerPool struct {
	once  sync.Once
	tasks chan participant
}

// participant is one fan-out loop handed to the pool: fan f's loop as
// participant id.
type participant struct {
	f  *fan
	id int
}

var encPool workerPool

func (p *workerPool) start() {
	n := max(runtime.GOMAXPROCS(0), 1)
	p.tasks = make(chan participant, 4*n)
	for i := 0; i < n; i++ {
		go func() {
			for t := range p.tasks {
				t.f.run(t.id)
			}
		}()
	}
}

// submit schedules participant id of f on the pool. If the pool's queue is
// full (callers asked for far more participants than the machine has
// cores), the participant runs on a fresh goroutine rather than blocking
// the caller.
func (p *workerPool) submit(f *fan, id int) {
	p.once.Do(p.start)
	select {
	case p.tasks <- participant{f, id}:
	default:
		go f.run(id)
	}
}

// fan is the shared state of one fanOut call, pooled so that a fan-out
// allocates nothing of its own.
type fan struct {
	fn     func(id, item int)
	items  int
	stage  string
	count  bool // record claims per participant
	rec    bool // telemetry enabled for this call
	cursor atomic.Int64
	wg     sync.WaitGroup
}

var fanPool = sync.Pool{New: func() any { return new(fan) }}

// fanOut is the only parallel loop in the codec: the engines' encode,
// gather and decode phases and BatchRun all run through it. It calls
// fn(id, item) once for every item in [0, items) and returns when all have
// completed. participants (at least 2) work-stealing loops claim items off
// one atomic cursor, so a run of slow items slows only the loop that hits
// it; the calling goroutine is participant 0 and the persistent pool runs
// the rest. With count set and telemetry enabled, the call adds its
// participants and each loop's claims to the engine's counters. Under
// telemetry, profile samples carry the label szx_stage=stage.
func fanOut(stage string, items, participants int, count bool, fn func(id, item int)) {
	f := fanPool.Get().(*fan)
	f.fn, f.items, f.stage, f.count, f.rec = fn, items, stage, count, telemetry.Enabled()
	f.cursor.Store(0)
	if f.rec && count {
		telemetry.ParallelParticipants.Add(int64(participants))
	}
	f.wg.Add(participants)
	for id := 1; id < participants; id++ {
		encPool.submit(f, id)
	}
	f.run(0)
	f.wg.Wait()
	f.fn = nil
	fanPool.Put(f)
}

// run is participant id's loop. Its wg.Done is its last touch of f, which
// is what lets fanOut recycle f as soon as Wait returns.
func (f *fan) run(id int) {
	claimed := 0
	runStage(f.rec, f.stage, func() {
		for {
			i := int(f.cursor.Add(1) - 1)
			if i >= f.items {
				return
			}
			claimed++
			f.fn(id, i)
		}
	})
	if f.rec && f.count {
		flushWorkerChunks(id, claimed)
	}
	f.wg.Done()
}

// --- pooled scratch --------------------------------------------------------

// shardScratch is one participant's private compression output, pooled
// across calls so that steady-state parallel compression reuses warm buffers
// instead of allocating per call. payload/sizes/bitmap are appended to as
// the participant claims chunks; chunkMeta records where each chunk landed.
// scr and tally are the participant's kernel scratch and block tally for
// the encode phase.
type shardScratch struct {
	payload []byte
	sizes   []uint16
	bitmap  []bool
	scr     *kernels.Scratch
	tally   telemetry.BlockTally
}

var shardPool = sync.Pool{New: func() any { return new(shardScratch) }}

func getShardScratch(nblocks, payloadHint int) *shardScratch {
	o := shardPool.Get().(*shardScratch)
	o.payload = slices.Grow(o.payload[:0], payloadHint)
	o.sizes = slices.Grow(o.sizes[:0], nblocks)
	o.bitmap = slices.Grow(o.bitmap[:0], nblocks)
	o.scr = kernels.GetScratch()
	o.tally = telemetry.BlockTally{}
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

// parJob holds the per-call bookkeeping of the engines, pooled so the
// parallel paths allocate only their per-item closures per call. stats and
// ranges are the compressor's stats phase: one entry per block and one
// slot per participant, used only when the bound depends on the range.
type parJob struct {
	metas  []chunkMeta
	outs   []*shardScratch
	errs   []error
	stats  []blockStat
	ranges []valueRange
}

// blockStat is one block's blockStats, taken by the stats phase for the
// encode phase. μ is kept as its bit pattern, widened to 64 bits, so one
// table type serves both element widths and μ's bits survive exactly.
type blockStat struct {
	mu     uint64
	radius float64
	noNaN  bool
}

// valueRange is a running [mn, mx] over non-NaN values; ok is false until
// it holds one.
type valueRange struct {
	mn, mx float64
	ok     bool
}

// add widens r to cover [mn, mx].
func (r *valueRange) add(mn, mx float64) {
	if !r.ok {
		*r = valueRange{mn, mx, true}
		return
	}
	if mn < r.mn {
		r.mn = mn
	}
	if mx > r.mx {
		r.mx = mx
	}
}

// merge widens r to cover o.
func (r *valueRange) merge(o valueRange) {
	if o.ok {
		r.add(o.mn, o.mx)
	}
}

// bounds returns r's ends, both NaN when r holds no value (the same pair
// ValueRange returns for data with no non-NaN value).
func (r valueRange) bounds() (mn, mx float64) {
	if !r.ok {
		return math.NaN(), math.NaN()
	}
	return r.mn, r.mx
}

var parJobPool = sync.Pool{New: func() any { return new(parJob) }}

func getParJob(nchunks, participants int) *parJob {
	j := parJobPool.Get().(*parJob)
	j.metas = slices.Grow(j.metas[:0], nchunks)[:nchunks]
	j.outs = slices.Grow(j.outs[:0], participants)[:participants]
	j.errs = slices.Grow(j.errs[:0], participants)[:participants]
	clear(j.errs)
	return j
}

func putParJob(j *parJob) {
	clear(j.outs)
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

// RangeBound resolves a compression's absolute error bound from the range
// [mn, mx] of the data's non-NaN values, both NaN when the data holds none
// (the pair ValueRange returns). An error aborts the compression.
type RangeBound func(mn, mx float64) (float64, error)

// rangeBoundOf resolves rb from a serial ValueRange scan of data.
func rangeBoundOf[T Float](data []T, rb RangeBound) (float64, error) {
	mn, mx := ValueRange(data)
	return rb(float64(mn), float64(mx))
}

// appendCompressedParallel is appendCompressed with block-parallel encoding,
// the analogue of the paper's OpenMP compressor (§6.1): blocks are
// independent, so workers compress them into private buffers and the results
// are stitched in block order (the scheduling therefore never affects the
// output bytes).
//
// The bound is errBound, or, when rb is set, rb of data's value range (a
// value-range-relative bound); its errors come before the block size's.
//
// The engine is adaptive and has up to three phases. When Participants
// says one, the input is encoded serially on the caller (after a serial
// ValueRange scan when rb is set). Otherwise the block range is cut into
// chunks (a multiple of 8 blocks) that fanOut's participants claim off its
// cursor. With rb set, a stats phase runs first: it takes every block's
// blockStats into a table and reduces the blocks' ranges, and rb resolves
// the bound from that reduction, so the data is scanned once rather than
// twice. Then the encode phase: each participant encodes the chunks it
// claims into a private scratch, taking each block's stats from the table
// when there is one. After that barrier the chunk offsets are prefix-summed
// and a gather fan-out copies each chunk's payload into the final buffer at
// its exact offset and fills its bitmap and zsize entries, so the
// concatenation is parallel disjoint copies rather than one serial memcpy.
func appendCompressedParallel[T Float, B Word](dst []byte, data []T, errBound float64, rb RangeBound, opts Options, workers int) ([]byte, error) {
	bs, err := opts.blockSize()
	if err != nil {
		if rb != nil {
			if _, rerr := rangeBoundOf(data, rb); rerr != nil {
				return nil, rerr
			}
		}
		return nil, err
	}
	es := ieee.Width[T]()
	nb := (len(data) + bs - 1) / bs
	w := Workers(workers)
	chunk := chunkBlocks(nb, w)
	nchunks := (nb + chunk - 1) / chunk
	participants := Participants(w, nchunks, es*len(data))
	rec := telemetry.Enabled()
	var tm telemetry.Timer
	if rec && participants > 1 {
		tm = telemetry.Start()
	}
	var j *parJob
	if participants > 1 {
		j = getParJob(nchunks, participants)
	}
	if rb != nil {
		if participants == 1 {
			errBound, err = rangeBoundOf(data, rb)
		} else {
			errBound, err = rb(statsPhase[T, B](j, data, bs, chunk, participants))
		}
	}
	if err == nil && (!(errBound > 0) || math.IsInf(errBound, 0)) {
		err = ErrErrBound
	}
	if err != nil {
		if j != nil {
			putParJob(j)
		}
		return nil, err
	}
	if participants == 1 {
		if rec {
			telemetry.EngineCompressFallback.Inc()
		}
		out, _, err := appendCompressed[T, B](dst, data, errBound, opts)
		return out, err
	}
	if rec {
		telemetry.EngineCompressParallel.Inc()
	}
	h := Header{Type: dtypeOf[T](), BlockSize: bs, N: len(data), ErrBound: errBound}
	dstBase := len(dst)

	for id := range j.outs {
		j.outs[id] = getShardScratch(nb/participants+chunk, es*len(data)/(2*participants))
	}

	// Encode. Each participant appends the payload of the chunks it claims
	// to its private scratch.
	sink := opts.Spans
	var phase telemetry.Timer
	var phaseT0 time.Time
	if rec {
		phase = telemetry.Start()
	}
	if sink != nil {
		phaseT0 = time.Now()
	}
	var stats []blockStat
	if rb != nil {
		stats = j.stats
	}
	fanOut("encode", nchunks, participants, true, func(id, c int) {
		o := j.outs[id]
		enc := newBlockEncoder[T, B](errBound, !opts.Unguarded)
		if rec {
			enc.tally = &o.tally
		}
		m := &j.metas[c]
		m.scratch = id
		m.off = len(o.payload)
		m.sizesOff = len(o.sizes)
		for k := c * chunk; k < min((c+1)*chunk, nb); k++ {
			blk := data[k*bs : min((k+1)*bs, len(data))]
			var mu T
			var radius float64
			var noNaN bool
			if stats != nil {
				st := &stats[k]
				mu, radius, noNaN = ieee.FromBits[T](B(st.mu)), st.radius, st.noNaN
			} else {
				mu, radius, noNaN = blockStats(blk)
			}
			start := len(o.payload)
			var constant bool
			o.payload, constant = enc.encodeBlock(o.payload, blk, mu, radius, noNaN, o.scr)
			o.sizes = append(o.sizes, uint16(len(o.payload)-start))
			o.bitmap = append(o.bitmap, !constant)
		}
		m.size = len(o.payload) - m.off
	})
	for _, o := range j.outs {
		kernels.PutScratch(o.scr)
		o.scr = nil
		if rec {
			o.tally.Flush()
		}
	}
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

	// Gather. Each chunk's payload goes to its final offset, with
	// its zsize entries and bitmap bytes (disjoint per chunk: chunk is a
	// multiple of 8 blocks, so no two chunks share a bitmap byte). The
	// encode phase already counted this call's participants and claims.
	if rec {
		phase = telemetry.Start()
	}
	if sink != nil {
		phaseT0 = time.Now()
	}
	fanOut("gather", nchunks, participants, false, func(_, c int) {
		m := &j.metas[c]
		o := j.outs[m.scratch]
		copy(out[payloadOff+m.dstOff:], o.payload[m.off:m.off+m.size])
		lo := c * chunk
		for k := lo; k < min(lo+chunk, nb); k++ {
			i := m.sizesOff + (k - lo)
			binary.LittleEndian.PutUint16(out[zsizeOff+2*k:], o.sizes[i])
			if o.bitmap[i] {
				out[bitmapOff+(k>>3)] |= 1 << uint(k&7)
			}
		}
	})
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

// statsPhase is the compressor's first phase for a range-resolved bound.
// Over the encode's chunks and participants it runs the Stats kernel once
// on every block, writes the block's blockStats into j.stats for the
// encode phase, and returns the range of data's non-NaN values (both NaN
// when there is none). Each participant reduces a chunk's blocks in locals
// and merges them into its own slot once per chunk; the slots are reduced
// after the barrier. A block whose first value is NaN keeps the kernel's
// NaN result in the table, so its bytes do not change; for the range only,
// it is rescanned past its leading NaNs by ValueRange, and an all-NaN
// block drops out. Min and max do not depend on order, and a ±0 tie does
// not change max−min, so the range's difference is ValueRange's over the
// whole input.
func statsPhase[T Float, B Word](j *parJob, data []T, bs, chunk, participants int) (mn, mx float64) {
	nb := (len(data) + bs - 1) / bs
	j.stats = slices.Grow(j.stats[:0], nb)[:nb]
	j.ranges = slices.Grow(j.ranges[:0], participants)[:participants]
	clear(j.ranges)
	stats := j.stats
	fanOut("stats", (nb+chunk-1)/chunk, participants, false, func(id, c int) {
		var r valueRange
		for k := c * chunk; k < min((c+1)*chunk, nb); k++ {
			blk := data[k*bs : min((k+1)*bs, len(data))]
			bmn, bmx, noNaN := statsKernel(blk)
			mu, radius := blockMid(bmn, bmx)
			stats[k] = blockStat{mu: uint64(ieee.ToBits[B](mu)), radius: radius, noNaN: noNaN}
			if bmn != bmn {
				if bmn, bmx = ValueRange(blk); bmn != bmn {
					continue
				}
			}
			r.add(float64(bmn), float64(bmx))
		}
		j.ranges[id].merge(r)
	})
	var all valueRange
	for _, r := range j.ranges {
		all.merge(r)
	}
	return all.bounds()
}

// appendDecompressedParallel decompresses block-parallel: a prefix sum over
// the embedded zsize array gives every worker the byte offset of its blocks
// (the paper's prefix-sum step in Fig. 10). It decides and fans out like
// the compressor, keyed on output bytes; when Participants says one, the
// stream decodes serially on the caller.
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
	participants := Participants(w, nchunks, es*si.Hdr.N)
	rec := telemetry.Enabled()
	if participants == 1 {
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
	offs, err := blockOffsetsPooled(si)
	if err != nil {
		return nil, err
	}
	defer putOffs(&offs)
	base := len(dst)
	dst = slices.Grow(dst, si.Hdr.N)[:base+si.Hdr.N]
	out := dst[base:]
	bs := si.Hdr.BlockSize

	j := getParJob(0, participants)
	fanOut("decode", nchunks, participants, true, func(id, c int) {
		for k := c * chunk; k < min((c+1)*chunk, nb); k++ {
			blk := out[k*bs : min((k+1)*bs, len(out))]
			if err := decodeBlock[T, B](si.Payload[offs[k]:offs[k+1]], si.IsNonConstant(k), blk); err != nil {
				j.errs[id] = err
				return
			}
		}
	})
	for _, e := range j.errs {
		if e != nil {
			err = e
			break
		}
	}
	putParJob(j)
	if err != nil {
		return nil, err
	}
	if rec {
		recordDecodedBlocks(si)
		telemetry.RecordDecompress(len(comp), es*si.Hdr.N, tm.Elapsed())
	}
	return dst, nil
}

// --- exported wrappers (historical per-type API) ---------------------------

// CompressFloat32Parallel is CompressFloat32 with block-parallel encoding.
func CompressFloat32Parallel(data []float32, errBound float64, opts Options, workers int) ([]byte, error) {
	return appendCompressedParallel[float32, uint32](nil, data, errBound, nil, opts, workers)
}

// DecompressFloat32Parallel is DecompressFloat32 with block-parallel decoding.
func DecompressFloat32Parallel(comp []byte, workers int) ([]float32, error) {
	return appendDecompressedParallel[float32, uint32](nil, comp, workers)
}
