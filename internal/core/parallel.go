package core

import (
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

// --- pooled per-call state -------------------------------------------------

// parJob holds the per-call state of an engaged call, pooled so that a warm
// call allocates only the closures it hands to fanOut. metas has one entry
// per chunk; shards and errs have one per participant. stats and ranges are
// the compressor's stats phase: one entry per block and one slot per
// participant, used only when the bound depends on the range.
type parJob struct {
	metas  []chunkMeta
	shards []shardScratch
	errs   []error
	stats  []blockStat
	ranges []valueRange
}

// shardScratch is one participant's private compression output: the
// payloads of the chunks it claims, in claim order, and its kernel scratch,
// block tally and block counts for the encode phase. It lives in the pooled
// parJob, so a warm call reuses its payload buffer.
type shardScratch struct {
	payload []byte
	scr     *kernels.Scratch
	tally   telemetry.BlockTally
	blockCounts
}

// chunkMeta records one chunk's payload. The compressor's encode phase
// notes where the payload landed in its participant's scratch, and the
// gather copies it to dstOff. The decompressor notes only the chunk's
// first payload offset in the stream, in off.
type chunkMeta struct {
	scratch int // index of the participant scratch holding the bytes
	off     int // payload offset within that scratch, or within the stream
	size    int // chunk payload length in bytes
	dstOff  int // final offset within the output payload section
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
	j.shards = slices.Grow(j.shards[:0], participants)[:participants]
	j.errs = slices.Grow(j.errs[:0], participants)[:participants]
	clear(j.errs)
	return j
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

// split is the engine's one decision over a call's nb blocks and
// workBytes bytes of work: its chunk size in blocks, the chunk count, and
// the participants Participants grants workers over those chunks.
func split(nb, workers, workBytes int) (chunk, nchunks, participants int) {
	chunk = chunkBlocks(nb, Workers(workers))
	nchunks = (nb + chunk - 1) / chunk
	return chunk, nchunks, Participants(workers, nchunks, workBytes)
}

// RangeBound resolves a compression's absolute error bound from the range
// [mn, mx] of the data's non-NaN values, both NaN when the data holds none
// (the pair ValueRange returns). An error aborts the compression.
type RangeBound func(mn, mx float64) (float64, error)

// encodePhases runs the compressor's encode and gather phases on j's
// participants. dst holds the stream's header and zeroed index. Each
// participant appends the payloads of the chunks it claims to its scratch
// and writes their index entries into dst in place; then dst grows once to
// the exact size, and the gather copies each chunk's payload to its final
// offset. stats is the stats phase's table, or nil. It returns the stream
// and the blocks' counts.
func encodePhases[T Float, B Word](j *parJob, dst []byte, data []T, stats []blockStat, enc blockEncoder[T, B], chunk int, sink telemetry.SpanSink, rec bool) ([]byte, blockCounts) {
	nb := (len(data) + enc.bs - 1) / enc.bs
	nchunks, participants := len(j.metas), len(j.shards)
	for id := range j.shards {
		o := &j.shards[id]
		o.payload = slices.Grow(o.payload[:0], ieee.Width[T]()*len(data)/(2*participants))
		o.scr = kernels.GetScratch()
		o.tally = telemetry.BlockTally{}
		o.blockCounts = blockCounts{}
	}
	// The closure takes the index by value: capturing dst, which grows
	// below, would move it to the heap.
	ix := dst

	var phase telemetry.Timer
	var phaseT0 time.Time
	if rec {
		phase = telemetry.Start()
	}
	if sink != nil {
		phaseT0 = time.Now()
	}
	fanOut("encode", nchunks, participants, true, func(id, c int) {
		o := &j.shards[id]
		e := enc
		if rec {
			e.tally = &o.tally
		}
		m := &j.metas[c]
		m.scratch, m.off = id, len(o.payload)
		o.payload = e.encodeBlocks(o.payload, ix, data, c*chunk, min((c+1)*chunk, nb), stats, o.scr)
		m.size = len(o.payload) - m.off
		o.blockCounts.add(e.blockCounts)
	})
	var counts blockCounts
	for id := range j.shards {
		o := &j.shards[id]
		kernels.PutScratch(o.scr)
		o.scr = nil
		if rec {
			o.tally.Flush()
		}
		counts.add(o.blockCounts)
	}
	if rec {
		phase.Stop(&telemetry.EncodePhaseDurations)
	}
	if sink != nil {
		sink.RecordSpan("encode_phase", phaseT0, time.Now())
	}

	// Prefix-sum the chunk offsets, then gather. The encode phase already
	// counted this call's participants and claims.
	total := 0
	for c := range j.metas {
		j.metas[c].dstOff = total
		total += j.metas[c].size
	}
	payloadOff := len(dst)
	out := slices.Grow(dst, total)[:payloadOff+total]
	if rec {
		phase = telemetry.Start()
	}
	if sink != nil {
		phaseT0 = time.Now()
	}
	fanOut("gather", nchunks, participants, false, func(_, c int) {
		m := &j.metas[c]
		copy(out[payloadOff+m.dstOff:], j.shards[m.scratch].payload[m.off:m.off+m.size])
	})
	if rec {
		phase.Stop(&telemetry.GatherPhaseDurations)
	}
	if sink != nil {
		sink.RecordSpan("gather_phase", phaseT0, time.Now())
	}
	return out, counts
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

// --- exported wrappers (historical per-type API) ---------------------------

// CompressFloat32Parallel is CompressFloat32 with block-parallel encoding.
func CompressFloat32Parallel(data []float32, errBound float64, opts Options, workers int) ([]byte, error) {
	out, _, err := appendCompressed[float32, uint32](nil, data, errBound, nil, opts, workers)
	return out, err
}

// DecompressFloat32Parallel is DecompressFloat32 with block-parallel decoding.
func DecompressFloat32Parallel(comp []byte, workers int) ([]float32, error) {
	return appendDecompressed[float32, uint32](nil, comp, workers)
}
