package szx

import (
	"context"
	"errors"
	"io"
	"runtime"
	"sync"
	"time"

	"repro/internal/core"
	"repro/telemetry"
	"repro/telemetry/trace"
)

// Streaming engine: the one implementation of the SZXS container. Writing
// runs three stages per chunk — submit (chunking, and the fixed-ratio seed
// on chunk 0), encode (compress the chunk into a staged frame), emit (one
// Write of the frame) — and reading three per frame — prefetch (read the
// next frame and pick where it decodes), decode, deliver (hand its values
// to Read in order). Each stage is written once; two schedules run them:
//
//   - inline (NewWriter, NewReader): one stage after another on the
//     caller's goroutine through a single slot, with no ring, channels, or
//     goroutines;
//   - pipelined (NewPipeWriter, NewPipeReader): a bounded ring of K slots
//     circulates between the producer, a pool of encode (decode) workers,
//     and a single in-order emitter (consumer), so compression overlaps the
//     sink's or source's I/O and, on multi-core hosts, chunks encode in
//     parallel.
//
// The constructor picks the schedule, not the parallelism: a pipeline with
// one worker still overlaps one chunk's I/O with the next chunk's encode,
// which is what a slow sink such as an HTTP response needs. Both schedules
// emit the same bytes and report the same errors (pinned by golden-hash and
// fuzz cross-check tests).
//
// Ordering invariant: slots enter the emit queue in submission order, and
// the emitter (or the reading consumer) waits on each slot's done signal
// before touching the next, so frames hit the wire — and values reach the
// caller — strictly in order no matter which worker finishes first.
//
// Ownership invariant: no goroutine reads a Write's values after the Write
// returns, and none writes a Read's p after the Read returns. Within the
// call both are lent to the workers, so the codec reads and writes caller
// memory in place: a Write carrying two or more full chunks hands all but
// its last full chunk to the encoders as they stand and waits for those
// encodes before it returns, and a Read opens a window over p into which
// every frame that wholly fits decodes straight to its place. Everything
// else passes through a slot's own buffers, which never alias caller
// memory.
//
// Backpressure invariant: the producer blocks when all K slots are in
// flight, so memory is bounded by K × chunk on both the value and the
// compressed side; slots circulate through a free list within a stream and
// through a package-level pool across streams, so once the pool is warm a
// stream allocates nothing.
//
// Error semantics: the first error (compression, decompression, I/O, or a
// malformed frame) wins; it is pinned and returned from every subsequent
// call. After an error the writer keeps draining internally and the reader
// stops its goroutines, so no goroutine leaks and no channel send
// deadlocks; Close joins every goroutine before returning.

// errStreamAborted is pinned as the terminal error by PipeWriter.Abort.
var errStreamAborted = errors.New("szx: stream aborted")

// pipeSlot carries one chunk through the stages: a ring entry on the
// pipelined schedule, the only slot on the inline one.
type pipeSlot struct {
	seq   int       // submission sequence (write side)
	idx   int       // frame index (read side)
	off   int64     // container offset of the frame's length prefix (read side)
	t0    time.Time // slot acquisition time, for pipe_frame trace spans
	buf   []float32 // the slot's own value buffer; never caller memory
	vals  []float32 // the chunk's values: buf, or caller memory when lent
	lent  bool      // vals is a Write's chunk or a Read window's room
	frame []byte    // staged frame bytes (output on write, input on read)
	err   error     // worker/prefetch failure for this slot
	done  chan struct{}
}

// drop ends s's hold on its chunk: a lent view of caller memory is
// forgotten and the slot's own buffer emptied, ready for the next chunk.
func (s *pipeSlot) drop() { s.vals, s.lent, s.buf = nil, false, s.buf[:0] }

// writeSlots and readSlots recycle slots, buffers included, across
// streams. Each side has its own pool so a slot keeps the buffer shapes
// its side needs: a writer's frame buffer is sized for a worst-case
// encode, a reader's for the frames it has read.
var (
	writeSlots = sync.Pool{New: func() any { return new(pipeSlot) }}
	readSlots  = sync.Pool{New: func() any { return new(pipeSlot) }}
)

// borrowSlots takes n slots from pool.
func borrowSlots(pool *sync.Pool, n int) []*pipeSlot {
	slots := make([]*pipeSlot, n)
	for i := range slots {
		slots[i] = pool.Get().(*pipeSlot)
	}
	return slots
}

// returnSlots gives slots back to pool. The caller guarantees that no
// goroutine touches them again; each is reset, so no later stream can
// reach the caller memory it was lent.
func returnSlots(pool *sync.Pool, slots []*pipeSlot) {
	for _, s := range slots {
		*s = pipeSlot{buf: s.buf[:0], frame: s.frame[:0]}
		pool.Put(s)
	}
}

// pipeErr pins the first error observed anywhere in a pipeline.
type pipeErr struct {
	mu  sync.Mutex
	err error
}

func (p *pipeErr) set(err error) {
	p.mu.Lock()
	if p.err == nil {
		p.err = err
	}
	p.mu.Unlock()
}

func (p *pipeErr) get() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.err
}

// pipelineDepth picks the ring size for a worker count: one slot per
// worker keeps the pool busy, and two extra keep the producer and emitter
// from starving the pool at hand-off points.
func pipelineDepth(workers int) int { return workers + 2 }

// PipeWriter compresses a stream of float32 values chunk by chunk into an
// SZXS container. Built by NewPipeWriter, a pool of workers compresses
// chunks while a single emitter goroutine writes the frames strictly in
// order; built by NewWriter (as a Writer), every stage runs inline. The
// bytes are the same either way.
//
// A PipeWriter is not safe for concurrent use; any concurrency is
// internal. Close must be called to flush the tail chunk, write the
// terminator, and join the worker goroutines.
type PipeWriter struct {
	w     io.Writer
	opt   Options
	chunk int

	ctx     context.Context
	ctxDone <-chan struct{} // nil without a context; a nil channel never fires
	tr      *trace.Trace    // request trace from ctx; nil = untraced

	// The slots, borrowed from writeSlots: the pipelined schedule's ring,
	// or the inline schedule's one slot, borrowed on first use.
	slots    []*pipeSlot
	depth    int
	free     chan *pipeSlot // nil on the inline schedule, as are work and emit
	work     chan *pipeSlot
	emit     chan *pipeSlot
	wg       sync.WaitGroup // compression workers
	emitDone chan struct{}
	lent     sync.WaitGroup // encodes of chunks the Write in progress lent

	open   *pipeSlot // the slot the next values go into; always the one slot inline
	seq    int
	seed   float64 // fixed-ratio bound of chunk 0, set by submit before any hand-off
	perr   pipeErr
	closed bool
}

// NewPipeWriter returns a pipelined streaming compressor writing to w.
// ChunkValues controls the chunk granularity (0 = DefaultChunkValues) and
// parallelism the number of concurrent chunk compressions (≤0 =
// GOMAXPROCS); parallelism+2 frames are kept in flight, bounding memory at
// roughly (parallelism+2) × chunk values plus their compressed frames.
// Each chunk is compressed with the serial per-chunk engine — the pipeline
// itself is the parallelism — so opt.Workers is ignored.
func NewPipeWriter(w io.Writer, opt Options, chunkValues, parallelism int) *PipeWriter {
	return NewPipeWriterContext(context.Background(), w, opt, chunkValues, parallelism)
}

// NewPipeWriterContext is NewPipeWriter bound to a context: once ctx is
// cancelled, in-flight and subsequent Write calls return ctx's error
// instead of blocking on the pipeline (a producer stalled waiting for a
// free ring slot wakes immediately; a Write still waits for the encodes of
// the chunks it lent, which is compute, not I/O), and Close skips the tail
// flush and terminator, reporting the cancellation. This is what lets a
// server thread an HTTP request context through the pipeline so an
// abandoned request cannot strand its handler. Close must still be called
// to join the goroutines; cancellation only guarantees the calls unblock
// promptly. The emitter can stay blocked in w.Write until the sink itself
// unblocks — hand the pipeline a sink that fails on cancellation (HTTP
// response writers do).
func NewPipeWriterContext(ctx context.Context, w io.Writer, opt Options, chunkValues, parallelism int) *PipeWriter {
	pw := NewWriter(w, opt, chunkValues)
	if parallelism <= 0 {
		parallelism = runtime.GOMAXPROCS(0)
	}
	pw.depth = pipelineDepth(parallelism)
	pw.ctx, pw.ctxDone, pw.tr = ctx, ctx.Done(), trace.FromContext(ctx)
	pw.slots = borrowSlots(&writeSlots, pw.depth)
	pw.free = make(chan *pipeSlot, pw.depth)
	pw.work = make(chan *pipeSlot, pw.depth)
	pw.emit = make(chan *pipeSlot, pw.depth)
	pw.emitDone = make(chan struct{})
	pw.opt.Workers = WorkersSerial
	// Per-chunk encodes run on pool workers; letting each record codec-stage
	// spans would flood the trace with overlapping intervals. The pipeline's
	// trace story is the per-frame slot occupancy recorded by the emitter.
	pw.opt.Spans = nil
	for _, s := range pw.slots {
		pw.free <- s
	}
	pw.wg.Add(parallelism)
	for i := 0; i < parallelism; i++ {
		go pw.worker()
	}
	go pw.emitter()
	if telemetry.Enabled() {
		telemetry.PipelineStarts.Inc()
		telemetry.PipelineDepths.Observe(int64(pw.depth))
	}
	return pw
}

// openSlot returns the slot the next values go into. Inline that is the
// one slot; pipelined, a free ring slot is taken when none is open,
// blocking while all are in flight (the backpressure bound). A context
// cancellation wakes a blocked producer: openSlot then pins the error and
// returns nil.
func (pw *PipeWriter) openSlot() *pipeSlot {
	switch {
	case pw.open != nil:
	case pw.work == nil:
		pw.slots = borrowSlots(&writeSlots, 1)
		pw.open = pw.slots[0]
	default:
		s := takeSlot(pw.free, pw.depth, nil, pw.ctxDone)
		if s == nil {
			pw.perr.set(pw.ctx.Err())
			return nil
		}
		if pw.tr != nil {
			s.t0 = time.Now()
		}
		pw.open = s
	}
	return pw.open
}

// submit is the first write stage; it takes the open slot, whose vals hold
// a full chunk (or the tail, at Close). On chunk 0 of a fixed-ratio stream
// it runs the full bound search, here on the producer goroutine, so
// workers read the seed after the hand-off below. Inline, it then encodes
// and emits the chunk and keeps the slot open; pipelined, it queues the
// slot to both the emit FIFO and the work queue.
func (pw *PipeWriter) submit() {
	s := pw.open
	if pw.opt.TargetRatio > 0 && pw.seq == 0 {
		p, err := ResolvePlan(s.vals, pw.opt)
		if err != nil {
			pw.perr.set(err)
			s.drop()
			return
		}
		pw.seed = p.Bound
	}
	s.seq = pw.seq
	pw.seq++
	if pw.work == nil {
		pw.encode(s)
		pw.emitFrame(s)
		s.drop()
		return
	}
	pw.open = nil
	s.err = nil
	s.done = make(chan struct{})
	if s.lent {
		pw.lent.Add(1)
	}
	pw.emit <- s
	pw.work <- s
}

// encode is the second write stage: it compresses s's chunk into a staged
// frame — container header on chunk 0, length prefix, payload — so the
// emitter writes each frame with one Write. Chunk 0 of a fixed-ratio
// stream uses the seed; later chunks re-resolve from it, a pure function
// of (options, seed, values), so the bytes do not depend on which worker
// encodes which chunk.
func (pw *PipeWriter) encode(s *pipeSlot) {
	opt := pw.opt
	if opt.TargetRatio > 0 {
		b := pw.seed
		if s.seq > 0 {
			var err error
			if b, err = ratioChunkBound(pw.opt, b, s.vals); err != nil {
				s.err = err
				return
			}
		}
		opt = pw.opt.withBound(b)
	}
	frame, at := beginFrame(s.frame[:0], s.seq == 0)
	s.frame, s.err = CompressInto(frame, s.vals, opt)
	if s.err == nil {
		endFrame(s.frame, at)
	}
}

// emitFrame is the last write stage: it pins s's encode error, or writes
// its frame unless the stream has already failed.
func (pw *PipeWriter) emitFrame(s *pipeSlot) {
	switch {
	case s.err != nil:
		pw.perr.set(s.err)
	case pw.perr.get() == nil:
		if _, err := pw.w.Write(s.frame); err != nil {
			pw.perr.set(err)
		} else if telemetry.Enabled() {
			telemetry.StreamFramesWritten.Inc()
		}
	}
	if pw.tr != nil {
		pw.tr.RecordSpan("pipe_frame", s.t0, time.Now())
	}
}

func (pw *PipeWriter) worker() {
	defer pw.wg.Done()
	for s := range pw.work {
		pw.encode(s)
		if s.lent {
			pw.lent.Done()
		}
		close(s.done)
	}
}

func (pw *PipeWriter) emitter() {
	defer close(pw.emitDone)
	obs := telemetry.Enabled()
	for s := range pw.emit {
		if obs {
			t := telemetry.Start()
			<-s.done
			t.Stop(&telemetry.PipelineConsumerStalls)
		} else {
			<-s.done
		}
		pw.emitFrame(s)
		s.drop()
		pw.free <- s
	}
}

// takeSlot takes a free ring slot, blocking while all are in flight; it
// returns nil if stop or ctxDone fires first.
func takeSlot(free chan *pipeSlot, depth int, stop, ctxDone <-chan struct{}) *pipeSlot {
	var s *pipeSlot
	if telemetry.Enabled() {
		t := telemetry.Start()
		select {
		case s = <-free:
		case <-stop:
			return nil
		case <-ctxDone:
			return nil
		}
		t.Stop(&telemetry.PipelineProducerStalls)
		telemetry.PipelineFramesInFlight.Observe(int64(depth - len(free)))
		return s
	}
	select {
	case s = <-free:
	case <-stop:
	case <-ctxDone:
	}
	return s
}

// pinCtxErr pins the context's error (if the context is cancelled) as the
// pipeline's terminal error and returns the current terminal error.
func (pw *PipeWriter) pinCtxErr() error {
	if pw.ctxDone != nil {
		if err := pw.ctx.Err(); err != nil {
			pw.perr.set(err)
		}
	}
	return pw.perr.get()
}

// Write chunks values and submits every full chunk; the tail waits in the
// open slot for the next Write or Close. A full chunk with nothing
// buffered before it is lent: encoded straight from the caller's slice,
// with Write waiting for that encode. Pipelined, a Write keeps its last
// full chunk out of that and copies it into a slot instead, so a caller
// writing one chunk at a time gets its next chunk ready while this one
// encodes. Errors from in-flight chunks surface on a later Write or on
// Close (first error wins).
func (pw *PipeWriter) Write(values []float32) error {
	if err := pw.pinCtxErr(); err != nil {
		return err
	}
	if pw.closed {
		return errors.New("szx: write after Close")
	}
	lendAt := pw.chunk
	if pw.work != nil {
		lendAt = 2 * pw.chunk
	}
	for len(values) > 0 {
		s := pw.openSlot()
		if s == nil {
			break
		}
		if len(s.buf) == 0 && len(values) >= lendAt {
			s.vals, s.lent = values[:pw.chunk:pw.chunk], true
			values = values[pw.chunk:]
		} else {
			need := min(pw.chunk-len(s.buf), len(values))
			s.buf = append(s.buf, values[:need]...)
			values = values[need:]
			if len(s.buf) < pw.chunk {
				break
			}
			s.vals = s.buf
		}
		pw.submit()
		if pw.perr.get() != nil {
			break
		}
	}
	pw.lent.Wait()
	return pw.perr.get()
}

// shutdown stops the pipelined schedule — no more submissions; workers and
// the emitter drain what is in flight and exit. Inline, there is nothing
// to stop.
func (pw *PipeWriter) shutdown() {
	if pw.work == nil {
		return
	}
	close(pw.work)
	pw.wg.Wait()
	close(pw.emit)
	<-pw.emitDone
}

// release gives the slots back to the pool; every goroutine that could
// touch them has been joined.
func (pw *PipeWriter) release() {
	returnSlots(&writeSlots, pw.slots)
	pw.slots, pw.open = nil, nil
}

// Close flushes the buffered tail chunk, drains the pipeline, writes the
// terminator, and joins every goroutine. It returns the first error the
// pipeline hit, if any; a second Close is a no-op returning that same
// error state.
func (pw *PipeWriter) Close() error {
	if pw.closed {
		return pw.perr.get()
	}
	pw.closed = true
	if s := pw.open; s != nil && len(s.buf) > 0 && pw.pinCtxErr() == nil {
		s.vals = s.buf
		pw.submit()
	}
	pw.shutdown()
	pw.release()
	if err := pw.pinCtxErr(); err != nil {
		return err
	}
	// The terminator and, for an empty stream, the container header before
	// it, in one Write.
	var end [9]byte
	if _, err := pw.w.Write(appendEnd(end[:0], pw.seq == 0)); err != nil {
		pw.perr.set(err)
		return err
	}
	return nil
}

// Abort stops the stream without flushing the tail chunk or writing the
// terminator, leaving a truncated (but prefix-readable) container. It
// joins every goroutine; subsequent Write and Close calls report the
// abort. Already-submitted frames may or may not reach the writer.
func (pw *PipeWriter) Abort() {
	if pw.closed {
		return
	}
	pw.closed = true
	pw.perr.set(errStreamAborted)
	pw.shutdown()
	pw.release()
}

// PipeReader decompresses an SZXS container and delivers its values
// strictly in frame order. Built by NewPipeReader, a prefetcher goroutine
// reads frames ahead while a pool of workers decompresses them
// concurrently, with at most parallelism+2 compressed frames (and their
// decoded chunks) in flight; built by NewReader (as a Reader), each frame
// is read and decoded inline when Read needs it. On both, a frame whose
// values wholly fit in the room Read is filling decodes straight into it.
//
// A PipeReader is not safe for concurrent use. Close joins the background
// goroutines; it must be called when abandoning a pipelined stream
// mid-read. After a clean EOF or a terminal error the goroutines stop by
// themselves, but only Close waits for them (and gives their ring back to
// the package pool), so call it anyway; it is safe and idempotent. An
// inline reader has no goroutines, so its Close is optional.
type PipeReader struct {
	frames  frameReader // touched only by the prefetch stage
	fetched int64       // stream position of the next frame's first value; prefetch stage only

	ctx     context.Context
	ctxDone <-chan struct{} // nil without a context; a nil channel never fires
	tr      *trace.Trace    // request trace from ctx; nil = untraced

	// The slots, borrowed from readSlots: the pipelined schedule's ring,
	// or the inline schedule's one slot, borrowed on first use.
	slots   []*pipeSlot
	depth   int
	free    chan *pipeSlot // nil on the inline schedule, as are work, emit and stop
	work    chan *pipeSlot
	emit    chan *pipeSlot
	stop    chan struct{} // closed by Close, or once a terminal error is pinned
	stopped bool
	wg      sync.WaitGroup // prefetcher + decode workers

	win       readWindow
	delivered int64 // values Read has returned so far

	cur    *pipeSlot // slot currently being drained
	pos    int
	err    error // first terminal error, io.EOF included
	closed bool
}

// readWindow is the room of the Read in progress. Read opens it over p;
// the prefetch stage aims every frame whose values wholly fit there at
// their place in p, and Read closes it and waits for the decodes aimed at
// it before returning, so nothing writes p after the Read.
type readWindow struct {
	mu    sync.Mutex
	p     []float32      // nil while no Read is in progress
	lo    int64          // stream position of p[0]
	aimed sync.WaitGroup // decodes into p not yet finished
}

func (w *readWindow) open(p []float32, lo int64) {
	w.mu.Lock()
	w.p, w.lo = p, lo
	w.mu.Unlock()
}

// shut closes the window and waits for the decodes already aimed at it —
// compute only, never a source read.
func (w *readWindow) shut() {
	w.mu.Lock()
	w.p = nil
	w.mu.Unlock()
	w.aimed.Wait()
}

// aim reports the room in the window for values [at, at+n) of the stream,
// registering a decode into it; ok is false when they do not wholly fit.
func (w *readWindow) aim(at int64, n int) (room []float32, ok bool) {
	w.mu.Lock()
	defer w.mu.Unlock()
	lo := at - w.lo
	if n == 0 || w.p == nil || lo < 0 || lo+int64(n) > int64(len(w.p)) {
		return nil, false
	}
	w.aimed.Add(1)
	return w.p[lo : lo : lo+int64(n)], true
}

// NewPipeReader returns a pipelined streaming decompressor reading from r.
// parallelism is the number of concurrent frame decodes (≤0 = GOMAXPROCS).
func NewPipeReader(r io.Reader, parallelism int) *PipeReader {
	return NewPipeReaderContext(context.Background(), r, parallelism)
}

// NewPipeReaderContext is NewPipeReader bound to a context: once ctx is
// cancelled, Read and ReadAll return ctx's error, and the prefetcher and
// decode workers wind down on their own even if Close is never called — a
// blocked consumer wakes immediately, and the prefetcher exits at its next
// hand-off point. The one blocking point cancellation cannot interrupt is
// a read on the underlying source itself; hand the pipeline a source that
// unblocks on cancellation (HTTP request bodies do). Close remains safe
// and idempotent.
func NewPipeReaderContext(ctx context.Context, r io.Reader, parallelism int) *PipeReader {
	pr := NewReader(r)
	if parallelism <= 0 {
		parallelism = runtime.GOMAXPROCS(0)
	}
	pr.depth = pipelineDepth(parallelism)
	pr.ctx, pr.ctxDone, pr.tr = ctx, ctx.Done(), trace.FromContext(ctx)
	pr.slots = borrowSlots(&readSlots, pr.depth)
	pr.free = make(chan *pipeSlot, pr.depth)
	pr.work = make(chan *pipeSlot, pr.depth)
	pr.emit = make(chan *pipeSlot, pr.depth)
	pr.stop = make(chan struct{})
	for _, s := range pr.slots {
		pr.free <- s
	}
	pr.wg.Add(1 + parallelism)
	go pr.prefetcher()
	for i := 0; i < parallelism; i++ {
		go pr.decodeWorker()
	}
	if telemetry.Enabled() {
		telemetry.PipelineStarts.Inc()
		telemetry.PipelineDepths.Observe(int64(pr.depth))
	}
	return pr
}

// prefetch is the first read stage: it reads the next frame into s and
// aims its decode, straight into the Read window when the value count in
// the frame's SZx header wholly fits there, else into the slot's own
// buffer. It returns false at the terminator; a malformed container or
// frame leaves its error in s.err. A frame whose header does not parse
// decodes into the slot, where decode reports it; nothing after it is
// delivered, so the positions of later frames no longer matter.
func (pr *PipeReader) prefetch(s *pipeSlot) bool {
	s.frame, s.idx, s.off, s.err = pr.frames.next(s.frame)
	if s.err != nil {
		return s.err != io.EOF
	}
	s.vals = s.buf[:0]
	if h, err := core.ParseHeader(s.frame); err == nil && h.Type == core.TypeFloat32 {
		if room, ok := pr.win.aim(pr.fetched, h.N); ok {
			s.vals, s.lent = room, true
		}
		pr.fetched += int64(h.N)
	}
	return true
}

// decode is the second read stage: it decompresses s's frame into s.vals,
// the window's room or the slot's own buffer, and then releases the
// window's wait on it.
func (pr *PipeReader) decode(s *pipeSlot) {
	if s.lent {
		defer pr.win.aimed.Done()
	}
	if s.err != nil {
		return
	}
	vals, err := DecompressInto(s.vals, s.frame)
	switch {
	case err != nil:
		s.err = &FrameError{Frame: s.idx, Offset: s.off, Err: err}
	case !s.lent:
		s.buf = vals
	}
	s.vals = vals
}

// unaim withdraws s from the Read window when no decode will run for it.
func (pr *PipeReader) unaim(s *pipeSlot) {
	if s.lent {
		pr.win.aimed.Done()
	}
	s.vals, s.lent = nil, false
}

// send delivers a slot to ch unless the reader is stopping or its context
// is cancelled.
func (pr *PipeReader) send(ch chan *pipeSlot, s *pipeSlot) bool {
	select {
	case ch <- s:
		return true
	case <-pr.stop:
		return false
	case <-pr.ctxDone:
		return false
	}
}

func (pr *PipeReader) prefetcher() {
	defer pr.wg.Done()
	defer close(pr.work)
	defer close(pr.emit)
	for {
		s := takeSlot(pr.free, pr.depth, pr.stop, pr.ctxDone)
		if s == nil {
			return
		}
		if pr.tr != nil {
			s.t0 = time.Now()
		}
		if !pr.prefetch(s) {
			return // clean terminator
		}
		s.done = make(chan struct{})
		if s.err != nil {
			close(s.done)
			pr.send(pr.emit, s)
			return
		}
		if !pr.send(pr.emit, s) {
			pr.unaim(s)
			return
		}
		if !pr.send(pr.work, s) {
			// Stopping: no worker will ever decode this slot. It reaches the
			// consumer, if at all, as an empty frame (the stop's cause comes
			// next), and its done signal is closed so nothing waits forever.
			pr.unaim(s)
			close(s.done)
			return
		}
	}
}

func (pr *PipeReader) decodeWorker() {
	defer pr.wg.Done()
	for s := range pr.work {
		pr.decode(s)
		close(s.done)
	}
}

// receive waits for the ring's next in-order slot and its decode. It
// returns io.EOF once the prefetcher has ended the queue, or the
// context's error. Every slot that reaches the emit queue is guaranteed
// to have its done signal closed eventually — by a decode worker, or by
// the prefetcher on an error or a failed hand-off — so the done wait
// needs no cancellation case of its own.
func (pr *PipeReader) receive() (*pipeSlot, error) {
	select {
	case s, ok := <-pr.emit:
		if ok {
			<-s.done
			return s, nil
		}
		// The prefetcher may have exited because the context fired rather
		// than because the stream ended; report the cancellation, not EOF.
		if pr.ctxDone != nil {
			if err := pr.ctx.Err(); err != nil {
				return nil, err
			}
		}
		return nil, io.EOF
	case <-pr.ctxDone:
		return nil, pr.ctx.Err()
	}
}

// next is the deliver stage: it recycles the drained slot and makes the
// next decoded frame current — prefetched and decoded now on the inline
// schedule, taken from the ring when pipelined. The first terminal error,
// io.EOF at the terminator included, is pinned and returned from every
// later call, so no schedule reads past a failure; pinning it also stops
// the pipeline's goroutines and, inline, gives the slot back.
func (pr *PipeReader) next() error {
	if pr.err != nil {
		return pr.err
	}
	if s := pr.cur; s != nil {
		if pr.tr != nil {
			pr.tr.RecordSpan("pipe_frame", s.t0, time.Now())
		}
		s.drop()
		if pr.free != nil {
			pr.free <- s
		}
		pr.cur = nil
	}
	var s *pipeSlot
	var err error
	switch {
	case pr.work == nil:
		if pr.slots == nil {
			pr.slots = borrowSlots(&readSlots, 1)
		}
		s = pr.slots[0]
		if !pr.prefetch(s) {
			err = io.EOF
		} else {
			pr.decode(s)
		}
	case telemetry.Enabled():
		t := telemetry.Start()
		s, err = pr.receive()
		t.Stop(&telemetry.PipelineConsumerStalls)
	default:
		s, err = pr.receive()
	}
	if err == nil && s.err != nil {
		telemetry.StreamFrameErrors.Inc()
		err = s.err
	}
	if err != nil {
		pr.err = err
		pr.halt()
		if pr.work == nil {
			pr.release()
		}
		return err
	}
	pr.cur, pr.pos = s, 0
	if telemetry.Enabled() {
		telemetry.StreamFramesRead.Inc()
	}
	return nil
}

// Read fills p with decompressed values, returning the count. It returns
// io.EOF after the final chunk is exhausted. While it runs, p is the Read
// window: frames that wholly fit in it decode straight into place.
func (pr *PipeReader) Read(p []float32) (int, error) {
	if pr.err != nil {
		return 0, pr.err
	}
	if len(p) == 0 {
		return 0, nil
	}
	pr.win.open(p, pr.delivered)
	total, err := pr.fill(p)
	pr.win.shut()
	pr.delivered += int64(total)
	if total > 0 && err == io.EOF {
		err = nil // deliver what we have; EOF on the next call
	}
	return total, err
}

// fill delivers frames into p in order until it is full or the stream
// ends: a frame decoded into the window is already in place, any other is
// copied out of its slot.
func (pr *PipeReader) fill(p []float32) (int, error) {
	total := 0
	for total < len(p) {
		if pr.cur == nil || pr.pos == len(pr.cur.vals) {
			if err := pr.next(); err != nil {
				return total, err
			}
		}
		n := len(pr.cur.vals) - pr.pos
		if !pr.cur.lent {
			n = copy(p[total:], pr.cur.vals[pr.pos:])
		}
		pr.pos += n
		total += n
	}
	return total, nil
}

// ReadAll decompresses the remainder of the stream.
func (pr *PipeReader) ReadAll() ([]float32, error) {
	if pr.err != nil && pr.err != io.EOF {
		return nil, pr.err
	}
	var out []float32
	for {
		if pr.cur != nil && pr.pos < len(pr.cur.vals) {
			out = append(out, pr.cur.vals[pr.pos:]...)
			pr.pos = len(pr.cur.vals)
		}
		if err := pr.next(); err != nil {
			if err == io.EOF {
				return out, nil
			}
			return out, err
		}
	}
}

// halt signals the pipelined schedule's goroutines to stop: the
// prefetcher exits at its next hand-off and the workers once the queue it
// fed is drained.
func (pr *PipeReader) halt() {
	if pr.stop != nil && !pr.stopped {
		pr.stopped = true
		close(pr.stop)
	}
}

// release gives the slots back to the pool; nothing can touch them again.
func (pr *PipeReader) release() {
	returnSlots(&readSlots, pr.slots)
	pr.slots, pr.cur = nil, nil
}

// Close abandons the stream and joins the background goroutines. It is
// idempotent and safe after EOF or an error. If the underlying reader is
// blocked in Read, Close blocks until that call returns (hand PipeReader a
// reader you can unblock, e.g. by closing the file or connection).
func (pr *PipeReader) Close() error {
	if pr.closed {
		return nil
	}
	pr.closed = true
	pr.halt()
	pr.wg.Wait()
	pr.release()
	if pr.err == nil {
		pr.err = errors.New("szx: read after Close")
	}
	return nil
}
