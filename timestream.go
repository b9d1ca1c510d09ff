package szx

import (
	"errors"
	"fmt"
	"io"
	"sync"

	"repro/telemetry"
)

// Pipelined temporal streaming: TimeCompressor frames are inherently
// sequential (each residual is computed against the previous reconstructed
// frame), so chunk-level parallelism does not apply — but the I/O still
// overlaps. TimeStreamWriter hands each compressed frame to an emitter
// goroutine so frame n+1's residual computation runs while frame n's bytes
// are in flight to the sink; TimeStreamReader prefetches frames ahead of
// the decoder the same way. Both ends use the value stream's frame codec
// (see frameCodec) under their own magic, one TimeCompressor frame per
// frame:
//
//	"SZXT" u8(version)
//	repeat: u32 frameLen | one TimeCompressor frame
//	u32(0) terminator

const (
	timeStreamMagic   = "SZXT"
	timeStreamVersion = 1
	// timeStreamAhead is how many compressed frames the writer (and
	// prefetching reader) keep in flight; temporal frames are whole
	// snapshots, so a small window already hides the I/O.
	timeStreamAhead = 2
)

// ErrTimeStream reports a malformed temporal streaming container.
var ErrTimeStream = errors.New("szx: malformed temporal stream container")

var timeFrames = frameCodec{
	magic: timeStreamMagic, version: timeStreamVersion, malformed: ErrTimeStream,
	frameErr: func(_ int, _ int64, cause error) error {
		return fmt.Errorf("%w: %w", ErrTimeStream, cause)
	},
}

// TimeStreamWriter writes a TimeCompressor frame sequence to w, compressing
// the next frame while the previous one's bytes are being written. Not safe
// for concurrent use; Close flushes, writes the terminator, and joins the
// emitter goroutine.
type TimeStreamWriter struct {
	tc     *TimeCompressor
	w      io.Writer
	pend   chan []byte
	done   chan struct{}
	perr   pipeErr
	frames int // frames queued, counted on the caller's goroutine
	closed bool
}

// NewTimeStreamWriter returns a pipelined temporal stream compressor
// writing to w. opt.Mode must be BoundAbsolute (see NewTimeCompressor).
func NewTimeStreamWriter(w io.Writer, opt Options) (*TimeStreamWriter, error) {
	tc, err := NewTimeCompressor(opt)
	if err != nil {
		return nil, err
	}
	tw := &TimeStreamWriter{
		tc:   tc,
		w:    w,
		pend: make(chan []byte, timeStreamAhead),
		done: make(chan struct{}),
	}
	go tw.emitter()
	if telemetry.Enabled() {
		telemetry.PipelineStarts.Inc()
		telemetry.PipelineDepths.Observe(timeStreamAhead)
	}
	return tw, nil
}

func (tw *TimeStreamWriter) emitter() {
	defer close(tw.done)
	var buf []byte // staged frame, reused
	first := true
	for comp := range tw.pend {
		if tw.perr.get() != nil {
			continue // drain after failure; first error stays pinned
		}
		var at int
		buf, at = timeFrames.beginFrame(buf[:0], first)
		buf = append(buf, comp...)
		endFrame(buf, at)
		if _, err := tw.w.Write(buf); err != nil {
			tw.perr.set(err)
			continue
		}
		first = false
		if telemetry.Enabled() {
			telemetry.StreamFramesWritten.Inc()
		}
	}
}

// WriteFrame compresses the next temporal frame and queues its bytes for
// emission, returning once the compression (not the write) is done. Frame
// errors from the emitter surface on a later call or on Close.
func (tw *TimeStreamWriter) WriteFrame(frame []float32) error {
	if err := tw.perr.get(); err != nil {
		return err
	}
	if tw.closed {
		return errors.New("szx: write after Close")
	}
	comp, err := tw.tc.CompressFrame(frame)
	if err != nil {
		tw.perr.set(err)
		// The emitter is still healthy; shut it down on Close as usual.
		return err
	}
	if telemetry.Enabled() {
		t := telemetry.Start()
		tw.pend <- comp
		t.Stop(&telemetry.PipelineProducerStalls)
		telemetry.PipelineFramesInFlight.Observe(int64(len(tw.pend)))
	} else {
		tw.pend <- comp
	}
	tw.frames++
	return nil
}

// Close drains the emitter, writes the terminator, and joins the
// goroutine. It returns the first error the stream hit.
func (tw *TimeStreamWriter) Close() error {
	if tw.closed {
		return tw.perr.get()
	}
	tw.closed = true
	close(tw.pend)
	<-tw.done
	if err := tw.perr.get(); err != nil {
		return err
	}
	// The terminator and, for an empty stream, the container header before
	// it, in one Write.
	if _, err := tw.w.Write(timeFrames.appendEnd(nil, tw.frames == 0)); err != nil {
		tw.perr.set(err)
		return err
	}
	return nil
}

// timeFrame carries one prefetched compressed frame (or the read error
// that ended prefetching).
type timeFrame struct {
	comp []byte
	err  error
}

// TimeStreamReader reconstructs a TimeStreamWriter sequence, prefetching
// compressed frames ahead of the (inherently sequential) temporal decoder
// so the read I/O overlaps frame reconstruction. Not safe for concurrent
// use; Close releases the prefetcher.
type TimeStreamReader struct {
	td     *TimeDecompressor
	pend   chan timeFrame
	stop   chan struct{}
	wg     sync.WaitGroup
	err    error
	closed bool
}

// NewTimeStreamReader returns a pipelined temporal stream decompressor
// reading from r.
func NewTimeStreamReader(r io.Reader) *TimeStreamReader {
	tr := &TimeStreamReader{
		td:   NewTimeDecompressor(),
		pend: make(chan timeFrame, timeStreamAhead),
		stop: make(chan struct{}),
	}
	tr.wg.Add(1)
	go tr.prefetch(r)
	if telemetry.Enabled() {
		telemetry.PipelineStarts.Inc()
		telemetry.PipelineDepths.Observe(timeStreamAhead)
	}
	return tr
}

func (tr *TimeStreamReader) deliver(f timeFrame) bool {
	select {
	case tr.pend <- f:
		return true
	case <-tr.stop:
		return false
	}
}

func (tr *TimeStreamReader) prefetch(r io.Reader) {
	defer tr.wg.Done()
	defer close(tr.pend)
	frames := frameReader{codec: &timeFrames, r: r}
	for {
		// Each frame travels to the consumer, so it gets its own buffer.
		comp, _, _, err := frames.next(nil)
		if err == io.EOF {
			return // clean terminator
		}
		if !tr.deliver(timeFrame{comp: comp, err: err}) || err != nil {
			return
		}
	}
}

// ReadFrame reconstructs the next temporal frame, returning io.EOF after
// the final one.
func (tr *TimeStreamReader) ReadFrame() ([]float32, error) {
	if tr.err != nil {
		return nil, tr.err
	}
	var f timeFrame
	var ok bool
	if telemetry.Enabled() {
		t := telemetry.Start()
		f, ok = <-tr.pend
		t.Stop(&telemetry.PipelineConsumerStalls)
	} else {
		f, ok = <-tr.pend
	}
	if !ok {
		tr.err = io.EOF
		return nil, io.EOF
	}
	if f.err != nil {
		tr.err = f.err
		return nil, tr.err
	}
	frame, err := tr.td.DecompressFrame(f.comp)
	if err != nil {
		tr.err = err
		return nil, err
	}
	if telemetry.Enabled() {
		telemetry.StreamFramesRead.Inc()
	}
	return frame, nil
}

// Close abandons the stream and joins the prefetcher. Idempotent; safe
// after EOF or an error.
func (tr *TimeStreamReader) Close() error {
	if tr.closed {
		return nil
	}
	tr.closed = true
	close(tr.stop)
	go func() {
		for range tr.pend { // unblock a prefetcher mid-send and drain
		}
	}()
	tr.wg.Wait()
	if tr.err == nil {
		tr.err = errors.New("szx: read after Close")
	}
	return nil
}
