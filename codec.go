package szx

// Codec is a reusable compression handle that amortizes every buffer the
// codec needs — the stream (header/bitmap/zsize/payload) on the compress
// side and the value slice on the decompress side — across calls. In
// steady state its methods allocate nothing, which matters for the
// repeated-compression workloads the paper targets (in-memory compression,
// per-request service compression).
//
// A Codec is NOT safe for concurrent use; give each goroutine its own (the
// zero-value-free constructor makes this cheap). The slices returned by
// Compress and Decompress alias the Codec's internal buffers and are only
// valid until the next call on the same Codec; callers that need the result
// to outlive the next call should copy it or use the package-level Into
// functions with their own buffers.
type Codec[T Float] struct {
	opt  Options
	comp []byte
	vals []T
	// rs is the Codec's own fixed-ratio probe scratch, so a warm handle's
	// TargetRatio search allocates nothing without touching the shared pool.
	rs ratioScratch
}

// NewCodec returns a Codec that compresses under opt.
func NewCodec[T Float](opt Options) *Codec[T] {
	return &Codec[T]{opt: opt}
}

// Options returns the options the Codec was built with.
func (c *Codec[T]) Options() Options { return c.opt }

// SetOptions re-arms the Codec for subsequent calls, keeping its internal
// buffers. This is the handle-pooling pattern: a server keeps warm Codecs
// in a pool and points each one at the current request's options, so the
// per-request compression path allocates nothing in steady state.
func (c *Codec[T]) SetOptions(opt Options) { c.opt = opt }

// Compress compresses data into the Codec's internal buffer and returns it.
// The result is valid until the next call on c.
func (c *Codec[T]) Compress(data []T) ([]byte, error) {
	out, err := compressInto(c.comp[:0], data, c.opt, &c.rs)
	if err != nil {
		return nil, err
	}
	c.comp = out
	return out, nil
}

// Decompress reconstructs a stream into the Codec's internal value buffer
// and returns it. The result is valid until the next call on c. The
// Codec's Workers option selects serial or block-parallel decoding.
func (c *Codec[T]) Decompress(comp []byte) ([]T, error) {
	out, err := DecompressParallelInto(c.vals[:0], comp, c.opt.Workers)
	if err != nil {
		return nil, err
	}
	c.vals = out
	return out, nil
}

// CompressInto is the package-level CompressInto under the Codec's options;
// it appends to the caller's buffer and does not touch the Codec's.
func (c *Codec[T]) CompressInto(dst []byte, data []T) ([]byte, error) {
	return CompressInto(dst, data, c.opt)
}

// DecompressInto is the package-level DecompressInto (worker count from the
// Codec's options); it appends to the caller's buffer.
func (c *Codec[T]) DecompressInto(dst []T, comp []byte) ([]T, error) {
	return DecompressParallelInto(dst, comp, c.opt.Workers)
}
