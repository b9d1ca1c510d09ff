package service

import (
	"io"
	"sync"

	szx "repro"
)

// scratch is the per-request working set for the buffered endpoints: the
// raw body bytes, the decoded value views, warm Codec handles for both
// element types, and an output staging buffer. One scratch serves one
// request at a time; the pools recycle them across requests so that in
// steady state the whole compress/decompress path — body read included —
// allocates nothing.
type scratch struct {
	raw   []byte // request body, reused capacity
	out   []byte // response staging, reused capacity
	f32   []float32
	f64   []float64
	c32   *szx.Codec[float32]
	c64   *szx.Codec[float64]
	class int // pool index this scratch was drawn from
	hint  int // declared body size for this lease (0 = unknown)
	// probe is readBody's EOF probe. It lives here rather than on the
	// stack because a buffer passed to io.Reader.Read escapes to the heap.
	probe [1]byte
}

// Scratch buffers are size-classed so small requests never pay big-request
// buffer costs. Historically there was one pool, and its buffers grew to
// the largest body ever seen — after a single 8 MiB request, every 4 KiB
// request leased (and touched, and kept hot) an 8 MiB working set. Now a
// request is routed by its Content-Length to the smallest class that fits,
// and on release a small-class scratch that absorbed an oversized chunked
// upload migrates to the class its body buffer now belongs to instead of
// polluting the small pool. Response-side buffers stay with the lease's
// class. Bodies beyond the largest class share an overflow pool.
var scratchClassSizes = [...]int{4 << 10, 64 << 10, 1 << 20, 8 << 20}

// scratchOverflow indexes the pool for bodies beyond the largest class.
const scratchOverflow = len(scratchClassSizes)

var scratchPools [scratchOverflow + 1]sync.Pool

func init() {
	for i := range scratchPools {
		scratchPools[i].New = func() any {
			return &scratch{
				c32: szx.NewCodec[float32](szx.Options{}),
				c64: szx.NewCodec[float64](szx.Options{}),
			}
		}
	}
}

// classForSize returns the index of the smallest class holding n bytes.
func classForSize(n int64) int {
	for i, sz := range scratchClassSizes {
		if n <= int64(sz) {
			return i
		}
	}
	return scratchOverflow
}

// getScratch leases a scratch sized for a body of sizeHint bytes (a
// request's Content-Length; <= 0 means unknown, which routes to the middle
// 64 KiB class — the historical default buffer size).
func getScratch(sizeHint int64) *scratch {
	if sizeHint <= 0 {
		sizeHint = 64 << 10
	}
	cl := classForSize(sizeHint)
	sc := scratchPools[cl].Get().(*scratch)
	sc.class = cl
	sc.hint = int(sizeHint)
	return sc
}

// putScratch returns a scratch to the pool it was leased from, or to the
// class its body buffer now fits if that is larger, which is what keeps
// the small-class pools small: a scratch that served a body larger than its
// class (lying or absent Content-Length) carries a big body buffer now, and
// re-classing moves it to the big pools where it is an asset instead of a
// liability. Only the body buffer, whose size the lease declared, moves a
// scratch up: a decompress's output and value buffers grow to the decoded
// size, which may sit classes above the body, and the next request of the
// same body size must find this scratch in its own pool. It never moves
// down: the streaming decompress endpoint reads no body into the scratch.
func putScratch(sc *scratch) {
	if c := classForSize(int64(cap(sc.raw))); c > sc.class {
		sc.class = c
	}
	sc.hint = 0
	scratchPools[sc.class].Put(sc)
}

// readBody reads r to EOF into sc.raw, reusing its capacity, and enforces
// the body-size cap. It is io.ReadAll minus the fresh allocation per call:
// the buffer is seeded at the scratch's class size (or the declared
// Content-Length when that is larger), then grows by doubling only if the
// body outruns its declaration. Returns errBodyTooLarge once the read
// crosses max.
func (sc *scratch) readBody(r io.Reader, max int64) ([]byte, error) {
	buf := sc.raw[:0]
	if seed := sc.seedSize(max); cap(buf) < seed {
		buf = make([]byte, 0, seed)
	}
	for {
		if int64(len(buf)) > max {
			sc.raw = buf
			return nil, errBodyTooLarge
		}
		var n int
		var err error
		if len(buf) < cap(buf) {
			n, err = r.Read(buf[len(buf):cap(buf)])
			buf = buf[:len(buf)+n]
		} else {
			// A full buffer is most often an exact fit: a body the size of
			// its class. Probe for EOF before growing, so the buffer stays
			// inside its class (and putScratch files the scratch back where
			// it came from); grow only if a byte arrives.
			n, err = r.Read(sc.probe[:])
			buf = append(buf, sc.probe[:n]...)
		}
		if err == io.EOF {
			sc.raw = buf
			if int64(len(buf)) > max {
				return nil, errBodyTooLarge
			}
			return buf, nil
		}
		if err != nil {
			sc.raw = buf
			return nil, err
		}
	}
}

// seedSize picks the initial body-buffer capacity: the class size, bumped
// to the declared Content-Length for overflow-class bodies (so an 80 MiB
// upload is one allocation, not a doubling ladder), and clamped to the
// body cap so a hostile Content-Length cannot make us allocate more than
// we would ever accept.
func (sc *scratch) seedSize(max int64) int {
	seed := 64 << 10
	if sc.class < scratchOverflow {
		seed = scratchClassSizes[sc.class]
	} else if sc.hint > seed {
		seed = sc.hint
	}
	if int64(seed) > max {
		seed = int(max) + 1
	}
	return seed
}

// resize returns b with length n, reusing its capacity when that suffices
// and otherwise allocating exactly n, so a buffer stays inside the size
// class of the request that grew it.
func resize[S ~[]E, E any](b S, n int) S {
	if cap(b) < n {
		return make(S, n)
	}
	return b[:n]
}

// errBodyTooLarge marks a request body that exceeded Config.MaxBodyBytes.
type bodyTooLargeError struct{}

func (bodyTooLargeError) Error() string { return "request body exceeds the configured limit" }

var errBodyTooLarge = bodyTooLargeError{}
