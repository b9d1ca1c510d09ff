// Package kernels holds the SZx codec's three hot inner loops — the block
// min/max reduction, the normalize+shift+leading-XOR encode scan, and the
// packed-lead block reconstruction — as swappable implementations selected
// once at init from CPU features.
//
// Two implementation sets exist: "generic", the portable pure-Go loops the
// codec has always run (extracted verbatim from internal/core), and "avx2",
// hand-written amd64 vector kernels gated behind `amd64 && !purego` build
// tags. Both produce bit-identical streams; the cross-check and fuzz suites
// in this package pin that equivalence on adversarial block shapes, and
// internal/core's golden hashes pin it end to end.
//
// Dispatch happens exactly once, in init: CPUID feature bits pick the best
// set, and the SZX_KERNELS environment variable overrides the choice
// ("generic" forces the portable loops, "avx2" requests the vector set).
// The selection is introspectable via Active/Detail and surfaces in
// `szx -stats` output and the szx_kernel_* telemetry family.
package kernels

import (
	"fmt"
	"os"
	"sync"
	"unsafe"
)

// MaxBlockSize bounds the block size the kernels must handle; it mirrors
// core.MaxBlockSize (which is defined in terms of this constant) so the
// fixed-size scratch buffers below always cover a whole block.
const MaxBlockSize = 4096

// EnvVar names the environment variable that overrides kernel dispatch.
// Recognized values: "generic" (force the portable loops), "avx2" (request
// the vector set; falls back to generic with a recorded reason when the CPU
// or build lacks it), and ""/"auto" (feature detection, the default).
const EnvVar = "SZX_KERNELS"

// Scratch is per-encoder staging memory shared by the kernel
// implementations: Lead stages per-value leading-byte codes before packing,
// and W stages normalized words for the vector encode path (aliased as
// []uint32 for the float32 kernels). It is pooled via GetScratch/PutScratch
// so the hot paths never allocate it per call.
type Scratch struct {
	Lead [MaxBlockSize]byte
	W    [MaxBlockSize]uint64
	Ld   [MaxBlockSize]uint64
}

// W32 views the word buffer as float32-width words (the first half of W's
// bytes); the float32 kernels use at most MaxBlockSize of them.
func (s *Scratch) W32() *[MaxBlockSize]uint32 {
	return (*[MaxBlockSize]uint32)(unsafe.Pointer(&s.W))
}

// Ld32 is the float32-width view of the per-value lead-count buffer.
func (s *Scratch) Ld32() *[MaxBlockSize]uint32 {
	return (*[MaxBlockSize]uint32)(unsafe.Pointer(&s.Ld))
}

// The scratch pool is a bounded freelist rather than a sync.Pool: the
// codec's warm zero-alloc contract (TestTargetRatioZeroAlloc and the
// ReportAllocs-pinned benches) needs Get to be deterministic, and
// sync.Pool is not — the race detector randomly drops Puts and every GC
// cycle clears the victim cache, each of which turns a warm call into a
// fresh 68 KiB allocation. The cap bounds idle retention to ~2 MiB.
const maxScratchFree = 32

var (
	scratchMu   sync.Mutex
	scratchFree []*Scratch
)

// GetScratch returns a Scratch from the pool. Contents are undefined; every
// kernel writes before it reads.
func GetScratch() *Scratch {
	scratchMu.Lock()
	if n := len(scratchFree); n > 0 {
		s := scratchFree[n-1]
		scratchFree[n-1] = nil
		scratchFree = scratchFree[:n-1]
		scratchMu.Unlock()
		return s
	}
	scratchMu.Unlock()
	return new(Scratch)
}

// PutScratch returns s to the pool. s must not be used afterwards.
func PutScratch(s *Scratch) {
	scratchMu.Lock()
	if len(scratchFree) < maxScratchFree {
		scratchFree = append(scratchFree, s)
	}
	scratchMu.Unlock()
}

// Impl32 is one implementation set of the float32 kernels. All three
// functions must produce output bit-identical to the generic set; see each
// field's contract.
type Impl32 struct {
	// Stats scans one block and returns the running minimum and maximum
	// under the codec's NaN-skipping compare semantics (NaN elements never
	// become the min/max; if blk[0] is NaN both results stay NaN), plus a
	// no-NaN verdict. noNaN must be exact whenever the block holds no ±Inf
	// and the returned min/max are not NaN; in the remaining cases the
	// caller's constant-block test already fails on the (NaN or oversized)
	// radius, so implementations may differ there — the generic set detects
	// NaN through a summation chain that starts at index 1 and can be
	// fooled by ±Inf pairs, the vector set detects it exactly per lane.
	Stats func(blk []float32) (mn, mx float32, noNaN bool)

	// EncodeScan runs the normalize+shift+leading-XOR scan over one
	// nonconstant block, writing the packed 2-bit lead array into lead
	// (PackedLen(len(blk)) bytes) and the mid-bytes into mid, and returns
	// the number of mid bytes written. mid must have room for
	// reqBytes*len(blk) plus 4 (f32) or 8 (f64) bytes of slack for the
	// wide stores. guarded enables the error-bound guard; on a guard
	// reject it returns ok=false and the contents of lead/mid are
	// unspecified. eSafe is the fast-accept threshold (negative sentinel
	// forces every marginal value through the exact errBound check).
	EncodeScan func(lead, mid []byte, blk []float32, mu float32, reqLen int,
		guarded bool, eSafe float32, errBound float64, scr *Scratch) (midLen int, ok bool)

	// DecodeScan reconstructs one nonconstant block from its packed lead
	// array and mid bytes into out (whose length is the block's value
	// count). It returns false when the payload is corrupt (a lead code
	// exceeding reqBytes, or mid running out of bytes). An implementation
	// may read mid[len(mid):cap(mid)], never past cap(mid); those bytes
	// affect neither the values nor the verdict, so callers hand over a
	// block's mid with the rest of the stream as capacity.
	DecodeScan func(out []float32, lead, mid []byte, mu float32, reqLen int) bool
}

// Impl64 is the float64 analogue of Impl32, with the same contracts,
// DecodeScan's read slack included.
type Impl64 struct {
	Stats      func(blk []float64) (mn, mx float64, noNaN bool)
	EncodeScan func(lead, mid []byte, blk []float64, mu float64, reqLen int,
		guarded bool, eSafe float64, errBound float64, scr *Scratch) (midLen int, ok bool)
	DecodeScan func(out []float64, lead, mid []byte, mu float64, reqLen int) bool
}

// K32 and K64 are the active kernel sets. They are written exactly once, at
// init, before any codec call can run; every later access is a read.
var (
	K32 Impl32
	K64 Impl64

	activeName   string
	activeDetail string
)

// Active returns the name of the dispatched implementation set: "generic"
// or "avx2".
func Active() string { return activeName }

// Detail returns the dispatch decision with its reason, e.g.
// "avx2 (cpu feature detection)" or "generic (SZX_KERNELS=generic)".
func Detail() string { return fmt.Sprintf("%s (%s)", activeName, activeDetail) }

// Available lists the implementation sets usable on this host and build,
// always starting with "generic".
func Available() []string {
	names := []string{"generic"}
	if _, _, bestName, ok := archBest(); ok {
		names = append(names, bestName)
	}
	return names
}

// Lookup32 returns the float32 kernel set with the given name, for
// benchmarks and cross-check tests. ok is false for unknown names and for
// vector sets the host or build cannot run.
func Lookup32(name string) (Impl32, bool) {
	switch name {
	case "generic":
		return generic32(), true
	default:
		if i32, _, bestName, ok := archBest(); ok && name == bestName {
			return i32, true
		}
	}
	return Impl32{}, false
}

// Lookup64 is the float64 analogue of Lookup32.
func Lookup64(name string) (Impl64, bool) {
	switch name {
	case "generic":
		return generic64(), true
	default:
		if _, i64, bestName, ok := archBest(); ok && name == bestName {
			return i64, true
		}
	}
	return Impl64{}, false
}

func init() {
	selectImpl(os.Getenv(EnvVar))
}

// selectImpl resolves the dispatch decision. Split from init so tests can
// exercise the override logic.
func selectImpl(env string) {
	best32, best64, bestName, ok := archBest()
	switch env {
	case "", "auto":
		if ok {
			K32, K64 = best32, best64
			activeName, activeDetail = bestName, "cpu feature detection"
			return
		}
		K32, K64 = generic32(), generic64()
		activeName, activeDetail = "generic", archGenericReason()
	case "generic":
		K32, K64 = generic32(), generic64()
		activeName, activeDetail = "generic", EnvVar+"=generic"
	default:
		if ok && env == bestName {
			K32, K64 = best32, best64
			activeName, activeDetail = bestName, EnvVar+"="+env
			return
		}
		K32, K64 = generic32(), generic64()
		if env == "avx2" {
			activeName, activeDetail = "generic", EnvVar+"=avx2 requested but unavailable: "+archGenericReason()
		} else {
			activeName, activeDetail = "generic", "unknown "+EnvVar+"="+env
		}
	}
}

// SetActiveForTesting swaps the active kernel set by name and returns a
// restore function. It is not safe to call concurrently with codec work;
// tests that use it must not run in parallel with compression calls.
func SetActiveForTesting(name string) (restore func(), err error) {
	i32, ok32 := Lookup32(name)
	i64, ok64 := Lookup64(name)
	if !ok32 || !ok64 {
		return nil, fmt.Errorf("kernels: implementation %q unavailable", name)
	}
	p32, p64, pn, pd := K32, K64, activeName, activeDetail
	K32, K64 = i32, i64
	activeName, activeDetail = name, "SetActiveForTesting"
	return func() {
		K32, K64 = p32, p64
		activeName, activeDetail = pn, pd
	}, nil
}
