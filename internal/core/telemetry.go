package core

import (
	"context"
	"math/bits"
	"runtime/pprof"

	"repro/internal/kernels"
	"repro/telemetry"
)

// Register the kernel dispatch decision with telemetry once. kernels' own
// init has already run (package initialization order follows imports), so
// Active/Detail are final here.
func init() {
	telemetry.SetKernelDispatch(kernels.Active(), kernels.Detail())
}

// Telemetry glue for the codec hot paths. Every helper here is behind the
// caller's single telemetry.Enabled() check per codec call, so the
// disabled path pays one atomic load and nothing else; BenchmarkCoreTelemetry
// measures what enabling it costs.

// recordDecodedBlocks tallies a decoded stream's constant/nonconstant
// block split from its bitmap (one popcount per 8 blocks; the decoder
// itself stays untouched).
func recordDecodedBlocks(si Index) {
	nb := si.Hdr.NumBlocks()
	nonconst := 0
	full := nb / 8
	for _, b := range si.Bitmap[:full] {
		nonconst += bits.OnesCount8(b)
	}
	if rem := nb & 7; rem != 0 {
		nonconst += bits.OnesCount8(si.Bitmap[full] & byte(1<<uint(rem)-1))
	}
	telemetry.DecodedBlocksNonConstant.Add(int64(nonconst))
	telemetry.DecodedBlocksConstant.Add(int64(nb - nonconst))
	// Every nonconstant block ran the decode-scan kernel exactly once.
	telemetry.KernelDecodeScanCalls.Add(int64(nonconst))
}

// flushWorkerChunks records one engine participant's chunk claims:
// participant 0 is the calling goroutine ("owned"), everyone else is a
// pool worker ("stolen"); a participant that claimed at least one chunk
// counts as active for the utilization ratio.
func flushWorkerChunks(id, claimed int) {
	if id == 0 {
		telemetry.ParallelChunksOwned.Add(int64(claimed))
	} else {
		telemetry.ParallelChunksStolen.Add(int64(claimed))
	}
	if claimed > 0 {
		telemetry.ParallelActiveWorkers.Inc()
	}
	telemetry.ParallelChunksPerWorker.Observe(int64(claimed))
}

// runStage runs f, labeling its CPU-profile samples with szx_stage=stage
// when telemetry is enabled so profiles of the worker pool attribute time
// to the encode/gather/decode phases instead of one anonymous pool frame.
func runStage(rec bool, stage string, f func()) {
	if !rec {
		f()
		return
	}
	pprof.Do(context.Background(), pprof.Labels("szx_stage", stage), func(context.Context) { f() })
}
