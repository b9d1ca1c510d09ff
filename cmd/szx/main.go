// Command szx is the command-line interface to the SZx compressor: it
// compresses raw little-endian float32/float64 arrays into SZx streams and
// back, mirroring the original szx CLI's basic workflow.
//
// Usage:
//
//	szx -z -i data.f32 -o data.szx -e 1e-3 [-rel] [-b 128] [-t f32|f64] [-w N]
//	szx -z -i data.f32 -o data.szx -ratio 8 [-b 128] [-t f32|f64] [-w N]
//	szx -z -stream -i data.f32 -o data.szxs [-chunk N] [-w N]
//	szx -x -i data.szx -o data.out [-w N]
//	szx -info -i data.szx
//
// -ratio selects fixed-ratio mode: instead of an error bound, give a target
// compression ratio and the codec searches (a few sampled probes) for the
// absolute bound that achieves it. -ratio and -e are mutually exclusive,
// and -rel does not combine with -ratio. The converged bound is recorded in
// the stream header, so -info and decompression report it like any other
// absolute bound.
//
// With -stream, -z emits a streaming container ("SZXS") through the
// pipelined engine: the input file is read chunk by chunk, chunks compress
// concurrently on -w workers, and frames are written as they complete, so
// memory stays bounded by the pipeline window instead of the file size
// (float32 only). -x detects the container magic and picks the matching
// path automatically — streaming containers decode through the pipelined
// reader straight to the output file, single-buffer streams through the
// parallel block decoder.
//
// Observability: -stats enables codec telemetry and prints a counter report
// to stderr when the command finishes; -stats-http ADDR additionally serves
// /metrics (Prometheus text), /debug/vars (expvar JSON), and /debug/pprof
// on ADDR for the lifetime of the process.
//
// The block kernels dispatch to the fastest implementation the CPU supports
// (AVX2 on capable amd64 hosts, scalar Go otherwise); set
// SZX_KERNELS=generic or SZX_KERNELS=avx2 to force a set. The compressed
// output is byte-identical regardless, and the -stats report names the
// active set.
//
// Exit codes are distinct so scripts can tell failure classes apart:
// 0 success, 2 usage error (bad flags or parameters), 3 I/O error
// (missing or unwritable files), 4 corrupt or mistyped input stream.
package main

import (
	"bufio"
	"encoding/binary"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"time"

	szx "repro"
	"repro/internal/core"
	"repro/internal/wireconv"
	"repro/telemetry"
)

// Exit codes. The flag package itself exits 2 on unparsable flags, so
// exitUsage doubles as "bad parameter value" for consistency.
const (
	exitOK      = 0
	exitUsage   = 2 // bad flag combination or invalid codec parameters
	exitIO      = 3 // filesystem or network failure
	exitCorrupt = 4 // input stream failed validation during decode
)

// exitCodeFor classifies an error from the codec or the filesystem into
// one of the documented exit codes.
func exitCodeFor(err error) int {
	switch {
	case err == nil:
		return exitOK
	case errors.Is(err, szx.ErrBadMagic),
		errors.Is(err, szx.ErrBadVersion),
		errors.Is(err, szx.ErrCorrupt),
		errors.Is(err, szx.ErrStream),
		errors.Is(err, szx.ErrWrongType),
		errors.Is(err, io.ErrUnexpectedEOF):
		return exitCorrupt
	case errors.Is(err, szx.ErrBadOptions),
		errors.Is(err, szx.ErrErrBound),
		errors.Is(err, szx.ErrBlockSize),
		errors.Is(err, szx.ErrDegenerateRange):
		return exitUsage
	default:
		return exitIO
	}
}

func main() {
	var (
		compress   = flag.Bool("z", false, "compress")
		decompress = flag.Bool("x", false, "decompress")
		info       = flag.Bool("info", false, "print stream header and exit")
		stream     = flag.Bool("stream", false, "with -z: write a streaming container (SZXS) with bounded memory")
		chunkVals  = flag.Int("chunk", szx.DefaultChunkValues, "with -z -stream: values per chunk")
		in         = flag.String("i", "", "input file")
		out        = flag.String("o", "", "output file")
		bound      = flag.Float64("e", 1e-3, "error bound")
		ratio      = flag.Float64("ratio", 0, "fixed-ratio mode: target compression ratio >= 1 (mutually exclusive with -e and -rel)")
		rel        = flag.Bool("rel", false, "interpret -e as value-range-relative")
		blockSize  = flag.Int("b", szx.DefaultBlockSize, "block size")
		dtype      = flag.String("t", "f32", "element type: f32 or f64")
		workers    = flag.Int("w", szx.WorkersSerial, "workers (-1 = all CPUs)")
		quiet      = flag.Bool("q", false, "suppress statistics output")
		stats      = flag.Bool("stats", false, "enable telemetry and print a report to stderr at exit")
		statsHTTP  = flag.String("stats-http", "", "enable telemetry and serve /metrics, /debug/vars, /debug/pprof on this address")
	)
	flag.Usage = func() {
		out := flag.CommandLine.Output()
		fmt.Fprintf(out, "usage: szx (-z|-x|-info) -i FILE [-o FILE] [options]\n\noptions:\n")
		flag.PrintDefaults()
		fmt.Fprintf(out, "\nenvironment:\n"+
			"  SZX_KERNELS=generic|avx2  force the block-kernel implementation set\n"+
			"                            (default: CPU feature detection; output is\n"+
			"                            byte-identical either way, -stats shows the\n"+
			"                            active set)\n")
		fmt.Fprintf(out, "\nexit codes:\n"+
			"  0  success\n"+
			"  2  usage error: bad flags or invalid codec parameters\n"+
			"  3  I/O error: missing, unreadable, or unwritable files\n"+
			"  4  corrupt input: stream failed validation during decode\n")
	}
	flag.Parse()

	if *stats || *statsHTTP != "" {
		telemetry.Enable()
		telemetry.PublishExpvar()
		if *statsHTTP != "" {
			ln, err := net.Listen("tcp", *statsHTTP)
			if err != nil {
				fail(exitIO, "%v", err)
			}
			fmt.Fprintf(os.Stderr, "szx: serving stats on http://%s/metrics\n", ln.Addr())
			go func() { _ = http.Serve(ln, telemetry.DebugHandler()) }()
		}
		if *stats {
			defer func() { fmt.Fprint(os.Stderr, telemetry.Report()) }()
		}
	}

	if *in == "" {
		fail(exitUsage, "missing -i input file")
	}

	switch {
	case *info:
		if code, err := runInfo(*in, os.Stdout); err != nil {
			fail(code, "%v", err)
		}
	case *compress:
		if *out == "" {
			fail(exitUsage, "missing -o output file")
		}
		mode := szx.BoundAbsolute
		if *rel {
			mode = szx.BoundRelative
		}
		opt := szx.Options{ErrorBound: *bound, Mode: mode, BlockSize: *blockSize, Workers: *workers}
		if *ratio > 0 {
			// -e always has a value (its default); only an explicit -e
			// conflicts with -ratio.
			explicitBound := false
			flag.Visit(func(f *flag.Flag) { explicitBound = explicitBound || f.Name == "e" })
			if explicitBound {
				fail(exitUsage, "-ratio and -e are mutually exclusive")
			}
			if *rel {
				fail(exitUsage, "-ratio resolves its own absolute bound; it does not combine with -rel")
			}
			opt.ErrorBound = 0
			opt.Mode = szx.BoundAbsolute
			opt.TargetRatio = *ratio
		}
		if *stream {
			if *dtype != "f32" {
				fail(exitUsage, "-stream supports -t f32 only")
			}
			runStreamCompress(*in, *out, opt, *chunkVals, *workers, *quiet)
			return
		}
		if code, err := runCompress(*in, *out, opt, *dtype, *quiet); err != nil {
			fail(code, "%v", err)
		}
	case *decompress:
		if *out == "" {
			fail(exitUsage, "missing -o output file")
		}
		runDecompress(*in, *out, *workers, *quiet)
	default:
		fail(exitUsage, "one of -z, -x, -info is required")
	}
}

// runInfo prints the header of either container flavor to stdout without
// decoding payloads: streaming containers are scanned frame by frame
// (length prefixes only), single-buffer streams go through szx.Info. On
// failure it returns the exit code and the error to report.
func runInfo(path string, stdout io.Writer) (int, error) {
	f, err := os.Open(path)
	if err != nil {
		return exitIO, err
	}
	defer f.Close()
	br := bufio.NewReader(f)
	magic, err := br.Peek(5)
	if err == nil && string(magic[:4]) == "SZXS" {
		version := magic[4] // Peek's slice is invalidated by Discard
		if _, err := br.Discard(5); err != nil {
			return exitIO, err
		}
		frames, payload := 0, int64(0)
		truncated := func(err error) error {
			return fmt.Errorf("truncated streaming container after %d frames: %w", frames, err)
		}
		var firstHeader []byte
		for {
			var lenBuf [4]byte
			if _, err := io.ReadFull(br, lenBuf[:]); err != nil {
				return exitCorrupt, truncated(err)
			}
			n := binary.LittleEndian.Uint32(lenBuf[:])
			if n == 0 {
				break
			}
			if n > 1<<31 { // the library's cap on a frame length
				return exitCorrupt, truncated(fmt.Errorf("frame length %d out of range", n))
			}
			skip := int(n)
			if frames == 0 {
				// Keep the first frame's SZx header: it records the effective
				// error bound (the converged bound, in fixed-ratio mode) for
				// the whole stream. Only the header is held in memory, so a
				// forged length prefix cannot force a large allocation.
				firstHeader = make([]byte, min(skip, core.HeaderSize))
				if _, err := io.ReadFull(br, firstHeader); err != nil {
					return exitCorrupt, truncated(err)
				}
				skip -= len(firstHeader)
			}
			if _, err := br.Discard(skip); err != nil {
				return exitCorrupt, truncated(err)
			}
			frames++
			payload += int64(n)
		}
		fmt.Fprintf(stdout, "container=SZXS version=%d frames=%d payloadBytes=%d", version, frames, payload)
		if h, herr := szx.Info(firstHeader); herr == nil {
			fmt.Fprintf(stdout, " type=%v blockSize=%d errBound=%g", h.Type, h.BlockSize, h.ErrBound)
		}
		fmt.Fprintln(stdout)
		return exitOK, nil
	}
	raw, err := io.ReadAll(br)
	if err != nil {
		return exitIO, err
	}
	h, err := szx.Info(raw)
	if err != nil {
		return exitCodeFor(err), err
	}
	fmt.Fprintf(stdout, "type=%v n=%d blockSize=%d errBound=%g blocks=%d\n",
		h.Type, h.N, h.BlockSize, h.ErrBound, h.NumBlocks())
	return exitOK, nil
}

// runStreamCompress pumps the input file through the pipelined streaming
// engine: reads one chunk of raw float32 bytes at a time, so peak memory is
// the pipeline window (parallelism+2 chunks), not the file size.
func runStreamCompress(inPath, outPath string, opt szx.Options, chunkVals, workers int, quiet bool) {
	if chunkVals <= 0 {
		chunkVals = szx.DefaultChunkValues
	}
	inf, err := os.Open(inPath)
	if err != nil {
		fail(exitIO, "%v", err)
	}
	defer inf.Close()
	outf, err := os.Create(outPath)
	if err != nil {
		fail(exitIO, "%v", err)
	}
	bw := bufio.NewWriterSize(outf, 1<<20)
	cw := &countWriter{w: bw}
	pw := szx.NewPipeWriter(cw, opt, chunkVals, workers)

	start := time.Now()
	br := bufio.NewReaderSize(inf, 1<<20)
	rawChunk := make([]byte, 4*chunkVals)
	vals := make([]float32, chunkVals)
	var inBytes int64
	for {
		n, rerr := io.ReadFull(br, rawChunk)
		if n > 0 {
			if rem := n % 4; rem != 0 {
				fail(exitCorrupt, "input is not a whole number of float32 values (%d trailing bytes)", rem)
			}
			inBytes += int64(n)
			nv := n / 4
			wireconv.Decode(vals[:nv], rawChunk)
			if werr := pw.Write(vals[:nv]); werr != nil {
				failErr(werr)
			}
		}
		if rerr == io.EOF || rerr == io.ErrUnexpectedEOF {
			break
		}
		if rerr != nil {
			fail(exitIO, "%v", rerr)
		}
	}
	if err := pw.Close(); err != nil {
		failErr(err)
	}
	if err := bw.Flush(); err != nil {
		fail(exitIO, "%v", err)
	}
	if err := outf.Close(); err != nil {
		fail(exitIO, "%v", err)
	}
	elapsed := time.Since(start)
	if !quiet {
		fmt.Printf("stream-compressed %d -> %d bytes (CR %.2f) in %v (%.1f MB/s)\n",
			inBytes, cw.n, float64(inBytes)/float64(cw.n), elapsed,
			float64(inBytes)/elapsed.Seconds()/1e6)
	}
}

// runCompress compresses the raw little-endian file at inPath into one SZx
// stream at outPath. On failure it returns the exit code and the error to
// report.
func runCompress(inPath, outPath string, opt szx.Options, dtype string, quiet bool) (int, error) {
	switch dtype {
	case "f32":
		return compressFile[float32](inPath, outPath, opt, quiet)
	case "f64":
		return compressFile[float64](inPath, outPath, opt, quiet)
	}
	return exitUsage, fmt.Errorf("unknown type %q", dtype)
}

// compressFile is runCompress for values of type T. A trailing partial
// value is corrupt input, as it is on the streaming path.
func compressFile[T szx.Float](inPath, outPath string, opt szx.Options, quiet bool) (int, error) {
	raw, err := os.ReadFile(inPath)
	if err != nil {
		return exitIO, err
	}
	if rem := len(raw) % wireconv.Size[T](); rem != 0 {
		return exitCorrupt, fmt.Errorf("input is not a whole number of %T values (%d trailing bytes)", T(0), rem)
	}
	start := time.Now()
	comp, st, err := szx.CompressIntoStats(nil, wireconv.Values[T](nil, raw), opt)
	elapsed := time.Since(start)
	if err != nil {
		return exitCodeFor(err), err
	}
	if err := os.WriteFile(outPath, comp, 0o644); err != nil {
		return exitIO, err
	}
	if !quiet {
		fmt.Printf("compressed %d -> %d bytes (CR %.2f) in %v (%.1f MB/s)\n",
			len(raw), len(comp), float64(len(raw))/float64(len(comp)), elapsed,
			float64(len(raw))/elapsed.Seconds()/1e6)
		if st.TargetRatio > 0 {
			fmt.Printf("fixed-ratio: target %.3g achieved %.3g bound %g probes %d converged %v\n",
				st.TargetRatio, st.Ratio(), st.EffectiveBound, st.RatioProbes, st.RatioConverged)
		}
	}
	return exitOK, nil
}

func runDecompress(inPath, outPath string, workers int, quiet bool) {
	inf, err := os.Open(inPath)
	if err != nil {
		fail(exitIO, "%v", err)
	}
	defer inf.Close()
	br := bufio.NewReaderSize(inf, 1<<20)
	magic, _ := br.Peek(4)
	if string(magic) == "SZXS" {
		runStreamDecompress(br, inPath, outPath, workers, quiet)
		return
	}
	raw, err := io.ReadAll(br)
	if err != nil {
		fail(exitIO, "%v", err)
	}
	h, err := szx.Info(raw)
	if err != nil {
		failErr(err)
	}
	start := time.Now()
	var payload []byte
	if h.Type == szx.TypeFloat64 {
		vals, derr := szx.DecompressFloat64Parallel(raw, workers)
		if derr != nil {
			failErr(derr)
		}
		payload = wireconv.Append(nil, vals)
	} else {
		vals, derr := szx.DecompressParallel(raw, workers)
		if derr != nil {
			failErr(derr)
		}
		payload = wireconv.Append(nil, vals)
	}
	elapsed := time.Since(start)
	if err := os.WriteFile(outPath, payload, 0o644); err != nil {
		fail(exitIO, "%v", err)
	}
	if !quiet {
		fmt.Printf("decompressed %d -> %d bytes in %v (%.1f MB/s)\n",
			len(raw), len(payload), elapsed,
			float64(len(payload))/elapsed.Seconds()/1e6)
	}
}

// runStreamDecompress drains a streaming container through the pipelined
// reader, writing decoded values to the output file as chunks complete —
// frames prefetch and decode concurrently ahead of the file writes.
func runStreamDecompress(br io.Reader, inPath, outPath string, workers int, quiet bool) {
	outf, err := os.Create(outPath)
	if err != nil {
		fail(exitIO, "%v", err)
	}
	bw := bufio.NewWriterSize(outf, 1<<20)
	pr := szx.NewPipeReader(br, workers)
	defer pr.Close()

	start := time.Now()
	vals := make([]float32, 1<<16)
	rawOut := make([]byte, 4*len(vals))
	var outBytes int64
	for {
		n, rerr := pr.Read(vals)
		wireconv.Put(rawOut, vals[:n])
		if n > 0 {
			if _, werr := bw.Write(rawOut[:4*n]); werr != nil {
				fail(exitIO, "%v", werr)
			}
			outBytes += int64(4 * n)
		}
		if rerr == io.EOF {
			break
		}
		if rerr != nil {
			failErr(rerr)
		}
	}
	if err := bw.Flush(); err != nil {
		fail(exitIO, "%v", err)
	}
	if err := outf.Close(); err != nil {
		fail(exitIO, "%v", err)
	}
	elapsed := time.Since(start)
	if !quiet {
		var inBytes int64
		if st, serr := os.Stat(inPath); serr == nil {
			inBytes = st.Size()
		}
		fmt.Printf("stream-decompressed %d -> %d bytes in %v (%.1f MB/s)\n",
			inBytes, outBytes, elapsed,
			float64(outBytes)/elapsed.Seconds()/1e6)
	}
}

// countWriter counts bytes passed through to w.
type countWriter struct {
	w io.Writer
	n int64
}

func (c *countWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.n += int64(n)
	return n, err
}

// fail prints a message and exits with the given documented code.
func fail(code int, format string, args ...interface{}) {
	fmt.Fprintf(os.Stderr, "szx: "+format+"\n", args...)
	os.Exit(code)
}

// failErr classifies err (corrupt input vs usage vs I/O) and exits with
// the matching code.
func failErr(err error) { fail(exitCodeFor(err), "%v", err) }
