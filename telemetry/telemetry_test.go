package telemetry

import (
	"bytes"
	"math/rand"
	"net/http/httptest"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

func TestEnabledGateDefaultsOff(t *testing.T) {
	if Enabled() {
		t.Fatal("telemetry must default to disabled")
	}
	Enable()
	if !Enabled() {
		t.Fatal("Enable did not enable")
	}
	Disable()
	if Enabled() {
		t.Fatal("Disable did not disable")
	}
}

func TestHistogramBuckets(t *testing.T) {
	var h Histogram
	h.Observe(0)    // bucket 0
	h.Observe(1)    // bucket 1 (le 2)
	h.Observe(1023) // bucket 10 (le 1024)
	h.Observe(1024) // bucket 11 (le 2048)
	h.Observe(-5)   // clamps to 0
	s := h.Snapshot()
	if s.Count != 5 {
		t.Fatalf("count = %d, want 5", s.Count)
	}
	if s.Sum != 0+1+1023+1024 {
		t.Fatalf("sum = %d", s.Sum)
	}
	want := map[int64]int64{0: 2, 2: 1, 1024: 1, 2048: 1}
	if len(s.Buckets) != len(want) {
		t.Fatalf("buckets = %+v", s.Buckets)
	}
	for _, b := range s.Buckets {
		if want[b.Le] != b.Count {
			t.Errorf("bucket le=%d count=%d, want %d", b.Le, b.Count, want[b.Le])
		}
	}
}

func TestBitHist(t *testing.T) {
	var h BitHist
	h.Observe(12)
	h.Observe(12)
	h.Observe(64)
	h.Observe(99) // clamps to 64
	h.Observe(-1) // clamps to 0
	s := h.Snapshot()
	if s[12] != 2 || s[64] != 2 || s[0] != 1 || len(s) != 3 {
		t.Fatalf("snapshot = %v", s)
	}
}

// TestCountPackedLeads cross-checks the bit-plane packed-lead counting
// against two oracles: a naive per-value tally for random code sequences
// and ragged lengths, and a per-byte table of code counts over every byte
// value.
func TestCountPackedLeads(t *testing.T) {
	// leadCountTab[b] holds how many of b's four 2-bit fields equal each code.
	var leadCountTab [256][4]int64
	for b := 0; b < 256; b++ {
		for s := 6; s >= 0; s -= 2 {
			leadCountTab[b][(b>>uint(s))&3]++
		}
	}
	// Every byte value, repeated across the 8-byte word loop and the tail.
	for b := 0; b < 256; b++ {
		for _, l := range []int{1, 7, 8, 9, 32} {
			var want [4]int64
			for k := range want {
				want[k] = int64(l) * leadCountTab[b][k]
			}
			var tally BlockTally
			tally.CountPackedLeads(bytes.Repeat([]byte{byte(b)}, l), 4*l)
			if tally.Lead != want {
				t.Fatalf("byte %#02x x%d: got %v, want %v", b, l, tally.Lead, want)
			}
		}
	}
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(300)
		codes := make([]byte, n)
		var want [4]int64
		for i := range codes {
			codes[i] = byte(rng.Intn(4))
			want[codes[i]]++
		}
		packed := make([]byte, (n+3)/4)
		for i, c := range codes {
			packed[i>>2] |= c << uint(6-2*(i&3))
		}
		var tally BlockTally
		tally.CountPackedLeads(packed, n)
		if tally.Lead != want {
			t.Fatalf("n=%d: got %v, want %v", n, tally.Lead, want)
		}
	}
}

func TestBlockTallyFlush(t *testing.T) {
	Reset()
	tally := BlockTally{Constant: 3, NonConstant: 7, Lossless: 1, Retries: 2}
	tally.Lead = [4]int64{10, 20, 30, 40}
	tally.Req[22] = 7
	tally.Flush()
	if tally != (BlockTally{}) {
		t.Fatal("Flush did not zero the tally")
	}
	if BlocksConstant.Load() != 3 || BlocksNonConstant.Load() != 7 ||
		BlocksLossless.Load() != 1 || GuardRetries.Load() != 2 {
		t.Fatal("block counters wrong after flush")
	}
	if LeadCodes[3].Load() != 40 {
		t.Fatal("lead counter wrong after flush")
	}
	if ReqLenBits.Snapshot()[22] != 7 {
		t.Fatal("reqlen histogram wrong after flush")
	}
	Reset()
	if BlocksConstant.Load() != 0 || LeadCodes[3].Load() != 0 || len(ReqLenBits.Snapshot()) != 0 {
		t.Fatal("Reset did not zero metrics")
	}
}

func TestSnapshotRatios(t *testing.T) {
	Reset()
	RecordCompress(1000, 250, 1e6)
	RecordDecompress(250, 1000, 5e5)
	s := Snap()
	for key, want := range map[string]int64{
		"szx_compress_input_bytes_total":    1000,
		"szx_compress_output_bytes_total":   250,
		"szx_decompress_input_bytes_total":  250,
		"szx_decompress_output_bytes_total": 1000,
	} {
		if got := s.Series[key]; got != want {
			t.Fatalf("%s = %d, want %d", key, got, want)
		}
	}
	if d := s.Histograms["szx_compress_duration_seconds"]; d.Count != 1 || d.Mean != 1e6 {
		t.Fatalf("durations = %+v", d)
	}
	Reset()
}

// promLine matches one Prometheus text-exposition sample line.
var promLine = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^}]*\})? [-+0-9.eE]+(Inf)?$`)

func TestWritePrometheusFormat(t *testing.T) {
	Reset()
	defer Reset()
	RecordCompress(4096, 1024, 123456)
	EngineCompressSerial.Inc()
	BlocksConstant.Add(5)
	BlocksNonConstant.Add(11)
	ReqLenBits.Observe(22)
	LeadCodes[2].Add(100)
	EncodePhaseDurations.Observe(2_000_000)
	ServiceRequestsCompress.Inc()
	ServiceRejectedQueueFull.Add(3)
	ServiceInFlight.Set(7)
	ServiceQueueWaits.Observe(5_000)

	var sb strings.Builder
	if err := WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()

	for _, want := range []string{
		`szx_blocks_total{type="constant"} 5`,
		`szx_blocks_total{type="nonconstant"} 11`,
		`szx_engine_selected_total{op="compress",engine="serial"} 1`,
		`szx_reqlen_blocks_total{bits="22"} 1`,
		`szx_lead_code_values_total{code="2"} 100`,
		`szx_compress_duration_seconds_count 1`,
		`# TYPE szx_compress_duration_seconds histogram`,
		`szx_parallel_encode_phase_seconds_bucket{le="+Inf"} 1`,
		`szx_service_requests_total{endpoint="compress"} 1`,
		`szx_service_rejected_total{reason="queue_full"} 3`,
		`# TYPE szx_service_in_flight gauge`,
		`szx_service_in_flight 7`,
		`szx_service_queue_wait_seconds_count 1`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q", want)
		}
	}

	seenHelp := map[string]bool{}
	for _, line := range strings.Split(strings.TrimSuffix(out, "\n"), "\n") {
		if strings.HasPrefix(line, "# HELP ") || strings.HasPrefix(line, "# TYPE ") {
			f := strings.Fields(line)
			if len(f) < 3 {
				t.Fatalf("malformed comment line %q", line)
			}
			if strings.HasPrefix(line, "# TYPE ") && seenHelp[f[2]] {
				t.Errorf("duplicate TYPE for %s", f[2])
			}
			if strings.HasPrefix(line, "# TYPE ") {
				seenHelp[f[2]] = true
			}
			continue
		}
		if !promLine.MatchString(line) {
			t.Errorf("line fails exposition grammar: %q", line)
		}
	}
}

func TestGauge(t *testing.T) {
	Reset()
	defer Reset()
	var g Gauge
	g.Inc()
	g.Inc()
	g.Dec()
	if got := g.Load(); got != 1 {
		t.Fatalf("gauge after inc/inc/dec: %d", got)
	}
	g.Add(-5)
	if got := g.Load(); got != -4 {
		t.Fatalf("gauge after Add(-5): %d", got)
	}
	g.Set(42)
	if got := g.Load(); got != 42 {
		t.Fatalf("gauge after Set: %d", got)
	}
	// Registry-driven Reset clears gauges too.
	ServiceQueueDepth.Set(9)
	Reset()
	if got := ServiceQueueDepth.Load(); got != 0 {
		t.Fatalf("gauge after Reset: %d", got)
	}
}

func TestPromHistogramCumulative(t *testing.T) {
	Reset()
	defer Reset()
	for _, v := range []int64{1, 10, 100, 1000, 1_000_000} {
		CompressDurations.Observe(v)
	}
	var sb strings.Builder
	if err := WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	last := int64(-1)
	n := 0
	for _, line := range strings.Split(sb.String(), "\n") {
		if !strings.HasPrefix(line, "szx_compress_duration_seconds_bucket") {
			continue
		}
		c, err := strconv.ParseInt(line[strings.LastIndexByte(line, ' ')+1:], 10, 64)
		if err != nil {
			t.Fatalf("parse %q: %v", line, err)
		}
		if c < last {
			t.Fatalf("bucket counts not cumulative at %q", line)
		}
		last = c
		n++
	}
	if n < 3 {
		t.Fatalf("expected several bucket lines, got %d", n)
	}
	if last != 5 {
		t.Fatalf("+Inf bucket = %d, want 5", last)
	}
}

func TestDebugHandlerServesMetricsAndVars(t *testing.T) {
	Reset()
	defer Reset()
	BlocksConstant.Add(9)
	h := DebugHandler()

	rr := httptest.NewRecorder()
	h.ServeHTTP(rr, httptest.NewRequest("GET", "/metrics", nil))
	if rr.Code != 200 || !strings.Contains(rr.Body.String(), `szx_blocks_total{type="constant"} 9`) {
		t.Fatalf("/metrics: code=%d body=%.200s", rr.Code, rr.Body.String())
	}

	rr = httptest.NewRecorder()
	h.ServeHTTP(rr, httptest.NewRequest("GET", "/debug/vars", nil))
	if rr.Code != 200 || !strings.Contains(rr.Body.String(), `"szx"`) {
		t.Fatalf("/debug/vars: code=%d", rr.Code)
	}

	rr = httptest.NewRecorder()
	h.ServeHTTP(rr, httptest.NewRequest("GET", "/debug/pprof/", nil))
	if rr.Code != 200 {
		t.Fatalf("/debug/pprof/: code=%d", rr.Code)
	}
}

func BenchmarkEnabledCheck(b *testing.B) {
	// The disabled-path cost every instrumented call pays: one atomic load.
	for i := 0; i < b.N; i++ {
		if Enabled() {
			b.Fatal("unexpectedly enabled")
		}
	}
}

func BenchmarkCounterAdd(b *testing.B) {
	var c Counter
	for i := 0; i < b.N; i++ {
		c.Add(1)
	}
}

func BenchmarkHistogramObserve(b *testing.B) {
	var h Histogram
	for i := 0; i < b.N; i++ {
		h.Observe(int64(i))
	}
}

func TestKernelDispatchAndInvocations(t *testing.T) {
	Reset()
	SetKernelDispatch("avx2", "avx2 (cpu feature detection)")
	if KernelDispatchAVX2.Load() != 1 || KernelDispatchGeneric.Load() != 0 {
		t.Fatal("dispatch gauges wrong for avx2")
	}
	if KernelDispatchDetail() != "avx2 (cpu feature detection)" {
		t.Fatalf("detail = %q", KernelDispatchDetail())
	}
	SetKernelDispatch("generic", "generic (SZX_KERNELS=generic)")
	if KernelDispatchAVX2.Load() != 0 || KernelDispatchGeneric.Load() != 1 {
		t.Fatal("dispatch gauges wrong for generic")
	}

	// Flush derives the invocation counters from the block counts: stats
	// once per block, encode_scan once per truncation attempt.
	tally := BlockTally{Constant: 3, NonConstant: 7, Retries: 2}
	tally.Flush()
	if got := KernelStatsCalls.Load(); got != 10 {
		t.Fatalf("stats invocations = %d, want 10", got)
	}
	if got := KernelEncodeScanCalls.Load(); got != 9 {
		t.Fatalf("encode_scan invocations = %d, want 9", got)
	}
	KernelDecodeScanCalls.Add(5)

	var sb strings.Builder
	if err := WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	text := sb.String()
	for _, want := range []string{
		`szx_kernel_dispatched{impl="generic"} 1`,
		`szx_kernel_dispatched{impl="avx2"} 0`,
		`szx_kernel_invocations_total{kernel="stats"} 10`,
		`szx_kernel_invocations_total{kernel="encode_scan"} 9`,
		`szx_kernel_invocations_total{kernel="decode_scan"} 5`,
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("exposition missing %q", want)
		}
	}
	if snap := Snap(); snap.Series[`szx_kernel_invocations_total{kernel="stats"}`] != 10 ||
		snap.Series[`szx_kernel_invocations_total{kernel="decode_scan"}`] != 5 ||
		snap.Build.Kernels != "generic (SZX_KERNELS=generic)" {
		t.Fatalf("snapshot kernels wrong: %+v %+v", snap.Series, snap.Build)
	}

	// Reset clears the invocation counters but re-asserts the dispatch
	// gauges: the info family must keep naming the active set.
	Reset()
	if KernelStatsCalls.Load() != 0 || KernelDecodeScanCalls.Load() != 0 {
		t.Fatal("Reset did not zero kernel counters")
	}
	if KernelDispatchGeneric.Load() != 1 || KernelDispatchAVX2.Load() != 0 {
		t.Fatal("Reset lost the dispatch decision")
	}
}
