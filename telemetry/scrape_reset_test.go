package telemetry

import (
	"bytes"
	"regexp"
	"strings"
	"sync"
	"testing"
)

// expositionLine matches one valid Prometheus 0.0.4 text-format sample.
var expositionLine = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^}]*\})? [-+0-9.eE]+(Inf)?$`)

// TestScrapeDuringReset pins the fix for a torn exposition page: Reset
// zeroes the registry value by value, so a concurrent scrape used to be
// able to observe impossible intermediate states — most visibly the kernel
// dispatch pair with NEITHER series set to 1, mid-way between the clear
// and the re-assert. With Reset and WritePrometheus serialized on
// scrapeMu, every page is internally consistent. Run under -race.
func TestScrapeDuringReset(t *testing.T) {
	SetKernelDispatch("generic", "generic (test)")
	defer Reset()

	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
				ServiceRequestsCompress.Inc()
				ServiceQueueWaits.Observe(1000)
				Reset()
			}
		}
	}()

	for i := 0; i < 300; i++ {
		var b bytes.Buffer
		if err := WritePrometheus(&b); err != nil {
			t.Fatalf("scrape %d: %v", i, err)
		}
		var generic, avx2 string
		for _, line := range strings.Split(strings.TrimRight(b.String(), "\n"), "\n") {
			if strings.HasPrefix(line, "#") {
				continue
			}
			if !expositionLine.MatchString(line) {
				t.Fatalf("scrape %d: malformed exposition line %q", i, line)
			}
			switch {
			case strings.HasPrefix(line, `szx_kernel_dispatched{impl="generic"} `):
				generic = line[len(`szx_kernel_dispatched{impl="generic"} `):]
			case strings.HasPrefix(line, `szx_kernel_dispatched{impl="avx2"} `):
				avx2 = line[len(`szx_kernel_dispatched{impl="avx2"} `):]
			}
		}
		if generic == "" || avx2 == "" {
			t.Fatalf("scrape %d: kernel dispatch series missing", i)
		}
		// Exactly one implementation set is ever active; a page with both
		// zero is the torn state this test exists to catch.
		if !(generic == "1" && avx2 == "0") {
			t.Fatalf("scrape %d: torn page: generic=%s avx2=%s", i, generic, avx2)
		}
	}
	close(stop)
	wg.Wait()
}

// TestSnapDuringReset gives the struct-snapshot path the same treatment.
func TestSnapDuringReset(t *testing.T) {
	SetKernelDispatch("generic", "generic (test)")
	defer Reset()

	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
				Reset()
			}
		}
	}()
	for i := 0; i < 300; i++ {
		s := Snap()
		if s.Build.Kernels != "generic (test)" {
			t.Fatalf("snap %d: kernel dispatch detail lost", i)
		}
		if r := Report(); !strings.Contains(r, `{impl="generic"} 1, {impl="avx2"} 0`) {
			t.Fatalf("report %d: torn kernel dispatch line:\n%s", i, r)
		}
	}
	close(stop)
	wg.Wait()
}

func TestBuildInfoInScrape(t *testing.T) {
	var b bytes.Buffer
	if err := WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	page := b.String()
	if !strings.Contains(page, "# TYPE szx_build_info gauge") {
		t.Fatal("szx_build_info TYPE line missing")
	}
	var line string
	for _, l := range strings.Split(page, "\n") {
		if strings.HasPrefix(l, "szx_build_info{") {
			line = l
			break
		}
	}
	if line == "" {
		t.Fatalf("szx_build_info sample missing:\n%s", page[:min(len(page), 400)])
	}
	if !strings.HasSuffix(line, "} 1") {
		t.Fatalf("szx_build_info must be a constant-1 gauge: %q", line)
	}
	for _, label := range []string{"version=", "goversion=", "kernels="} {
		if !strings.Contains(line, label) {
			t.Fatalf("szx_build_info missing %s label: %q", label, line)
		}
	}
}

func TestBuildInfoSnapshotAndReport(t *testing.T) {
	bi := GetBuildInfo()
	if bi.Module == "" || bi.GoVersion == "" || bi.Kernels == "" {
		t.Fatalf("incomplete build info: %+v", bi)
	}
	s := Snap()
	if s.Build.GoVersion != bi.GoVersion {
		t.Fatalf("Snap build info = %+v, want %+v", s.Build, bi)
	}
	if !strings.Contains(Report(), "build:") {
		t.Fatal("Report() missing build line")
	}
}

func TestHistogramExemplar(t *testing.T) {
	var h Histogram
	h.ObserveExemplar(100, "aaaa")
	h.ObserveExemplar(500, "bbbb")
	h.ObserveExemplar(200, "cccc") // below max: exemplar must not move
	s := h.Snapshot()
	if s.Count != 3 {
		t.Fatalf("count = %d", s.Count)
	}
	if s.Max != 500 || s.MaxTraceID != "bbbb" {
		t.Fatalf("max exemplar = (%d, %q), want (500, bbbb)", s.Max, s.MaxTraceID)
	}
	h.ObserveExemplar(500, "dddd") // ties update: latest max observation wins
	if s := h.Snapshot(); s.MaxTraceID != "dddd" {
		t.Fatalf("tie exemplar = %q, want dddd", s.MaxTraceID)
	}
	h.Observe(9000) // plain Observe moves max without an exemplar claim
	if s := h.Snapshot(); s.Max != 500 {
		// Max tracks exemplared observations only; plain Observe does not
		// race the CAS loop.
		t.Fatalf("plain Observe moved exemplar max: %d", s.Max)
	}
	h.reset()
	if s := h.Snapshot(); s.Max != 0 || s.MaxTraceID != "" {
		t.Fatalf("reset left exemplar state: %+v", s)
	}
}
