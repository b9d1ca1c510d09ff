package telemetry

import (
	"encoding/json"
	"maps"
	"math"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
)

// TestEverySeriesOnEverySurface walks the registry, gives every counter and
// gauge a distinct non-zero value, observes every histogram, registers a
// cluster node and a reqLen bucket, and checks that each series reads the
// same on the Prometheus page, in Snap, in Report and under /debug/vars. A
// row added to the registry later is covered with no edit here.
func TestEverySeriesOnEverySurface(t *testing.T) {
	Reset()
	defer Reset()
	// Reset leaves the info-style dispatch gauges alone; put every gauge
	// back as it was (deferred calls run before the Reset above).
	for i := range registry {
		if g := registry[i].g; g != nil {
			defer g.Set(g.Load())
		}
	}

	type series struct {
		name, labels string
		v            int64
	}
	var want []series
	var hists []*metric
	for i := range registry {
		m := &registry[i]
		v := int64(1000 + 17*i)
		switch {
		case m.c != nil:
			m.c.Add(v)
		case m.g != nil:
			m.g.Set(v)
		case m.h != nil:
			m.h.Observe(v)
			m.h.Observe(3 * v)
			hists = append(hists, m)
			continue
		default:
			continue
		}
		want = append(want, series{m.name, m.labels, v})
	}
	ReqLenBits.Observe(17)
	ClusterNodeRequests("10.0.0.1:7070").Add(42)
	for i := range registry {
		m := &registry[i]
		if m.series == nil {
			continue
		}
		n := len(want)
		for labels, v := range m.series {
			want = append(want, series{m.name, labels, v})
		}
		if len(want) == n {
			t.Fatalf("dynamic family %s yields no series", m.name)
		}
	}
	wantSeries := make(map[string]int64, len(want))
	for _, s := range want {
		wantSeries[s.name+s.labels] = s.v
	}
	if wantSeries[`szx_reqlen_blocks_total{bits="17"}`] != 1 ||
		wantSeries[`szx_cluster_node_requests_total{node="10.0.0.1:7070"}`] != 42 {
		t.Fatalf("dynamic families lost the registered values: %v", wantSeries)
	}
	// Each histogram saw v and 3v: count 2, raw sum 4v.
	histSum := func(m *metric) float64 { return float64(m.h.sum.Load()) * m.scale }
	near := func(got string, want float64) bool {
		f, err := strconv.ParseFloat(got, 64)
		return err == nil && math.Abs(f-want) <= 1e-3*math.Abs(want)
	}

	// Prometheus: every series line, and each histogram's _count and _sum.
	var sb strings.Builder
	if err := WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	page := map[string]string{}
	for _, line := range strings.Split(strings.TrimSuffix(sb.String(), "\n"), "\n") {
		if !strings.HasPrefix(line, "#") {
			i := strings.LastIndexByte(line, ' ')
			page[line[:i]] = line[i+1:]
		}
	}
	for key, v := range wantSeries {
		if got := page[key]; got != strconv.FormatInt(v, 10) {
			t.Errorf("prometheus %s = %q, want %d", key, got, v)
		}
	}
	for _, m := range hists {
		if got := page[m.name+"_count"]; got != "2" {
			t.Errorf("prometheus %s_count = %q, want 2", m.name, got)
		}
		if got := page[m.name+"_sum"]; !near(got, histSum(m)) {
			t.Errorf("prometheus %s_sum = %q, want %g", m.name, got, histSum(m))
		}
	}

	// Snap: exactly the series above, and every histogram family.
	snap := Snap()
	if !maps.Equal(snap.Series, wantSeries) {
		t.Errorf("Snap().Series = %v\nwant %v", snap.Series, wantSeries)
	}
	if len(snap.Histograms) != len(hists) {
		t.Errorf("Snap().Histograms has %d families, want %d", len(snap.Histograms), len(hists))
	}
	for _, m := range hists {
		h := snap.Histograms[m.name]
		if h.Count != 2 || float64(h.Sum)*m.scale != histSum(m) {
			t.Errorf("Snap().Histograms[%s] = count %d, scaled sum %g; want 2, %g",
				m.name, h.Count, float64(h.Sum)*m.scale, histSum(m))
		}
	}

	// Report: one line per family, holding every series of the family.
	lines := map[string]string{}
	for _, line := range strings.Split(Report(), "\n") {
		if f := strings.Fields(line); len(f) > 1 && strings.HasPrefix(f[0], "szx_") {
			lines[f[0]] = strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(line), f[0]))
		}
	}
	for _, s := range want {
		item := strings.TrimSpace(s.labels + " " + strconv.FormatInt(s.v, 10))
		if rest := lines[s.name]; !strings.Contains(", "+rest+", ", ", "+item+", ") {
			t.Errorf("Report line for %s = %q, want it to hold %q", s.name, rest, item)
		}
	}
	for _, m := range hists {
		rest := lines[m.name]
		mean, ok := strings.CutPrefix(rest, "count 2, mean ")
		if !ok || !near(mean, histSum(m)/2) {
			t.Errorf("Report line for %s = %q, want count 2, mean %g", m.name, rest, histSum(m)/2)
		}
	}

	// expvar: /debug/vars carries the same keys and values under "szx".
	rr := httptest.NewRecorder()
	DebugHandler().ServeHTTP(rr, httptest.NewRequest("GET", "/debug/vars", nil))
	var vars struct {
		Szx Snapshot `json:"szx"`
	}
	if err := json.Unmarshal(rr.Body.Bytes(), &vars); err != nil {
		t.Fatalf("/debug/vars: %v", err)
	}
	if !maps.Equal(vars.Szx.Series, wantSeries) {
		t.Errorf("/debug/vars series = %v\nwant %v", vars.Szx.Series, wantSeries)
	}
	for _, m := range hists {
		if h, ok := vars.Szx.Histograms[m.name]; !ok || h.Count != 2 {
			t.Errorf("/debug/vars histogram %s = %+v (present %v), want count 2", m.name, h, ok)
		}
	}
}
