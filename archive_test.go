package szx

import (
	"encoding/binary"
	"errors"
	"math"
	"runtime"
	"testing"
)

func buildArchive(t *testing.T) ([]byte, map[string][]float32) {
	t.Helper()
	aw := NewArchiveWriter(Options{ErrorBound: 1e-3})
	fields := map[string][]float32{
		"pressure":   testField(10000, 21),
		"density":    testField(10000, 22),
		"velocity-x": testField(5000, 23),
	}
	if err := aw.AddField("pressure", []int{100, 100}, fields["pressure"]); err != nil {
		t.Fatal(err)
	}
	if err := aw.AddField("density", []int{10, 10, 100}, fields["density"]); err != nil {
		t.Fatal(err)
	}
	if err := aw.AddField("velocity-x", []int{5000}, fields["velocity-x"]); err != nil {
		t.Fatal(err)
	}
	if aw.NumFields() != 3 {
		t.Fatalf("NumFields = %d", aw.NumFields())
	}
	return aw.Bytes(), fields
}

func TestArchiveRoundTrip(t *testing.T) {
	blob, fields := buildArchive(t)
	a, err := OpenArchive(blob)
	if err != nil {
		t.Fatal(err)
	}
	infos := a.Fields()
	if len(infos) != 3 {
		t.Fatalf("fields %d", len(infos))
	}
	// Name-sorted listing.
	if infos[0].Name != "density" || infos[2].Name != "velocity-x" {
		t.Errorf("order: %v %v %v", infos[0].Name, infos[1].Name, infos[2].Name)
	}
	for name, orig := range fields {
		vals, dims, err := a.Read(name)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(vals) != len(orig) {
			t.Fatalf("%s: %d values", name, len(vals))
		}
		p := 1
		for _, d := range dims {
			p *= d
		}
		if p != len(orig) {
			t.Fatalf("%s: dims %v", name, dims)
		}
		for i := range orig {
			if math.Abs(float64(orig[i])-float64(vals[i])) > 1e-3 {
				t.Fatalf("%s: value %d exceeds bound", name, i)
			}
		}
	}
	// Metadata carries the resolved bound.
	for _, inf := range infos {
		if inf.ErrBound != 1e-3 {
			t.Errorf("%s: ErrBound %g", inf.Name, inf.ErrBound)
		}
		if inf.CompressedSize <= 0 || inf.NumValues <= 0 {
			t.Errorf("%s: %+v", inf.Name, inf)
		}
	}
}

func TestArchiveReadRange(t *testing.T) {
	blob, fields := buildArchive(t)
	a, err := OpenArchive(blob)
	if err != nil {
		t.Fatal(err)
	}
	full, _, err := a.Read("pressure")
	if err != nil {
		t.Fatal(err)
	}
	part, err := a.ReadRange("pressure", 500, 900)
	if err != nil {
		t.Fatal(err)
	}
	for i := range part {
		if part[i] != full[500+i] {
			t.Fatalf("range value %d differs", i)
		}
	}
	_ = fields
	if _, err := a.ReadRange("nope", 0, 1); err != ErrFieldNotFound {
		t.Errorf("got %v", err)
	}
}

func TestArchiveWriterErrors(t *testing.T) {
	aw := NewArchiveWriter(Options{ErrorBound: 1e-3})
	data := testField(100, 1)
	if err := aw.AddField("", []int{100}, data); err == nil {
		t.Error("empty name accepted")
	}
	if err := aw.AddField("x", []int{99}, data); err != ErrFieldDims {
		t.Errorf("bad dims: %v", err)
	}
	if err := aw.AddField("x", nil, data); err != ErrFieldDims {
		t.Errorf("nil dims: %v", err)
	}
	// OpenArchive rejects more than 8 dims, so the writer must too.
	if err := aw.AddField("x", []int{100, 1, 1, 1, 1, 1, 1, 1, 1}, data); err != ErrFieldDims {
		t.Errorf("9 dims: %v", err)
	}
	if err := aw.AddField("x", []int{100}, data); err != nil {
		t.Fatal(err)
	}
	if err := aw.AddField("x", []int{100}, data); err != ErrFieldExists {
		t.Errorf("duplicate: %v", err)
	}
	if err := aw.AddField("y", []int{100}, data); err != nil {
		t.Fatal(err)
	}
}

// forgedArchives returns single-field archives whose TOC lies about the
// payload: a payload length that overflows the read offset, and dims whose
// product overflows over a valid 16-value payload.
func forgedArchives(tb testing.TB) [][]byte {
	tb.Helper()
	payload, err := Compress(testField(16, 1), Options{ErrorBound: 1e-3})
	if err != nil {
		tb.Fatal(err)
	}
	forge := func(dims []uint64, plen uint64, payload []byte) []byte {
		b := append([]byte(archiveMagic), archiveVersion)
		b = binary.LittleEndian.AppendUint32(b, 1)
		b = binary.LittleEndian.AppendUint16(b, 1)
		b = append(b, 'x', byte(len(dims)))
		for _, d := range dims {
			b = binary.LittleEndian.AppendUint64(b, d)
		}
		b = binary.LittleEndian.AppendUint64(b, plen)
		return append(b, payload...)
	}
	return [][]byte{
		forge([]uint64{4, 4}, math.MaxInt64, nil),
		forge([]uint64{1 << 40, 1 << 40}, uint64(len(payload)), payload),
	}
}

func TestArchiveCorrupt(t *testing.T) {
	for i, forged := range forgedArchives(t) {
		if _, err := OpenArchive(forged); !errors.Is(err, ErrArchive) {
			t.Errorf("forged archive %d: err = %v, want ErrArchive", i, err)
		}
	}
	blob, _ := buildArchive(t)
	if _, err := OpenArchive(blob[:4]); err == nil {
		t.Error("short archive accepted")
	}
	if _, err := OpenArchive([]byte("XXXX\x01\x00\x00\x00\x00")); err == nil {
		t.Error("bad magic accepted")
	}
	if _, err := OpenArchive(blob[:len(blob)-10]); err == nil {
		t.Error("truncated payload accepted")
	}
	for i := 0; i < len(blob); i += 31 {
		c := append([]byte(nil), blob...)
		c[i] ^= 0x80
		_, _ = OpenArchive(c) // must not panic
	}
}

// TestArchiveForgedFieldCount: a header whose field count the data cannot
// hold is rejected before the table of contents is sized by it.
func TestArchiveForgedFieldCount(t *testing.T) {
	for _, blob := range []string{"SZXA\x01\x00\x00\x10\x00", "SZXA\x01\xff\xff\x0f\x00"} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := OpenArchive([]byte(blob))
		runtime.ReadMemStats(&after)
		if !errors.Is(err, ErrArchive) {
			t.Errorf("header %q: err = %v, want ErrArchive", blob, err)
		}
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 {
			t.Errorf("header %q: OpenArchive allocated %d bytes", blob, grew)
		}
	}
}

func TestArchiveMissingField(t *testing.T) {
	blob, _ := buildArchive(t)
	a, err := OpenArchive(blob)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := a.Read("missing"); err != ErrFieldNotFound {
		t.Errorf("got %v", err)
	}
}

func TestArchiveEmpty(t *testing.T) {
	aw := NewArchiveWriter(Options{ErrorBound: 1e-3})
	a, err := OpenArchive(aw.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Fields()) != 0 {
		t.Error("fields in empty archive")
	}
}

func TestArchiveFloat64Fields(t *testing.T) {
	aw := NewArchiveWriter(Options{ErrorBound: 1e-8})
	d64 := make([]float64, 5000)
	for i := range d64 {
		d64[i] = math.Sqrt(float64(i + 1))
	}
	if err := aw.AddFieldFloat64("psi", []int{50, 100}, d64); err != nil {
		t.Fatal(err)
	}
	if err := aw.AddField("rho", []int{100}, testField(100, 31)); err != nil {
		t.Fatal(err)
	}
	a, err := OpenArchive(aw.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	for _, inf := range a.Fields() {
		switch inf.Name {
		case "psi":
			if inf.Type != TypeFloat64 {
				t.Errorf("psi type %v", inf.Type)
			}
		case "rho":
			if inf.Type != TypeFloat32 {
				t.Errorf("rho type %v", inf.Type)
			}
		}
	}
	vals, dims, err := a.ReadFloat64("psi")
	if err != nil {
		t.Fatal(err)
	}
	if dims[0] != 50 || len(vals) != 5000 {
		t.Fatalf("dims %v len %d", dims, len(vals))
	}
	for i := range vals {
		if math.Abs(vals[i]-d64[i]) > 1e-8 {
			t.Fatalf("value %d exceeds bound", i)
		}
	}
	// Reading a float64 field as float32 errors cleanly.
	if _, _, err := a.Read("psi"); err == nil {
		t.Error("cross-type read accepted")
	}
	if _, _, err := a.ReadFloat64("rho"); err == nil {
		t.Error("cross-type read accepted")
	}
	if _, _, err := a.ReadFloat64("nope"); err != ErrFieldNotFound {
		t.Errorf("got %v", err)
	}
}

func TestArchiveFloat64Dims(t *testing.T) {
	aw := NewArchiveWriter(Options{ErrorBound: 1e-3})
	if err := aw.AddFieldFloat64("x", []int{3}, make([]float64, 4)); err != ErrFieldDims {
		t.Errorf("got %v", err)
	}
}

// BenchmarkArchiveWriter pins the satellite fix: the archive writer
// reuses one compressed-scratch buffer across fields, so allocations per
// archive stay flat no matter how many fields are added (one exact-size
// payload copy per field, no per-field scratch growth).
func BenchmarkArchiveWriter(b *testing.B) {
	const nFields, nVals = 16, 1 << 14
	data := make([][]float32, nFields)
	for i := range data {
		data[i] = testField(nVals, int64(100+i))
	}
	b.ReportAllocs()
	b.SetBytes(int64(nFields * nVals * 4))
	for b.Loop() {
		aw := NewArchiveWriter(Options{ErrorBound: 1e-3})
		for i, d := range data {
			if err := aw.AddField(names16[i], []int{nVals}, d); err != nil {
				b.Fatal(err)
			}
		}
		if aw.Bytes() == nil {
			b.Fatal("empty archive")
		}
	}
}

var names16 = []string{
	"f00", "f01", "f02", "f03", "f04", "f05", "f06", "f07",
	"f08", "f09", "f10", "f11", "f12", "f13", "f14", "f15",
}
