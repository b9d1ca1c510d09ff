package szx

import (
	"encoding/hex"
	"math"
	"math/rand"
	"testing"
)

// evolveFrames builds a slowly evolving field sequence.
func evolveFrames(n, frames int, seed int64) [][]float32 {
	rng := rand.New(rand.NewSource(seed))
	out := make([][]float32, frames)
	cur := make([]float32, n)
	for i := range cur {
		cur[i] = float32(math.Sin(float64(i) / 80))
	}
	for f := 0; f < frames; f++ {
		snap := make([]float32, n)
		copy(snap, cur)
		out[f] = snap
		for i := range cur {
			cur[i] += float32(1e-3*math.Cos(float64(i)/50+float64(f)/3) +
				1e-4*rng.NormFloat64())
		}
	}
	return out
}

func TestTimeSeriesRoundTrip(t *testing.T) {
	frames := evolveFrames(50000, 8, 1)
	const e = 1e-4
	tc, err := NewTimeCompressor(Options{ErrorBound: e})
	if err != nil {
		t.Fatal(err)
	}
	td := NewTimeDecompressor()
	for f, frame := range frames {
		comp, err := tc.CompressFrame(frame)
		if err != nil {
			t.Fatalf("frame %d: %v", f, err)
		}
		dec, err := td.DecompressFrame(comp)
		if err != nil {
			t.Fatalf("frame %d: %v", f, err)
		}
		for i := range frame {
			if math.Abs(float64(frame[i])-float64(dec[i])) > e {
				t.Fatalf("frame %d value %d exceeds bound (no accumulation allowed)", f, i)
			}
		}
	}
}

// TestTimeFrameGoldenHash pins TimeCompressor's bytes with a literal hash
// over its concatenated frames: one plain SZx keyframe, then delta frames.
func TestTimeFrameGoldenHash(t *testing.T) {
	const golden = "fbd0ab44ea060ca8125906160beb6c3cae0b593f757aaafdc698953bc70e7309"
	tc, err := NewTimeCompressor(Options{ErrorBound: 1e-4})
	if err != nil {
		t.Fatal(err)
	}
	var all []byte
	for f, frame := range evolveFrames(20000, 6, 7) {
		comp, err := tc.CompressFrame(frame)
		if err != nil {
			t.Fatalf("frame %d: %v", f, err)
		}
		if f > 0 && comp[0] != frameDelta {
			t.Errorf("frame %d: kind %#x, want a delta frame (%#x)", f, comp[0], frameDelta)
		}
		all = append(all, comp...)
	}
	if got := hex.EncodeToString(sumOf(all)); got != golden {
		t.Fatalf("temporal frame hash drifted: %s (%d bytes)", got, len(all))
	}
}

func TestTimeSeriesBeatsSpatial(t *testing.T) {
	frames := evolveFrames(100000, 6, 2)
	const e = 1e-4
	tc, _ := NewTimeCompressor(Options{ErrorBound: e})
	var temporal, spatial int
	for _, frame := range frames {
		comp, err := tc.CompressFrame(frame)
		if err != nil {
			t.Fatal(err)
		}
		temporal += len(comp)
		solo, err := Compress(frame, Options{ErrorBound: e})
		if err != nil {
			t.Fatal(err)
		}
		spatial += len(solo)
	}
	if temporal >= spatial {
		t.Errorf("temporal %d B not smaller than per-frame %d B on slowly evolving data",
			temporal, spatial)
	}
}

func TestTimeSeriesFrameShape(t *testing.T) {
	tc, _ := NewTimeCompressor(Options{ErrorBound: 1e-3})
	if _, err := tc.CompressFrame(make([]float32, 100)); err != nil {
		t.Fatal(err)
	}
	if _, err := tc.CompressFrame(make([]float32, 99)); err != ErrFrameShape {
		t.Errorf("got %v", err)
	}
}

func TestTimeSeriesRejectsRelativeMode(t *testing.T) {
	if _, err := NewTimeCompressor(Options{ErrorBound: 1e-3, Mode: BoundRelative}); err == nil {
		t.Error("relative mode accepted")
	}
}

func TestTimeDecompressorCorrupt(t *testing.T) {
	td := NewTimeDecompressor()
	if _, err := td.DecompressFrame([]byte("garbage")); err == nil {
		t.Error("garbage first frame accepted")
	}
	// Prime with a valid frame, then feed bad tags.
	tc, _ := NewTimeCompressor(Options{ErrorBound: 1e-3})
	first, _ := tc.CompressFrame(make([]float32, 256))
	if _, err := td.DecompressFrame(first); err != nil {
		t.Fatal(err)
	}
	if _, err := td.DecompressFrame([]byte{}); err == nil {
		t.Error("empty frame accepted")
	}
	if _, err := td.DecompressFrame([]byte{0x99, 1, 2}); err == nil {
		t.Error("bad tag accepted")
	}
}
