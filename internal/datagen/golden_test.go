package datagen

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"runtime"
	"testing"
)

// TestGoldenBytes pins the generators' output: the SHA-256 over the bits of
// every value of AllApps(8, 7) followed by Hurricane(2, 1), the grid the
// perfbench workloads compress. TestDeterminism only compares two runs of
// one build, so without this pin a change to genField's arithmetic order
// would move every input, and every benchmark ratio, silently. It runs on
// amd64 only: other targets may fuse a multiply and an add into one FMA
// where genField's explicit conversions do not rule it out.
func TestGoldenBytes(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("golden datagen bytes are pinned on amd64")
	}
	const golden = "339f3bbeb6ffa8ede0728a3d6df4a495d4ac69d780496af47d2e7cd344ad093e"
	h := sha256.New()
	var buf []byte
	add := func(apps ...App) {
		for _, app := range apps {
			for _, f := range app.Fields {
				buf = buf[:0]
				for _, v := range f.Data {
					buf = binary.LittleEndian.AppendUint32(buf, math.Float32bits(v))
				}
				h.Write(buf)
			}
		}
	}
	add(AllApps(8, 7)...)
	add(Hurricane(2, 1))
	if got := hex.EncodeToString(h.Sum(nil)); got != golden {
		t.Errorf("datagen output hash %s, want %s", got, golden)
	}
}
