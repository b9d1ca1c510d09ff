//go:build amd64 && !purego

package kernels

import (
	"bytes"
	"math/rand"
	"testing"
	"unsafe"
)

// TestEncodeWriteBounds pins the vector emit's write bound, the counterpart
// of TestDecodeReadSlack: on every (reqBytes, lead byte) the encode scans
// can stage (codes ≤ min(3, reqBytes)), random staged words emitted into a
// mid exactly reqBytes*n+es long must produce the scalar emit's mid-bytes
// and lead array, and the canary bytes around mid and lead must survive.
func TestEncodeWriteBounds(t *testing.T) {
	if _, ok := Lookup32("avx2"); !ok {
		t.Skip("host cannot run the avx2 kernels")
	}
	t.Run("f32", func(t *testing.T) { writeBoundsCheck(t, emitF32) })
	t.Run("f64", func(t *testing.T) { writeBoundsCheck(t, emitF64) })
}

func writeBoundsCheck[B uint32 | uint64](t *testing.T, emit func(lead, mid []byte, wsh, ldv []B, reqBytes int) int) {
	const canary, pad = 0xA5, 32
	es := int(unsafe.Sizeof(B(0)))
	rng := rand.New(rand.NewSource(4))
	wsh, ldv := make([]B, 128), make([]B, 128)
	intact := func(b []byte) bool { return bytes.Count(b, []byte{canary}) == len(b) }
	for rb := 2; rb <= es; rb++ {
		for key := 0; key < 256; key++ {
			if max(key>>6, key>>4&3, key>>2&3, key&3) > min(3, rb) {
				continue
			}
			for _, n := range []int{4, 5, 7, 128} {
				for i := 0; i < n; i++ {
					wsh[i] = B(rng.Uint64())
					ldv[i] = B(key >> (6 - 2*(i&3)) & 3)
				}
				midLen, leadLen := rb*n+es, (n+3)/4
				wantMid, wantLead := make([]byte, midLen), make([]byte, leadLen)
				want := emitTail(wantLead, wantMid, wsh[:n], ldv[:n], 0, 0, rb)
				mbuf := bytes.Repeat([]byte{canary}, pad+midLen+pad)
				lbuf := bytes.Repeat([]byte{canary}, pad+leadLen+pad)
				mid, lead := mbuf[pad:pad+midLen:pad+midLen], lbuf[pad:pad+leadLen:pad+leadLen]
				got := emit(lead, mid, wsh[:n], ldv[:n], rb)
				if got != want || !bytes.Equal(mid[:got], wantMid[:want]) || !bytes.Equal(lead, wantLead) {
					t.Fatalf("reqBytes %d key %#02x n %d: midLen %d, scalar %d; or mid/lead bytes differ", rb, key, n, got, want)
				}
				if !intact(mbuf[:pad]) || !intact(mbuf[pad+midLen:]) || !intact(lbuf[:pad]) || !intact(lbuf[pad+leadLen:]) {
					t.Fatalf("reqBytes %d key %#02x n %d: wrote outside mid or lead", rb, key, n)
				}
			}
		}
	}
}
