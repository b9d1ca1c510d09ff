package service

import (
	"bytes"
	"testing"
)

// TestScratchSizeClasses pins the size-class routing: a small request after
// a big one must not inherit the big request's buffers. Pre-class pooling
// had exactly this failure — one 8 MiB body grew the (single) pool's
// scratch, and every later 4 KiB request leased an 8 MiB working set.
func TestScratchSizeClasses(t *testing.T) {
	big := make([]byte, 8<<20)
	sc := getScratch(int64(len(big)))
	if sc.class != classForSize(8<<20) {
		t.Fatalf("8 MiB hint routed to class %d, want %d", sc.class, classForSize(8<<20))
	}
	if _, err := sc.readBody(bytes.NewReader(big), 1<<30); err != nil {
		t.Fatal(err)
	}
	putScratch(sc)

	// A small-hint lease must come from the small pool, and whatever it
	// gets must carry small buffers: the 8 MiB scratch re-classed itself on
	// release and is unreachable from here.
	small := make([]byte, 16<<10)
	for i := 0; i < 8; i++ {
		sc := getScratch(int64(len(small)))
		if got, want := sc.class, classForSize(16<<10); got != want {
			t.Fatalf("16 KiB hint routed to class %d, want %d", got, want)
		}
		if cap(sc.raw) > scratchClassSizes[sc.class] {
			t.Fatalf("small-class scratch carries a %d-byte body buffer (class cap %d)",
				cap(sc.raw), scratchClassSizes[sc.class])
		}
		if _, err := sc.readBody(bytes.NewReader(small), 1<<30); err != nil {
			t.Fatal(err)
		}
		if cap(sc.raw) > scratchClassSizes[sc.class] {
			t.Fatalf("16 KiB body grew the buffer to %d bytes (class cap %d)",
				cap(sc.raw), scratchClassSizes[sc.class])
		}
		putScratch(sc)
	}
}

// TestScratchReclassOnRelease: a scratch whose body outran its class (no or
// lying Content-Length) migrates to the class its buffers now fit on
// release, instead of returning fat to the small pool.
func TestScratchReclassOnRelease(t *testing.T) {
	sc := getScratch(0) // unknown length: middle class
	if got, want := sc.class, classForSize(64<<10); got != want {
		t.Fatalf("unknown length routed to class %d, want %d", got, want)
	}
	body := make([]byte, 3<<20) // outruns the 64 KiB class
	if _, err := sc.readBody(bytes.NewReader(body), 1<<30); err != nil {
		t.Fatal(err)
	}
	putScratch(sc)
	if got, want := sc.class, classForSize(int64(cap(sc.raw))); got != want {
		t.Fatalf("released scratch classed %d, want %d for its %d-byte buffer",
			got, want, cap(sc.raw))
	}
	if sc.class < 2 {
		t.Fatalf("3 MiB buffer re-classed into small class %d", sc.class)
	}
}

// TestScratchKeepsLeaseClass: a scratch whose value and output buffers
// outgrew its class while its body buffer did not (a decompress, or the
// streaming decompress endpoint, which reads no body into the scratch)
// returns to the class it was leased from.
func TestScratchKeepsLeaseClass(t *testing.T) {
	for _, size := range scratchClassSizes {
		sc := getScratch(int64(size))
		leased := sc.class
		sc.raw = nil
		sc.f32 = resize(sc.f32, 2*size/4)
		sc.out = resize(sc.out, 2*size)
		putScratch(sc)
		if sc.class != leased {
			t.Errorf("%d-byte lease: scratch with a %d-byte output returned to class %d, want %d",
				size, cap(sc.out), sc.class, leased)
		}
	}
}

// TestScratchClassBoundaries: a body at a class size, one byte under or
// one byte over returns its scratch to the class it was leased from. A
// body that exactly fills its buffer must not grow it past the class while
// probing for EOF.
func TestScratchClassBoundaries(t *testing.T) {
	for _, size := range scratchClassSizes {
		for _, n := range []int{size - 1, size, size + 1} {
			sc := getScratch(int64(n))
			leased := sc.class
			body, err := sc.readBody(bytes.NewReader(make([]byte, n)), 1<<30)
			if err != nil || len(body) != n {
				t.Fatalf("%d-byte body: read %d bytes, err %v", n, len(body), err)
			}
			putScratch(sc)
			if sc.class != leased {
				t.Errorf("%d-byte body: scratch leased from class %d returned to class %d (buffer cap %d)",
					n, leased, sc.class, cap(sc.raw))
			}
		}
	}
}

// TestClassForSize pins the boundaries.
func TestClassForSize(t *testing.T) {
	for _, tc := range []struct {
		n    int64
		want int
	}{
		{0, 0}, {1, 0}, {4 << 10, 0}, {4<<10 + 1, 1},
		{64 << 10, 1}, {64<<10 + 1, 2}, {1 << 20, 2}, {1<<20 + 1, 3},
		{8 << 20, 3}, {8<<20 + 1, scratchOverflow}, {1 << 30, scratchOverflow},
	} {
		if got := classForSize(tc.n); got != tc.want {
			t.Errorf("classForSize(%d) = %d, want %d", tc.n, got, tc.want)
		}
	}
}
