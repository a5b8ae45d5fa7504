package bitstream

import (
	"errors"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestWriteReadRoundTrip(t *testing.T) {
	var w Writer
	w.WriteBits(0b101, 3)
	w.WriteBits(0xFFFF, 16)
	w.WriteBit(1)
	w.WriteBits(42, 7)
	data := w.Bytes()
	r := NewReader(data)
	if v, _ := r.ReadBits(3); v != 0b101 {
		t.Errorf("got %b", v)
	}
	if v, _ := r.ReadBits(16); v != 0xFFFF {
		t.Errorf("got %x", v)
	}
	if v, _ := r.ReadBit(); v != 1 {
		t.Errorf("got %d", v)
	}
	if v, _ := r.ReadBits(7); v != 42 {
		t.Errorf("got %d", v)
	}
}

func TestRandomRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := rng.Intn(200) + 1
		widths := make([]uint, n)
		vals := make([]uint64, n)
		var w Writer
		for i := 0; i < n; i++ {
			widths[i] = uint(rng.Intn(57) + 1)
			vals[i] = rng.Uint64() & ((1 << widths[i]) - 1)
			w.WriteBits(vals[i], widths[i])
		}
		r := NewReader(w.Bytes())
		for i := 0; i < n; i++ {
			v, err := r.ReadBits(widths[i])
			if err != nil || v != vals[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestShortStream(t *testing.T) {
	r := NewReader([]byte{0xFF})
	if _, err := r.ReadBits(16); !errors.Is(err, ErrShortStream) {
		t.Fatalf("expected ErrShortStream, got %v", err)
	}
}

func TestBitLenAndReset(t *testing.T) {
	var w Writer
	w.WriteBits(1, 5)
	if w.BitLen() != 5 {
		t.Errorf("BitLen = %d", w.BitLen())
	}
	w.WriteBits(0, 3)
	if w.Len() != 1 {
		t.Errorf("Len = %d", w.Len())
	}
	w.Reset()
	if w.BitLen() != 0 || len(w.Bytes()) != 0 {
		t.Error("Reset did not clear")
	}
}

func TestWritePanicsOnWideWrite(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	var w Writer
	w.WriteBits(0, 60)
}

func TestPeekSkipAtEndOfStream(t *testing.T) {
	r := NewReader([]byte{0xA5})
	if v, m := r.Peek(11); v != 0xA5 || m != 8 {
		t.Fatalf("Peek(11) = %#x, %d; want 0xa5, 8", v, m)
	}
	if err := r.Skip(3); err != nil {
		t.Fatal(err)
	}
	if v, m := r.Peek(11); v != 0xA5>>3 || m != 5 {
		t.Fatalf("Peek(11) = %#x, %d; want %#x, 5", v, m, 0xA5>>3)
	}
	if err := r.Skip(6); !errors.Is(err, ErrShortStream) {
		t.Fatalf("Skip past the end: %v, want ErrShortStream", err)
	}
	// A failed Skip consumes nothing.
	if v, m := r.Peek(5); v != 0xA5>>3 || m != 5 {
		t.Fatalf("after a failed Skip, Peek(5) = %#x, %d", v, m)
	}
	if err := r.Skip(5); err != nil {
		t.Fatal(err)
	}
	if v, m := r.Peek(11); v != 0 || m != 0 {
		t.Fatalf("Peek at the end = %#x, %d; want 0, 0", v, m)
	}
	if err := r.Skip(1); !errors.Is(err, ErrShortStream) {
		t.Fatalf("Skip at the end: %v, want ErrShortStream", err)
	}
	if _, err := r.ReadBit(); !errors.Is(err, ErrShortStream) {
		t.Fatalf("ReadBit at the end: %v, want ErrShortStream", err)
	}
	if v, m := NewReader(nil).Peek(11); v != 0 || m != 0 {
		t.Fatalf("Peek on an empty stream = %#x, %d", v, m)
	}
}

// TestPeekSkipMatchesReadBits: Peek then Skip of n bits reads what
// ReadBits(n) does, interleaved with ReadBits, to the last bit; a Peek
// wider than the reader holds reports only its real bits.
func TestPeekSkipMatchesReadBits(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for trial := 0; trial < 200; trial++ {
		data := make([]byte, rng.Intn(40))
		rng.Read(data)
		a, b := NewReader(data), NewReader(data)
		left := uint(8 * len(data))
		for left > 0 {
			n := uint(rng.Intn(57) + 1)
			if wide, m := a.Peek(64); m > 64 || m < min(left, 57) || wide&(1<<m-1) != wide {
				t.Fatalf("Peek(64) = %#x, %d with %d bits left", wide, m, left)
			}
			v, m := a.Peek(n)
			if want := min(n, left); m != want {
				t.Fatalf("Peek(%d) real bits %d, want %d", n, m, want)
			}
			if m < n {
				n = m
			}
			want, err := b.ReadBits(n)
			if err != nil || v != want {
				t.Fatalf("Peek(%d) = %#x, ReadBits = %#x (%v)", n, v, want, err)
			}
			if rng.Intn(2) == 0 {
				if err := a.Skip(n); err != nil {
					t.Fatal(err)
				}
			} else if got, err := a.ReadBits(n); err != nil || got != want {
				t.Fatalf("ReadBits after Peek = %#x (%v), want %#x", got, err, want)
			}
			left -= n
		}
		if _, m := a.Peek(1); m != 0 {
			t.Fatalf("%d real bits past the end", m)
		}
	}
}
