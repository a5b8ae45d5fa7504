package safedim

import (
	"math"
	"testing"
)

func TestProduct(t *testing.T) {
	cases := []struct {
		dims []int
		want int
		ok   bool
	}{
		{nil, 1, true},
		{[]int{7}, 7, true},
		{[]int{3, 4}, 12, true},
		{[]int{128, 256, 512}, 128 * 256 * 512, true},
		{[]int{0, 1 << 62}, 0, true},
		{[]int{1 << 62, 0}, 0, true},
		{[]int{-1, 4}, 0, false},
		{[]int{4, -1}, 0, false},
		{[]int{1 << 32, 1 << 32}, 0, false},
		{[]int{math.MaxInt, 2}, 0, false},
		{[]int{math.MaxInt, 1}, math.MaxInt, true},
		// The classic corrupt-header shape: three dims that each pass a
		// per-dimension bound but whose product wraps.
		{[]int{1 << 28, 1 << 28, 1 << 28}, 0, false},
	}
	for _, c := range cases {
		got, ok := Product(c.dims...)
		if got != c.want || ok != c.ok {
			t.Errorf("Product(%v) = (%d, %v), want (%d, %v)", c.dims, got, ok, c.want, c.ok)
		}
	}
}

func TestMustProduct(t *testing.T) {
	if got := MustProduct(6, 7); got != 42 {
		t.Fatalf("MustProduct(6,7) = %d, want 42", got)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("MustProduct did not panic on overflow")
		}
	}()
	MustProduct(1<<32, 1<<32)
}

func TestField(t *testing.T) {
	two := [][]float32{make([]float32, 6), make([]float32, 6)}
	if n, err := Field([]int{3, 2}, two, 2); err != nil || n != 6 {
		t.Errorf("Field(3x2, 2 comps) = %d, %v", n, err)
	}
	if n, err := Field([]int{3, 2, 1}, two[:1], 1); err != nil || n != 6 {
		t.Errorf("Field(3x2x1, 1 comp) = %d, %v", n, err)
	}
	for _, c := range []struct {
		name  string
		dims  []int
		comps [][]float32
		ncomp int
	}{
		{"1 dim", []int{6}, two[:1], 1},
		{"4 dims", []int{3, 2, 1, 1}, two, 2},
		{"component count", []int{3, 2}, two[:1], 2},
		{"zero extent", []int{0, 2}, [][]float32{nil, nil}, 2},
		{"negative extent", []int{-3, -2}, two, 2},
		{"overflow", []int{1 << 40, 1 << 40}, two, 2},
		{"length", []int{3, 3}, two, 2},
	} {
		if _, err := Field(c.dims, c.comps, c.ncomp); err == nil {
			t.Errorf("%s: want an error", c.name)
		}
	}
}
