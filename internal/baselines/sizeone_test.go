package baselines

import "testing"

// CompressedSizeOne feeds the per-component ratio columns of the paper's
// tables; the single-component size must be plausible relative to the
// full multi-component blob.
func TestCompressedSizeOne(t *testing.T) {
	f2 := smooth2D(70, 32, 24)
	f3 := smooth3D(71, 10)

	t.Run("szlike", func(t *testing.T) {
		sz := SZLike{Abs: 0.01}
		full, err := sz.Compress(dims2(f2), f2.Components())
		if err != nil {
			t.Fatal(err)
		}
		one, err := sz.CompressedSizeOne(dims2(f2), f2.U)
		if err != nil {
			t.Fatal(err)
		}
		if one <= 0 || one >= len(full) {
			t.Errorf("single-component size %d vs full %d", one, len(full))
		}
		if _, err := sz.CompressedSizeOne(dims3(f3), f3.U); err != nil {
			t.Fatal(err)
		}
	})
	t.Run("zfplike", func(t *testing.T) {
		z := ZFPLike{Accuracy: 0.01}
		full, err := z.Compress(dims2(f2), f2.Components())
		if err != nil {
			t.Fatal(err)
		}
		one, err := z.CompressedSizeOne(dims2(f2), f2.U)
		if err != nil {
			t.Fatal(err)
		}
		if one <= 0 || one >= len(full) {
			t.Errorf("single-component size %d vs full %d", one, len(full))
		}
	})
	t.Run("fpziplike", func(t *testing.T) {
		z := FPZIPLike{Precision: 14}
		full, err := z.Compress(dims2(f2), f2.Components())
		if err != nil {
			t.Fatal(err)
		}
		one, err := z.CompressedSizeOne(dims2(f2), f2.U)
		if err != nil {
			t.Fatal(err)
		}
		if one <= 0 || one >= len(full) {
			t.Errorf("single-component size %d vs full %d", one, len(full))
		}
		if _, err := z.CompressedSizeOne(dims3(f3), f3.W); err != nil {
			t.Fatal(err)
		}
	})
	t.Run("wrong length", func(t *testing.T) {
		if _, err := (SZLike{Abs: 0.01}).CompressedSizeOne(dims3(f3), f2.U); err == nil {
			t.Error("a component of the wrong length must be rejected")
		}
	})
}
