package baselines

// Golden byte pins for the SZ3/ZFP/FPZIP stand-ins. testdata/golden.sum
// holds, per case, the sha256 of the compressed blob and of the decoded
// components (little-endian float32, component after component). A
// refactor must reproduce both exactly; `make benchgate` only sees blob
// lengths, so a change that keeps the lengths but moves bytes is caught
// here.
//
// Regenerate (only when the format intentionally changes) with:
//
//	go test ./internal/baselines/ -run TestGolden -update

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/datagen"
)

var updateGolden = flag.Bool("update", false, "rewrite the golden testdata")

// hashComps digests decoded components as little-endian float32 bits.
func hashComps(comps [][]float32) string {
	h := sha256.New()
	var buf [4]byte
	for _, c := range comps {
		for _, v := range c {
			binary.LittleEndian.PutUint32(buf[:], math.Float32bits(v))
			h.Write(buf[:])
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

func hashBlob(b []byte) string {
	s := sha256.Sum256(b)
	return hex.EncodeToString(s[:])
}

func TestGolden(t *testing.T) {
	ocean := datagen.Ocean(48, 36)
	hurr := datagen.Hurricane(14, 12, 6)
	fields := []struct {
		name  string
		dims  []int
		comps [][]float32
	}{
		{"2d", []int{ocean.NX, ocean.NY}, ocean.Components()},
		{"3d", []int{hurr.NX, hurr.NY, hurr.NZ}, hurr.Components()},
	}
	var got strings.Builder
	for _, c := range []struct {
		name  string
		codec Codec
	}{
		{"sz-A", SZLike{Abs: 0.01}},
		{"zfp-A", ZFPLike{Accuracy: 0.01}},
		{"zfp-P", ZFPLike{Precision: 14}},
		{"fpzip-P", FPZIPLike{Precision: 16}},
	} {
		for _, f := range fields {
			blob, err := c.codec.Compress(f.dims, f.comps)
			if err != nil {
				t.Fatal(err)
			}
			_, dec, err := c.codec.Decompress(blob)
			if err != nil {
				t.Fatal(err)
			}
			fmt.Fprintf(&got, "%s-%s %s %s\n", f.name, c.name, hashBlob(blob), hashComps(dec))
		}
	}
	checkGolden(t, got.String())
}

// checkGolden compares the rendered pins with testdata/golden.sum, or
// rewrites the file under -update.
func checkGolden(t *testing.T, got string) {
	t.Helper()
	path := filepath.Join("testdata", "golden.sum")
	if *updateGolden {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden pins (run with -update to regenerate): %v", err)
	}
	if got != string(want) {
		t.Errorf("golden pins differ from %s:\ngot:\n%swant:\n%s", path, got, want)
	}
}
