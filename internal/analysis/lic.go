package analysis

import (
	"fmt"
	"io"
	"math"
	"math/rand"

	"repro/internal/cp"
	"repro/internal/field"
	"repro/internal/safedim"
)

// LIC renders a Line Integral Convolution image of a 2D vector field: a
// white-noise texture is convolved along streamlines, producing the
// flow-aligned streaks used as the background of the paper's Fig. 5.
// The result is a grayscale image (row-major, NX×NY, values 0..255).
func LIC(f *field.Field2D, length int, seed int64) []uint8 {
	rng := rand.New(rand.NewSource(seed))
	noise := make([]float64, len(f.U))
	for i := range noise {
		noise[i] = rng.Float64()
	}
	img := make([]uint8, len(f.U))
	sample := func(x, y float64) float64 {
		i := int(math.Round(x))
		j := int(math.Round(y))
		if i < 0 || j < 0 || i >= f.NX || j >= f.NY {
			return 0.5
		}
		return noise[j*f.NX+i]
	}
	advect := func(x, y, dir float64) (float64, float64, bool) {
		u, v := f.Bilinear(x, y)
		m := math.Hypot(u, v)
		if m < 1e-12 {
			return x, y, false
		}
		return x + dir*u/m*0.5, y + dir*v/m*0.5, true
	}
	for j := 0; j < f.NY; j++ {
		for i := 0; i < f.NX; i++ {
			sum := sample(float64(i), float64(j))
			cnt := 1.0
			for _, dir := range [2]float64{1, -1} {
				x, y := float64(i), float64(j)
				for s := 0; s < length; s++ {
					var ok bool
					x, y, ok = advect(x, y, dir)
					if !ok || x < 0 || y < 0 || x > float64(f.NX-1) || y > float64(f.NY-1) {
						break
					}
					sum += sample(x, y)
					cnt++
				}
			}
			img[j*f.NX+i] = uint8(255 * sum / cnt)
		}
	}
	return img
}

// RGB is one 8-bit color pixel.
type RGB struct{ R, G, B uint8 }

// OverlayCriticalPoints paints critical point markers over a grayscale
// LIC image and returns a color image: sources/spiral sources red, sinks
// and spirals blue, saddles green, centers yellow — the palette of the
// paper's qualitative figures.
func OverlayCriticalPoints(img []uint8, nx, ny int, pts []cp.Point) []RGB {
	out := make([]RGB, safedim.MustProduct(nx, ny))
	for i, g := range img {
		out[i] = RGB{g, g, g}
	}
	for _, p := range pts {
		var col RGB
		switch p.Type {
		case cp.TypeRepellingNode, cp.TypeRepellingFocus:
			col = RGB{230, 40, 40}
		case cp.TypeAttractingNode, cp.TypeAttractingFocus:
			col = RGB{40, 80, 230}
		case cp.TypeSaddle:
			col = RGB{40, 200, 60}
		case cp.TypeCenter:
			col = RGB{240, 220, 40}
		default:
			col = RGB{200, 200, 200}
		}
		ci := int(math.Round(p.Pos[0]))
		cj := int(math.Round(p.Pos[1]))
		for dj := -1; dj <= 1; dj++ {
			for di := -1; di <= 1; di++ {
				i, j := ci+di, cj+dj
				if i >= 0 && j >= 0 && i < nx && j < ny {
					out[j*nx+i] = col
				}
			}
		}
	}
	return out
}

// WritePPM writes a color image in binary PPM format.
func WritePPM(w io.Writer, img []RGB, nx, ny int) error {
	if _, err := fmt.Fprintf(w, "P6\n%d %d\n255\n", nx, ny); err != nil {
		return err
	}
	buf := make([]byte, 0, safedim.MustProduct(3, len(img)))
	for _, p := range img {
		buf = append(buf, p.R, p.G, p.B)
	}
	_, err := w.Write(buf)
	return err
}
