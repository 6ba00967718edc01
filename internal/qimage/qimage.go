// Package qimage supplies the grayscale-image substrate for the QCrank
// experiments (§3, Table 2, Figs. 5–6). The paper's four test images
// (an X-ray finger, shoes, a building façade, a zebra) are proprietary
// to its artifact; this package generates procedural synthetic images
// with the same dimensions and qualitatively similar structure —
// ridges, blobs, rectangles, stripes. QCrank's cost depends only on
// pixel count and the address/data split, and reconstruction error
// depends only on shot statistics, so the substitution preserves both
// benchmarked behaviours. PGM I/O and the reconstruction metrics of
// Fig. 6 round out the package.
package qimage

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"os"
	"strings"

	"qgear/internal/qmath"
)

// Image is a grayscale image with float64 pixels in [-1, 1] (the
// paper's QCrank input normalization, Appendix D.3), row-major.
type Image struct {
	Name string
	W, H int
	Pix  []float64
}

// New allocates a zero image.
func New(name string, w, h int) (*Image, error) {
	if w <= 0 || h <= 0 {
		return nil, fmt.Errorf("qimage: bad dimensions %dx%d", w, h)
	}
	return &Image{Name: name, W: w, H: h, Pix: make([]float64, w*h)}, nil
}

// At returns pixel (x, y).
func (im *Image) At(x, y int) float64 { return im.Pix[y*im.W+x] }

// Set assigns pixel (x, y), clamped into [-1, 1].
func (im *Image) Set(x, y int, v float64) {
	im.Pix[y*im.W+x] = clamp(v)
}

func clamp(v float64) float64 {
	if v > 1 {
		return 1
	}
	if v < -1 {
		return -1
	}
	return v
}

// Pixels returns the pixel count.
func (im *Image) Pixels() int { return im.W * im.H }

// Clone deep-copies the image.
func (im *Image) Clone() *Image {
	out := &Image{Name: im.Name, W: im.W, H: im.H, Pix: make([]float64, len(im.Pix))}
	copy(out.Pix, im.Pix)
	return out
}

// Synthetic generates a procedural stand-in for one of the paper's
// image kinds (finger, shoes, building, zebra — Table 2) at the given
// size. Seeded noise keeps every run reproducible.
func Synthetic(kind string, w, h int, seed uint64) (*Image, error) {
	im, err := New(kind, w, h)
	if err != nil {
		return nil, err
	}
	rng := qmath.NewRNG(seed)
	fw, fh := float64(w), float64(h)
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			fx, fy := float64(x), float64(y)
			var v float64
			switch kind {
			case "finger":
				// Concentric fingerprint-like ridges around a whorl.
				dx, dy := fx-fw/2, fy-fh/2
				r := math.Sqrt(dx*dx + dy*dy)
				v = math.Sin(r/2.2+0.8*math.Atan2(dy, dx)) * 0.8
			case "shoes":
				// Two soft blobs over a dark backdrop.
				v = -0.6 +
					1.3*gauss(fx, fy, fw*0.3, fh*0.6, fw*0.12) +
					1.1*gauss(fx, fy, fw*0.7, fh*0.4, fw*0.10)
			case "building":
				// A window grid: bright façade with dark rectangles.
				v = 0.55
				if int(fx/12)%2 == 1 && int(fy/10)%2 == 1 {
					v = -0.7
				}
				if fy > fh*0.85 {
					v = -0.2 // street
				}
			case "zebra":
				// Diagonal stripes with a gentle body contour.
				v = 0.9 * math.Sin(fx/7+fy/9)
				if v > 0 {
					v = 0.8
				} else {
					v = -0.8
				}
				v *= gauss(fx, fy, fw/2, fh/2, fw*0.45)*0.5 + 0.5
			default:
				return nil, fmt.Errorf("qimage: unknown synthetic kind %q", kind)
			}
			v += 0.03 * rng.NormFloat64() // sensor noise
			im.Set(x, y, v)
		}
	}
	return im, nil
}

func gauss(x, y, cx, cy, s float64) float64 {
	dx, dy := x-cx, y-cy
	return math.Exp(-(dx*dx + dy*dy) / (2 * s * s))
}

// Metrics summarizes a reconstruction against its reference — the
// statistics of the Fig. 6 residual panels.
type Metrics struct {
	MAE         float64 // mean |reco - true|
	RMSE        float64
	MaxAbsErr   float64
	Correlation float64 // Pearson between true and reco pixels
}

// Compare computes reconstruction metrics between a reference and a
// reconstructed image of identical shape.
func Compare(ref, reco *Image) (Metrics, error) {
	if ref.W != reco.W || ref.H != reco.H {
		return Metrics{}, fmt.Errorf("qimage: shape mismatch %dx%d vs %dx%d", ref.W, ref.H, reco.W, reco.H)
	}
	n := float64(len(ref.Pix))
	var sumAbs, sumSq, maxAbs float64
	var sa, sb, saa, sbb, sab float64
	for i := range ref.Pix {
		a, b := ref.Pix[i], reco.Pix[i]
		d := math.Abs(a - b)
		sumAbs += d
		sumSq += d * d
		if d > maxAbs {
			maxAbs = d
		}
		sa += a
		sb += b
		saa += a * a
		sbb += b * b
		sab += a * b
	}
	m := Metrics{MAE: sumAbs / n, RMSE: math.Sqrt(sumSq / n), MaxAbsErr: maxAbs}
	cov := sab/n - (sa/n)*(sb/n)
	va := saa/n - (sa/n)*(sa/n)
	vb := sbb/n - (sb/n)*(sb/n)
	if va > 0 && vb > 0 {
		m.Correlation = cov / math.Sqrt(va*vb)
	}
	return m, nil
}

// WritePGM emits binary PGM (P5, maxval 255) with [-1,1] mapped onto
// [0,255].
func (im *Image) WritePGM(w io.Writer) error {
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintf(bw, "P5\n%d %d\n255\n", im.W, im.H); err != nil {
		return fmt.Errorf("qimage: %w", err)
	}
	for _, v := range im.Pix {
		b := byte(math.Round((clamp(v) + 1) / 2 * 255))
		if err := bw.WriteByte(b); err != nil {
			return fmt.Errorf("qimage: %w", err)
		}
	}
	if err := bw.Flush(); err != nil {
		return fmt.Errorf("qimage: %w", err)
	}
	return nil
}

// ReadPGM parses binary PGM back into [-1, 1] pixels.
func ReadPGM(r io.Reader) (*Image, error) {
	br := bufio.NewReader(r)
	var magic string
	var w, h, maxval int
	if _, err := fmt.Fscan(br, &magic, &w, &h, &maxval); err != nil {
		return nil, fmt.Errorf("qimage: pgm header: %w", err)
	}
	if magic != "P5" {
		return nil, fmt.Errorf("qimage: unsupported pgm magic %q", magic)
	}
	if maxval != 255 {
		return nil, fmt.Errorf("qimage: unsupported maxval %d", maxval)
	}
	if _, err := br.ReadByte(); err != nil { // single whitespace after header
		return nil, fmt.Errorf("qimage: %w", err)
	}
	im, err := New("pgm", w, h)
	if err != nil {
		return nil, err
	}
	buf := make([]byte, w*h)
	if _, err := io.ReadFull(br, buf); err != nil {
		return nil, fmt.Errorf("qimage: pgm payload: %w", err)
	}
	for i, b := range buf {
		im.Pix[i] = float64(b)/255*2 - 1
	}
	return im, nil
}

// SavePGM writes the image to a file path.
func (im *Image) SavePGM(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("qimage: %w", err)
	}
	if err := im.WritePGM(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// LoadPGM reads an image from a file path.
func LoadPGM(path string) (*Image, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("qimage: %w", err)
	}
	defer f.Close()
	im, err := ReadPGM(f)
	if err != nil {
		return nil, err
	}
	im.Name = strings.TrimSuffix(path, ".pgm")
	return im, nil
}
