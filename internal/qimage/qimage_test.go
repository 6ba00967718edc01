package qimage

import (
	"bytes"
	"math"
	"path/filepath"
	"testing"
)

// The paper's test image inventory (Table 2).
var paperImages = map[string][2]int{
	"finger": {64, 80}, "shoes": {128, 128},
	"building": {192, 128}, "zebra": {384, 256},
}

func TestSyntheticAllKinds(t *testing.T) {
	for name, dims := range paperImages {
		w, h := dims[0], dims[1]
		im, err := Synthetic(name, w, h, 1)
		if err != nil {
			t.Fatal(err)
		}
		if im.Pixels() != w*h {
			t.Fatalf("%s: %d pixels", name, im.Pixels())
		}
		var mn, mx float64 = 1, -1
		for _, v := range im.Pix {
			if v < -1 || v > 1 {
				t.Fatalf("%s: pixel %g outside [-1,1]", name, v)
			}
			if v < mn {
				mn = v
			}
			if v > mx {
				mx = v
			}
		}
		// Real structure: the image must use a good part of the range.
		if mx-mn < 0.5 {
			t.Fatalf("%s: dynamic range %g too flat", name, mx-mn)
		}
	}
	if _, err := Synthetic("cat", 8, 8, 1); err == nil {
		t.Fatal("unknown kind accepted")
	}
	if _, err := Synthetic("zebra", 0, 5, 1); err == nil {
		t.Fatal("bad dims accepted")
	}
}

func TestSyntheticDeterminism(t *testing.T) {
	a, err := Synthetic("finger", 32, 32, 9)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Synthetic("finger", 32, 32, 9)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Pix {
		if a.Pix[i] != b.Pix[i] {
			t.Fatal("same seed, different image")
		}
	}
	c, err := Synthetic("finger", 32, 32, 10)
	if err != nil {
		t.Fatal(err)
	}
	same := true
	for i := range a.Pix {
		if a.Pix[i] != c.Pix[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds, identical image")
	}
}

func TestAtSetClamp(t *testing.T) {
	im, err := New("t", 4, 3)
	if err != nil {
		t.Fatal(err)
	}
	im.Set(2, 1, 0.5)
	if im.At(2, 1) != 0.5 {
		t.Fatal("At/Set broken")
	}
	im.Set(0, 0, 7)
	if im.At(0, 0) != 1 {
		t.Fatal("clamp high broken")
	}
	im.Set(0, 0, -7)
	if im.At(0, 0) != -1 {
		t.Fatal("clamp low broken")
	}
}

func TestCompareMetrics(t *testing.T) {
	a, err := Synthetic("zebra", 48, 32, 3)
	if err != nil {
		t.Fatal(err)
	}
	// Perfect reconstruction.
	m, err := Compare(a, a.Clone())
	if err != nil {
		t.Fatal(err)
	}
	if m.MAE != 0 || m.RMSE != 0 || m.MaxAbsErr != 0 {
		t.Fatalf("self-compare metrics %+v", m)
	}
	if math.Abs(m.Correlation-1) > 1e-12 {
		t.Fatalf("self-correlation %g", m.Correlation)
	}
	// Noisy reconstruction: metrics reflect the noise level.
	noisy := a.Clone()
	for i := range noisy.Pix {
		if i%2 == 0 {
			noisy.Pix[i] = clamp(noisy.Pix[i] + 0.05)
		} else {
			noisy.Pix[i] = clamp(noisy.Pix[i] - 0.05)
		}
	}
	m, err = Compare(a, noisy)
	if err != nil {
		t.Fatal(err)
	}
	if m.MAE < 0.02 || m.MAE > 0.08 {
		t.Fatalf("MAE %g implausible for 0.05 noise", m.MAE)
	}
	if m.Correlation < 0.95 {
		t.Fatalf("correlation %g too low", m.Correlation)
	}
	// Shape mismatch.
	b, err := New("b", 3, 3)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Compare(a, b); err == nil {
		t.Fatal("shape mismatch accepted")
	}
}

func TestPGMRoundTrip(t *testing.T) {
	orig, err := Synthetic("building", 40, 24, 2)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := orig.WritePGM(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadPGM(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.W != 40 || back.H != 24 {
		t.Fatalf("dims %dx%d", back.W, back.H)
	}
	// 8-bit quantization: worst error 2/255.
	m, err := Compare(orig, back)
	if err != nil {
		t.Fatal(err)
	}
	if m.MaxAbsErr > 2.0/255*1.01 {
		t.Fatalf("PGM quantization error %g", m.MaxAbsErr)
	}
}

func TestPGMFileRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "img.pgm")
	orig, err := Synthetic("finger", 16, 20, 4)
	if err != nil {
		t.Fatal(err)
	}
	if err := orig.SavePGM(path); err != nil {
		t.Fatal(err)
	}
	back, err := LoadPGM(path)
	if err != nil {
		t.Fatal(err)
	}
	if back.Pixels() != orig.Pixels() {
		t.Fatal("file round trip lost pixels")
	}
	if _, err := LoadPGM("/nonexistent.pgm"); err == nil {
		t.Fatal("missing file accepted")
	}
}

func TestPGMErrors(t *testing.T) {
	if _, err := ReadPGM(bytes.NewReader([]byte("P2\n2 2\n255\n"))); err == nil {
		t.Fatal("ascii pgm accepted")
	}
	if _, err := ReadPGM(bytes.NewReader([]byte("P5\n2 2\n65535\n"))); err == nil {
		t.Fatal("16-bit pgm accepted")
	}
	if _, err := ReadPGM(bytes.NewReader([]byte("P5\n4 4\n255\nab"))); err == nil {
		t.Fatal("truncated pgm accepted")
	}
	if _, err := ReadPGM(bytes.NewReader(nil)); err == nil {
		t.Fatal("empty pgm accepted")
	}
}
