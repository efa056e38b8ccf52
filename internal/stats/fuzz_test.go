package stats

import "testing"

// FuzzJenksThreshold ensures the natural-breaks dynamic program never
// panics or loops and always returns a break inside the sample range.
func FuzzJenksThreshold(f *testing.F) {
	f.Add([]byte{1, 2, 3, 200})
	f.Add([]byte{7, 7, 7, 7})
	f.Add([]byte{0, 255})
	f.Fuzz(func(t *testing.T, raw []byte) {
		if len(raw) < 2 || len(raw) > 200 {
			return
		}
		xs := make([]float64, len(raw))
		for i, b := range raw {
			xs[i] = float64(b)
		}
		threshold, err := JenksThreshold(xs)
		if err != nil {
			t.Fatalf("jenks failed on valid input: %v", err)
		}
		minV, maxV, _ := MinMax(xs)
		if threshold < minV || threshold > maxV {
			t.Fatalf("threshold %v outside [%v,%v]", threshold, minV, maxV)
		}
	})
}

// FuzzGSquare ensures arbitrary binary columns never break the CI test,
// and that the popcount kernel agrees with the scalar one bit for bit.
// Bit 0 of each byte feeds x (rawX) and y (rawY); 0–3 conditioning columns
// (their count from bits 4–5 of rawX[0]) come from bits 1–3 of rawY.
func FuzzGSquare(f *testing.F) {
	f.Add([]byte{0, 1, 0, 1}, []byte{1, 1, 0, 0})
	f.Add([]byte{0x30, 1, 0, 1, 1, 0, 1}, []byte{0x0f, 3, 5, 7, 9, 2, 4})
	f.Fuzz(func(t *testing.T, rawX, rawY []byte) {
		n := len(rawX)
		if len(rawY) < n {
			n = len(rawY)
		}
		if n < 1 || n > 500 {
			return
		}
		l := int(rawX[0]>>4) & 3
		x := Sample{Values: make([]int, n), Arity: 2}
		y := Sample{Values: make([]int, n), Arity: 2}
		zs := make([]Sample, l)
		for k := range zs {
			zs[k] = Sample{Values: make([]int, n), Arity: 2}
		}
		for i := 0; i < n; i++ {
			x.Values[i] = int(rawX[i]) % 2
			y.Values[i] = int(rawY[i]) % 2
			for k := range zs {
				zs[k].Values[i] = int(rawY[i]>>(k+1)) & 1
			}
		}
		pack := func(s Sample) BitSample {
			b, err := PackSample(s)
			if err != nil {
				t.Fatalf("pack: %v", err)
			}
			return b
		}
		zb := make([]BitSample, l)
		for k := range zs {
			zb[k] = pack(zs[k])
		}
		for _, tester := range []BitCITester{GSquareTester{}, PearsonChiSquareTester{}} {
			res, err := tester.Test(x, y, zs)
			if err != nil {
				t.Fatalf("%T failed on valid input: %v", tester, err)
			}
			if res.Statistic < 0 || res.PValue < 0 || res.PValue > 1 {
				t.Fatalf("%T invalid result: %+v", tester, res)
			}
			bits, err := strataTest(tester, pack(x), pack(y), zb)
			if err != nil {
				t.Fatalf("%T bit kernel failed on valid input: %v", tester, err)
			}
			if bits != res {
				t.Fatalf("%T l=%d: bit kernel %+v != scalar %+v", tester, l, bits, res)
			}
		}
	})
}
