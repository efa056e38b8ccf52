package pc

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"testing"
)

// removalDigest hashes every Removal list of a mining run in device order:
// the pruned candidate, its separating set and the exact p-value bits.
func removalDigest(removals map[int][]Removal, devices int) string {
	h := sha256.New()
	for dev := 0; dev < devices; dev++ {
		for _, r := range removals[dev] {
			fmt.Fprintf(h, "%d %d/%d %x [", dev, r.Parent.Device, r.Parent.Lag, math.Float64bits(r.PValue))
			for _, z := range r.SepSet {
				fmt.Fprintf(h, " %d/%d", z.Device, z.Lag)
			}
			fmt.Fprint(h, " ]\n")
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestMinePinnedModel pins the model TemporalPC mines from BenchmarkMine's
// input under causaliot.Train's default miner configuration. The figures
// were recorded before the strata kernel replaced the per-test mask
// rebuild; any change to the counting kernels, the test order or the
// pruning rules that alters the mined model fails here.
func TestMinePinnedModel(t *testing.T) {
	for _, tc := range []struct {
		name        string
		tauOverride int
		fingerprint string
		removals    string
		tests       int
	}{
		{"tau2", 2,
			"21cd50b31ba6af36332dfb2e8aa3a83d621881cd739ff264b70be2bfc1d358d1",
			"647e66d6e2263c4cc3d4dacec89124ef290bf48fc8861dde080de395e5180adf", 19412},
		{"default-tau", 0,
			"b9ef8c5f18e456eab17f2a9d78ba9c26d81063af84d3b0bf323cb37ee9df03aa",
			"1a2dec1eadf116114b8d6af21f4a07549c887711897b92f4cbc52b5ee4c0a855", 6777},
	} {
		t.Run(tc.name, func(t *testing.T) {
			series, tau := mineBenchInput(t, tc.tauOverride)
			g, rem, st, err := NewMiner(trainMinerConfig).Mine(series, tau, 0.01)
			if err != nil {
				t.Fatal(err)
			}
			fp := g.Fingerprint().String()
			digest := removalDigest(rem, series.NumDevices())
			t.Logf("tau=%d fingerprint=%s removals=%s tests=%d", tau, fp, digest, st.Tests)
			if fp != tc.fingerprint {
				t.Errorf("fingerprint %s, want %s", fp, tc.fingerprint)
			}
			if digest != tc.removals {
				t.Errorf("removal digest %s, want %s", digest, tc.removals)
			}
			if st.Tests != tc.tests {
				t.Errorf("%d CI tests, want %d", st.Tests, tc.tests)
			}
		})
	}
}
