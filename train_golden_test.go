package dsgl

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"testing"
)

// The trained-parameter golden pins what Train learns bit for bit: the
// chosen ridge lambda and FNV-64a hashes of the dense and tuned parameter
// sets. TestTrainMatchesPerFitComposition compares Train with the per-fit
// wrappers, which run the same kernels, so a kernel change that moves a
// bit passes it; this fixture does not. Regenerate only when a change to
// the trained parameters is intentional:
//
//	go test -run TestGoldenTrain -update-golden .
const goldenTrainPath = "testdata/golden_train.json"

// goldenTrainCase is one model's pinned training outcome. Each hash runs
// over the little-endian IEEE-754 bits of J.Data or of h, in storage
// order; lambda is stored as its bits too.
type goldenTrainCase struct {
	Name   string `json:"name"`
	Lambda string `json:"lambda"`
	DenseJ string `json:"dense_j"`
	DenseH string `json:"dense_h"`
	TunedJ string `json:"tuned_j"`
	TunedH string `json:"tuned_h"`
}

// hashBits is the FNV-64a hash of v's float64 bits, little-endian.
func hashBits(v []float64) string {
	h := fnv.New64a()
	var word [8]byte
	for _, x := range v {
		binary.LittleEndian.PutUint64(word[:], math.Float64bits(x))
		h.Write(word[:])
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// captureGoldenTrain trains every pinned model from the current code: the
// default scalable pipeline on traffic N=48 (the eval-traffic48 model),
// the decomposed pipeline with three classes on heteromix, and the dense
// backend on covid.
func captureGoldenTrain(t *testing.T) []goldenTrainCase {
	t.Helper()
	cases := []struct {
		name, ds string
		n        int
		opts     Options
	}{
		{"traffic-n48", "traffic", 48, Options{Seed: 1}},
		{"heteromix-n16-k3", "heteromix", 16, Options{Seed: 1, Decompose: true, Classes: 3}},
		{"covid-n32-dense", "covid", 32, Options{Seed: 1, Backend: BackendDense}},
	}
	var out []goldenTrainCase
	for _, c := range cases {
		ds, err := NewDataset(c.ds, DatasetConfig{N: c.n, Seed: 7})
		if err != nil {
			t.Fatal(err)
		}
		m, err := Train(ds, c.opts)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		out = append(out, goldenTrainCase{
			Name:   c.name,
			Lambda: bits(m.Opts.RidgeLambda),
			DenseJ: hashBits(m.Dense.J.Data),
			DenseH: hashBits(m.Dense.H),
			TunedJ: hashBits(m.Tuned.J.Data),
			TunedH: hashBits(m.Tuned.H),
		})
	}
	return out
}

func TestGoldenTrain(t *testing.T) {
	got := captureGoldenTrain(t)
	if *updateGolden {
		data, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenTrainPath, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s (%d cases)", goldenTrainPath, len(got))
		return
	}
	data, err := os.ReadFile(goldenTrainPath)
	if err != nil {
		t.Fatalf("read train golden fixture (regenerate with -update-golden): %v", err)
	}
	var want []goldenTrainCase
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatalf("decode train golden fixture: %v", err)
	}
	if len(got) != len(want) {
		t.Fatalf("train golden case count diverges: got %d, fixture has %d", len(got), len(want))
	}
	for i, w := range want {
		if got[i] != w {
			t.Errorf("%s diverges from fixture:\n got  %+v\n want %+v", w.Name, got[i], w)
		}
	}
}
