package datasets

import (
	"math"
	"strings"
	"testing"

	"dsgl/internal/rng"
)

func TestAllGeneratorsValidate(t *testing.T) {
	for _, name := range append(Names(), MultiNames()...) {
		name := name
		t.Run(name, func(t *testing.T) {
			d := Generate(name, Config{})
			if err := d.Validate(); err != nil {
				t.Fatal(err)
			}
			if d.Name != name {
				t.Fatalf("name %q != %q", d.Name, name)
			}
		})
	}
}

func TestGenerateUnknownPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Generate("nope", Config{})
}

func TestNormalizationBounds(t *testing.T) {
	for _, name := range Names() {
		d := Generate(name, Config{})
		for _, v := range d.X {
			if v < -0.8-1e-9 || v > 0.8+1e-9 {
				t.Fatalf("%s: value %g outside rails", name, v)
			}
		}
		lo, hi := d.X[0], d.X[0]
		for _, v := range d.X {
			if v < lo {
				lo = v
			}
			if v > hi {
				hi = v
			}
		}
		if hi-lo < 1.0 {
			t.Fatalf("%s: dynamic range only %g (normalization degenerate)", name, hi-lo)
		}
	}
}

func TestDeterministicGeneration(t *testing.T) {
	a := Generate("traffic", Config{Seed: 1})
	b := Generate("traffic", Config{Seed: 1})
	for i := range a.X {
		if a.X[i] != b.X[i] {
			t.Fatal("same seed must generate identical data")
		}
	}
	c := Generate("traffic", Config{Seed: 2})
	diff := false
	for i := range a.X {
		if a.X[i] != c.X[i] {
			diff = true
			break
		}
	}
	if !diff {
		t.Fatal("different seeds should differ")
	}
}

func TestWindowLayout(t *testing.T) {
	d := Generate("traffic", Config{N: 8, T: 60})
	w := d.Window(3)
	if len(w.Full) != d.WindowLen() {
		t.Fatalf("window length %d, want %d", len(w.Full), d.WindowLen())
	}
	// Entry (s=1, n=2, f=0) must equal At(start+1, 2, 0).
	idx := 1*d.N*d.F + 2*d.F
	if w.Full[idx] != d.At(4, 2, 0) {
		t.Fatal("window layout mismatch")
	}
}

func TestSplitNoOverlapAndOrder(t *testing.T) {
	d := Generate("stock", Config{N: 8, T: 80})
	train, test := d.Split()
	if len(train) == 0 || len(test) == 0 {
		t.Fatalf("split degenerate: %d/%d", len(train), len(test))
	}
	// The gap drops the History+Horizon-1 test windows whose spans overlap
	// the training windows; everything else is kept.
	gap := d.History + d.Horizon - 1
	if len(train)+len(test)+gap != d.NumWindows() {
		t.Fatalf("split window accounting: %d train + %d test + %d gap != %d total",
			len(train), len(test), gap, d.NumWindows())
	}
	lastTrain := train[len(train)-1].Start
	firstTest := test[0].Start
	if firstTest <= lastTrain {
		t.Fatal("test windows must come after train windows")
	}
}

// TestSplitHorizonDisjoint is the temporal-leakage regression: before the
// gapped split, the last training windows spanned timesteps that
// reappeared as the horizons of the first test windows — the trainer had
// literally seen the test targets. The fix gaps the split by
// History+Horizon-1 windows, and this test asserts the resulting
// guarantee: no test window shares ANY timestep (history or horizon) with
// any training window. The pre-fix split fails it (first test window
// started at timestep nTrain, inside the last training span).
// TestTrainSamplesMatchSplit: the zero-copy training samples must equal
// Split's training windows value for value, on single- and multi-feature
// layouts, and must not be writable past their window.
func TestTrainSamplesMatchSplit(t *testing.T) {
	for _, name := range []string{"traffic", "housing"} {
		d := Generate(name, Config{N: 8, T: 80})
		train, _ := d.Split()
		samples := d.TrainSamples()
		if len(samples) != len(train) {
			t.Fatalf("%s: %d samples, Split has %d training windows", name, len(samples), len(train))
		}
		for i, w := range train {
			if len(samples[i]) != len(w.Full) || cap(samples[i]) != len(w.Full) {
				t.Fatalf("%s: sample %d has len %d cap %d, want %d", name, i, len(samples[i]), cap(samples[i]), len(w.Full))
			}
			for k, v := range w.Full {
				if math.Float64bits(samples[i][k]) != math.Float64bits(v) {
					t.Fatalf("%s: sample %d entry %d = %v, window has %v", name, i, k, samples[i][k], v)
				}
			}
		}
	}
}

func TestSplitHorizonDisjoint(t *testing.T) {
	for _, name := range []string{"stock", "traffic"} {
		d := Generate(name, Config{N: 8, T: 80})
		train, test := d.Split()
		if len(train) == 0 || len(test) == 0 {
			t.Fatalf("%s: split degenerate: %d/%d", name, len(train), len(test))
		}
		span := d.History + d.Horizon
		// Timesteps any training window touches: [0, lastTrainEnd].
		lastTrainEnd := train[len(train)-1].Start + span - 1
		for i, w := range test {
			if w.Start <= lastTrainEnd {
				t.Fatalf("%s: test window %d starts at timestep %d, inside the training span (last training timestep %d)",
					name, i, w.Start, lastTrainEnd)
			}
		}
	}
}

func TestObservedMaskSingleFeature(t *testing.T) {
	d := Generate("traffic", Config{N: 4, T: 60})
	mask := d.ObservedMask()
	nObs := 0
	for _, m := range mask {
		if m {
			nObs++
		}
	}
	wantObs := d.History * d.N * d.F
	if nObs != wantObs {
		t.Fatalf("observed count %d, want %d (all history)", nObs, wantObs)
	}
	unk := d.UnknownIndices()
	if len(unk) != d.Horizon*d.N*d.F {
		t.Fatalf("unknown count %d", len(unk))
	}
	// All unknowns must be in the horizon portion.
	histLen := d.History * d.N * d.F
	for _, i := range unk {
		if i < histLen {
			t.Fatalf("unknown index %d inside history", i)
		}
	}
}

func TestObservedMaskMultiFeature(t *testing.T) {
	d := Generate("housing", Config{})
	if d.PredictFeature != 0 {
		t.Fatalf("housing PredictFeature = %d", d.PredictFeature)
	}
	unk := d.UnknownIndices()
	// Only feature 0 of horizon steps is unknown.
	if len(unk) != d.Horizon*d.N {
		t.Fatalf("unknown count %d, want %d", len(unk), d.Horizon*d.N)
	}
	for _, i := range unk {
		if i%d.F != 0 {
			t.Fatalf("unknown index %d is not feature 0", i)
		}
	}
}

func TestCommunityGraphStructure(t *testing.T) {
	r := rng.New(11)
	adj, labels := CommunityGraph(GraphSpec{N: 60, Communities: 5}, r)
	if adj.Rows != 60 {
		t.Fatalf("adjacency size %d", adj.Rows)
	}
	// Symmetric, non-negative, zero diagonal.
	for i := 0; i < 60; i++ {
		if adj.At(i, i) != 0 {
			t.Fatal("self-loop present")
		}
		for j := 0; j < 60; j++ {
			if adj.At(i, j) < 0 {
				t.Fatal("negative weight")
			}
			if adj.At(i, j) != adj.At(j, i) {
				t.Fatal("asymmetric adjacency")
			}
		}
	}
	// Intra-community edges must dominate inter-community edges.
	var intra, inter float64
	var intraN, interN int
	for i := 0; i < 60; i++ {
		for j := i + 1; j < 60; j++ {
			if adj.At(i, j) == 0 {
				continue
			}
			if labels[i] == labels[j] {
				intra += adj.At(i, j)
				intraN++
			} else {
				inter += adj.At(i, j)
				interN++
			}
		}
	}
	if intraN <= interN {
		t.Fatalf("community structure weak: %d intra vs %d inter edges", intraN, interN)
	}
	// No isolated nodes.
	for i := 0; i < 60; i++ {
		deg := 0.0
		for j := 0; j < 60; j++ {
			deg += adj.At(i, j)
		}
		if deg == 0 {
			t.Fatalf("node %d isolated", i)
		}
	}
}

func TestRowNormalized(t *testing.T) {
	r := rng.New(2)
	adj, _ := CommunityGraph(GraphSpec{N: 20, Communities: 2}, r)
	d := RowNormalized(adj)
	for i := 0; i < 20; i++ {
		var sum float64
		for j := 0; j < 20; j++ {
			sum += d.At(i, j)
		}
		if math.Abs(sum-1) > 1e-9 && sum != 0 {
			t.Fatalf("row %d sums to %g", i, sum)
		}
	}
}

func TestTemporalPredictability(t *testing.T) {
	// The generated series must be learnable: persistence (predicting the
	// last observed value) must beat predicting zero — otherwise the
	// prediction task is vacuous.
	for _, name := range Names() {
		d := Generate(name, Config{})
		var persistErr, zeroErr float64
		cnt := 0
		for tt := d.History; tt < d.T-1; tt++ {
			for n := 0; n < d.N; n++ {
				next := d.At(tt+1, n, 0)
				last := d.At(tt, n, 0)
				persistErr += (next - last) * (next - last)
				zeroErr += next * next
				cnt++
			}
		}
		if persistErr >= zeroErr {
			t.Fatalf("%s: persistence RMSE not better than zero baseline", name)
		}
	}
}

func TestSpatialCorrelation(t *testing.T) {
	// Neighboring nodes must be more correlated than random pairs —
	// otherwise the graph carries no signal and graph learning is moot.
	d := Generate("pm25", Config{})
	corr := func(a, b int) float64 {
		var sa, sb, saa, sbb, sab float64
		for tt := 0; tt < d.T; tt++ {
			va, vb := d.At(tt, a, 0), d.At(tt, b, 0)
			sa += va
			sb += vb
			saa += va * va
			sbb += vb * vb
			sab += va * vb
		}
		n := float64(d.T)
		cov := sab/n - sa/n*sb/n
		return cov / math.Sqrt((saa/n-sa/n*sa/n)*(sbb/n-sb/n*sb/n)+1e-12)
	}
	var nbrCorr, farCorr float64
	var nbrN, farN int
	for i := 0; i < d.N; i++ {
		for j := i + 1; j < d.N; j++ {
			c := corr(i, j)
			if d.Adj.At(i, j) > 0 {
				nbrCorr += c
				nbrN++
			} else {
				farCorr += c
				farN++
			}
		}
	}
	if nbrN == 0 || farN == 0 {
		t.Skip("degenerate graph")
	}
	if nbrCorr/float64(nbrN) <= farCorr/float64(farN) {
		t.Fatal("neighbors not more correlated than non-neighbors")
	}
}

func TestConfigOverrides(t *testing.T) {
	d := Generate("covid", Config{N: 10, T: 100, History: 3, Horizon: 1})
	if d.N != 10 || d.T != 100 || d.History != 3 || d.Horizon != 1 {
		t.Fatalf("config not honored: %+v", d)
	}
}

func TestMultiFeatureShapes(t *testing.T) {
	h := Generate("housing", Config{})
	if h.F != 6 {
		t.Fatalf("housing F = %d", h.F)
	}
	c := Generate("climate", Config{})
	if c.F != 6 {
		t.Fatalf("climate F = %d", c.F)
	}
}

func TestTrafficDailyPeriodicity(t *testing.T) {
	// The traffic generator is driven by a 24-step daily cycle; the lag-24
	// autocorrelation must clearly exceed the lag-12 (anti-phase) one.
	d := Generate("traffic", Config{})
	autocorr := func(lag int) float64 {
		var num, den float64
		for n := 0; n < d.N; n++ {
			var mean float64
			for tt := 0; tt < d.T; tt++ {
				mean += d.At(tt, n, 0)
			}
			mean /= float64(d.T)
			for tt := 0; tt+lag < d.T; tt++ {
				num += (d.At(tt, n, 0) - mean) * (d.At(tt+lag, n, 0) - mean)
			}
			for tt := 0; tt < d.T; tt++ {
				den += (d.At(tt, n, 0) - mean) * (d.At(tt, n, 0) - mean)
			}
		}
		return num / den
	}
	if autocorr(24) <= autocorr(12) {
		t.Fatalf("lag-24 autocorr %g not above lag-12 %g", autocorr(24), autocorr(12))
	}
}

func TestCovidWavesNonNegativeBeforeNormalize(t *testing.T) {
	// Covid case increments are non-negative by construction; after
	// normalization the minimum maps to -0.8 but the raw dynamic range
	// must still show wave structure (distinct peaks).
	d := Generate("covid", Config{})
	peaks := 0
	for n := 0; n < 3; n++ {
		prevRising := false
		for tt := 1; tt < d.T; tt++ {
			rising := d.At(tt, n, 0) > d.At(tt-1, n, 0)+1e-6
			if prevRising && !rising && d.At(tt-1, n, 0) > 0 {
				peaks++
			}
			prevRising = rising
		}
	}
	if peaks < 3 {
		t.Fatalf("covid series shows only %d peaks; expected epidemic waves", peaks)
	}
}

func TestHiddenTransferDiffersFromRowNormalized(t *testing.T) {
	r := rng.New(5)
	adj, _ := CommunityGraph(GraphSpec{N: 20, Communities: 3}, r)
	plain := RowNormalized(adj)
	hidden := HiddenTransfer(adj, rng.New(6))
	diff := false
	for i := range plain.Data {
		if plain.Data[i] != hidden.Data[i] {
			diff = true
			break
		}
	}
	if !diff {
		t.Fatal("hidden transfer must perturb edge gains")
	}
	// Rows still normalized.
	for i := 0; i < 20; i++ {
		var sum float64
		for j := 0; j < 20; j++ {
			sum += hidden.At(i, j)
		}
		if sum != 0 && math.Abs(sum-1) > 1e-9 {
			t.Fatalf("hidden transfer row %d sums to %g", i, sum)
		}
	}
}

// TestAirKindsPairwiseDistinct is the regression test for the pm25/pm10
// seed collision: the old seed mix (len(kind)*0x9e37 + kind[0]) collided
// for "pm25" and "pm10" (same length, same first byte), so both pollutants
// were generated from the identical RNG stream — same graph, same data up
// to the airParams differences. Every pair of air kinds must now have
// distinct adjacency AND distinct data.
func TestAirKindsPairwiseDistinct(t *testing.T) {
	kinds := []string{"pm25", "pm10", "no2", "o3"}
	gen := make(map[string]*Dataset, len(kinds))
	for _, k := range kinds {
		d, err := New(k, Config{N: 16, T: 240, Seed: 5})
		if err != nil {
			t.Fatal(err)
		}
		gen[k] = d
	}
	equal := func(a, b []float64) bool {
		if len(a) != len(b) {
			return false
		}
		for i := range a {
			if a[i] != b[i] {
				return false
			}
		}
		return true
	}
	for i, ka := range kinds {
		for _, kb := range kinds[i+1:] {
			a, b := gen[ka], gen[kb]
			if equal(a.Adj.Data, b.Adj.Data) {
				t.Errorf("%s vs %s: identical adjacency (seed-collision regression)", ka, kb)
			}
			if equal(a.X, b.X) {
				t.Errorf("%s vs %s: identical data (seed-collision regression)", ka, kb)
			}
		}
	}
}

func TestValidatePredictFeature(t *testing.T) {
	cases := []struct {
		pf int
		ok bool
	}{
		{-1, true}, // predict all features
		{0, true},
		{5, true},  // F-1 for the F=6 housing set
		{6, false}, // == F
		{9, false},
		{-2, false}, // below -1: used to be silently treated as -1
		{-5, false},
	}
	for _, tc := range cases {
		d := Generate("housing", Config{N: 8, T: 60})
		if d.F != 6 {
			t.Fatalf("housing F=%d, test assumes 6", d.F)
		}
		d.PredictFeature = tc.pf
		err := d.Validate()
		if tc.ok && err != nil {
			t.Errorf("PredictFeature=%d: unexpected error %v", tc.pf, err)
		}
		if !tc.ok && err == nil {
			t.Errorf("PredictFeature=%d: want validation error, got nil", tc.pf)
		}
	}
}

// TestValidateRejectsNonFinite: a NaN or ±Inf anywhere in the series or
// the adjacency must fail Validate and name where it sits. Before the
// check, one NaN reached training, where it poisoned every ridge moment
// and Train returned a model with no couplings and no error.
func TestValidateRejectsNonFinite(t *testing.T) {
	cases := []struct {
		name    string
		corrupt func(d *Dataset)
		want    string
	}{
		{"clean", func(d *Dataset) {}, ""},
		{"NaN value", func(d *Dataset) { d.set(3, 5, 0, math.NaN()) }, "t=3 node=5 feature=0"},
		{"+Inf value", func(d *Dataset) { d.set(0, 0, 0, math.Inf(1)) }, "t=0 node=0 feature=0"},
		{"-Inf last value", func(d *Dataset) { d.set(d.T-1, d.N-1, 0, math.Inf(-1)) }, "t=59 node=7 feature=0"},
		{"NaN adjacency", func(d *Dataset) { d.Adj.Set(2, 6, math.NaN()) }, "(2,6)"},
		{"+Inf adjacency", func(d *Dataset) { d.Adj.Set(7, 0, math.Inf(1)) }, "(7,0)"},
	}
	for _, tc := range cases {
		d := Generate("traffic", Config{N: 8, T: 60})
		tc.corrupt(d)
		err := d.Validate()
		if tc.want == "" {
			if err != nil {
				t.Errorf("%s: unexpected error %v", tc.name, err)
			}
			continue
		}
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %v, want one naming %q", tc.name, err, tc.want)
		}
	}
	// Multi-feature layout: the feature index is decoded too.
	d := Generate("housing", Config{N: 8, T: 60})
	d.set(4, 2, 5, math.NaN())
	if err := d.Validate(); err == nil || !strings.Contains(err.Error(), "t=4 node=2 feature=5") {
		t.Errorf("housing: error %v, want one naming t=4 node=2 feature=5", err)
	}
}

func TestNewUnknownName(t *testing.T) {
	if _, err := New("nope", Config{}); err == nil {
		t.Fatal("New with unknown name must return an error")
	}
	d, err := New("traffic", Config{N: 8, T: 60})
	if err != nil || d == nil || d.Name != "traffic" {
		t.Fatalf("New(traffic) = %v, %v", d, err)
	}
}

// TestNewRejectsBadSizes: sizes that reach New from flags come back as
// errors on every dataset, never as panics, and two nodes still build.
func TestNewRejectsBadSizes(t *testing.T) {
	bad := []Config{
		{N: 1},
		{N: -3},
		{T: -5},
		{T: 1},
		{History: -1},
		{Horizon: -1},
		{History: 2000},
	}
	build := func(name string, cfg Config) (d *Dataset, err error) {
		defer func() {
			if p := recover(); p != nil {
				t.Errorf("%s %+v: panicked: %v", name, cfg, p)
			}
		}()
		return New(name, cfg)
	}
	for _, name := range append(Names(), MultiNames()...) {
		for _, cfg := range bad {
			if d, err := build(name, cfg); err == nil {
				t.Errorf("%s %+v: built %d nodes x %d steps, want an error", name, cfg, d.N, d.T)
			}
		}
		if _, err := build(name, Config{N: 2}); err != nil {
			t.Errorf("%s with N = 2: %v", name, err)
		}
	}
}

// TestCrossGeneratorDeterminism locks in the seed-collision fix class-wide:
// every registered generator is bit-identical under a repeated Config, a
// different seed changes the data, and no two generators produce the same
// data from the same Config.
func TestCrossGeneratorDeterminism(t *testing.T) {
	cfg := Config{N: 16, T: 240, Seed: 3}
	names := append(Names(), MultiNames()...)
	xs := make(map[string][]float64, len(names))
	for _, name := range names {
		name := name
		t.Run(name, func(t *testing.T) {
			a := Generate(name, cfg)
			b := Generate(name, cfg)
			if len(a.X) != len(b.X) {
				t.Fatal("repeated generation changed shape")
			}
			for i := range a.X {
				if a.X[i] != b.X[i] {
					t.Fatalf("X[%d] differs across identical runs", i)
				}
			}
			for i := range a.Adj.Data {
				if a.Adj.Data[i] != b.Adj.Data[i] {
					t.Fatalf("Adj[%d] differs across identical runs", i)
				}
			}
			for i := range a.Community {
				if a.Community[i] != b.Community[i] {
					t.Fatalf("Community[%d] differs across identical runs", i)
				}
			}
			c := Generate(name, Config{N: 16, T: 240, Seed: 4})
			same := len(a.X) == len(c.X)
			if same {
				same = false
				for i := range a.X {
					if a.X[i] != c.X[i] {
						same = true
						break
					}
				}
				if !same {
					t.Fatal("different seeds produced identical data")
				}
			}
			xs[name] = a.X
		})
	}
	for i, na := range names {
		for _, nb := range names[i+1:] {
			a, b := xs[na], xs[nb]
			if len(a) == 0 || len(b) == 0 || len(a) != len(b) {
				continue
			}
			same := true
			for k := range a {
				if a[k] != b[k] {
					same = false
					break
				}
			}
			if same {
				t.Errorf("%s and %s generated identical data from the same Config", na, nb)
			}
		}
	}
}
