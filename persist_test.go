package dsgl

import (
	"bytes"
	"encoding/gob"
	"math"
	"runtime"
	"strings"
	"testing"

	"dsgl/internal/scalable"
)

func TestSaveLoadRoundTrip(t *testing.T) {
	ds := tinyDataset(t, "traffic")
	model, err := Train(ds, tinyOptions())
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := model.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(&buf, ds)
	if err != nil {
		t.Fatal(err)
	}
	// Identical predictions on the same window.
	_, test := ds.Split()
	p1, err := model.Predict(test[0])
	if err != nil {
		t.Fatal(err)
	}
	p2, err := loaded.Predict(test[0])
	if err != nil {
		t.Fatal(err)
	}
	for i := range p1.Values {
		if p1.Values[i] != p2.Values[i] {
			t.Fatalf("prediction %d differs after reload: %g vs %g", i, p1.Values[i], p2.Values[i])
		}
	}
	if loaded.Machine.Stats().Mode != model.Machine.Stats().Mode {
		t.Fatal("co-annealing mode changed after reload")
	}
}

func TestLoadRejectsWrongDataset(t *testing.T) {
	ds := tinyDataset(t, "traffic")
	model, err := Train(ds, tinyOptions())
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := model.Save(&buf); err != nil {
		t.Fatal(err)
	}
	other := tinyDataset(t, "no2")
	if _, err := Load(bytes.NewReader(buf.Bytes()), other); err == nil {
		t.Fatal("expected error for mismatched dataset name")
	}
	shrunk := GenerateDataset("traffic", DatasetConfig{N: 8, T: 400, History: 4, Horizon: 1, Seed: 2})
	if _, err := Load(bytes.NewReader(buf.Bytes()), shrunk); err == nil {
		t.Fatal("expected error for mismatched window length")
	}
}

func TestLoadRejectsGarbage(t *testing.T) {
	ds := tinyDataset(t, "traffic")
	if _, err := Load(bytes.NewReader([]byte("not a snapshot")), ds); err == nil {
		t.Fatal("expected decode error")
	}
}

// TestSnapshotPersistsRefitZeroMaskEntry is the regression test for the v1
// round-trip bug: the snapshot mask was reconstructed from the tuned J's
// nonzero support, silently dropping mask entries whose closed-form refit
// value is exactly 0. Format v2 persists the model's real mask, so a
// zero-valued masked coupling survives Save/Load.
func TestSnapshotPersistsRefitZeroMaskEntry(t *testing.T) {
	ds := tinyDataset(t, "traffic")
	model, err := Train(ds, tinyOptions())
	if err != nil {
		t.Fatal(err)
	}
	// Force one masked coupling to an exactly-zero refit value and rebuild
	// the machine, as a refit that lands on 0 would have.
	zi, zj := -1, -1
	n := model.Tuned.Dim()
	for i := 0; i < n && zi < 0; i++ {
		for j := 0; j < n; j++ {
			if model.mask.At(i, j) && model.Tuned.J.At(i, j) != 0 {
				zi, zj = i, j
				break
			}
		}
	}
	if zi < 0 {
		t.Fatal("no masked nonzero coupling to zero out")
	}
	model.Tuned.J.Set(zi, zj, 0)
	machine, err := scalable.Build(model.Tuned, model.Assignment, model.mask, model.Machine.Config())
	if err != nil {
		t.Fatal(err)
	}
	model.Machine = machine

	// The v1 reconstruction loses the entry — this is the old bug.
	if model.maskFromSupport().At(zi, zj) {
		t.Fatal("support reconstruction unexpectedly kept the zero-refit entry; test premise broken")
	}
	var buf bytes.Buffer
	if err := model.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(&buf, ds)
	if err != nil {
		t.Fatal(err)
	}
	if !loaded.mask.At(zi, zj) {
		t.Fatalf("mask entry (%d,%d) with zero refit value lost across Save/Load", zi, zj)
	}
	if got, want := loaded.mask.Count(), model.mask.Count(); got != want {
		t.Fatalf("loaded mask has %d entries, saved model had %d", got, want)
	}
	for i := range model.mask.Data {
		if model.mask.Data[i] != loaded.mask.Data[i] {
			t.Fatalf("mask bit %d diverged across Save/Load", i)
		}
	}
}

// reencode decodes a written snapshot, applies mutate, and re-encodes it —
// the corrupt-snapshot fixture factory.
func reencode(t *testing.T, snapshot []byte, mutate func(*modelSnapshot)) *bytes.Reader {
	t.Helper()
	var snap modelSnapshot
	if err := gob.NewDecoder(bytes.NewReader(snapshot)).Decode(&snap); err != nil {
		t.Fatal(err)
	}
	mutate(&snap)
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(&snap); err != nil {
		t.Fatal(err)
	}
	return bytes.NewReader(buf.Bytes())
}

// TestLoadRejectsCorruptGeometry feeds Load snapshots whose slice lengths
// disagree with their declared geometry. Each must come back as an error —
// the old code panicked in mat.NewDenseFrom or while indexing PEOf.
func TestLoadRejectsCorruptGeometry(t *testing.T) {
	ds := tinyDataset(t, "traffic")
	model, err := Train(ds, tinyOptions())
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := model.Save(&buf); err != nil {
		t.Fatal(err)
	}
	snapshot := buf.Bytes()
	cases := []struct {
		name   string
		mutate func(*modelSnapshot)
	}{
		{"truncated J data", func(s *modelSnapshot) { s.JData = s.JData[:len(s.JData)-3] }},
		{"non-square J", func(s *modelSnapshot) { s.JCols++ }},
		{"negative J rows", func(s *modelSnapshot) { s.JRows = -1 }},
		{"truncated H", func(s *modelSnapshot) { s.H = s.H[:len(s.H)-1] }},
		{"truncated placement", func(s *modelSnapshot) { s.PEOf = s.PEOf[:len(s.PEOf)-2] }},
		{"truncated mask data", func(s *modelSnapshot) { s.MaskData = s.MaskData[:len(s.MaskData)-5] }},
		{"mask shape mismatch", func(s *modelSnapshot) { s.MaskRows-- }},
		{"zero PE grid", func(s *modelSnapshot) { s.GridW = 0 }},
		{"zero PE capacity", func(s *modelSnapshot) { s.Capacity = 0 }},
		{"future format", func(s *modelSnapshot) { s.Format = 99 }},
		// The grid must be bounded before NodesOf is allocated from it.
		{"2^31 x 2^31 PE grid", func(s *modelSnapshot) { s.GridW, s.GridH = 1<<31, 1<<31 }},
		{"PE grid larger than the nodes need", func(s *modelSnapshot) { s.GridW++ }},
		// Snapshot options pass the same gate as Train's.
		{"NaN node noise", func(s *modelSnapshot) { s.Opts.NodeNoise = math.NaN() }},
		{"negative coupler noise", func(s *modelSnapshot) { s.Opts.CouplerNoise = -0.1 }},
		{"negative MaxInferNs", func(s *modelSnapshot) { s.Opts.MaxInferNs = -1 }},
		{"infinite SyncIntervalNs", func(s *modelSnapshot) { s.Opts.SyncIntervalNs = math.Inf(1) }},
		{"NaN RidgeLambda", func(s *modelSnapshot) { s.Opts.RidgeLambda = math.NaN() }},
		{"negative Lanes", func(s *modelSnapshot) { s.Opts.Lanes = -1 }},
		{"Pattern 99", func(s *modelSnapshot) { s.Opts.Pattern = 99 }},
		{"dense snapshot with noise", func(s *modelSnapshot) { s.Backend = BackendDense; s.Opts.NodeNoise = 0.05 }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("Load panicked on %s: %v", tc.name, r)
				}
			}()
			if _, err := Load(reencode(t, snapshot, tc.mutate), ds); err == nil {
				t.Fatalf("Load accepted a snapshot with %s", tc.name)
			}
		})
	}
}

// snapshotField is one modelSnapshot field FuzzLoad overwrites from the
// fuzzer's integer and float values.
type snapshotField struct {
	name string
	set  func(s *modelSnapshot, i int64, f float64)
}

// fuzzResize resizes v to a length drawn from i, at most 2*len(v)+1 (grown
// with zero values), so a fuzzed length never allocates much more than the
// seed snapshot holds.
func fuzzResize[T any](v []T, i int64) []T {
	n := int(uint64(i) % uint64(2*len(v)+2))
	if n <= len(v) {
		return v[:n]
	}
	return append(v, make([]T, n-len(v))...)
}

// fuzzIndex draws an index into a slice of length n from the high half of
// i; fuzzValue is the low half, sign-extended. One int64 thus addresses any
// entry with any 32-bit value.
func fuzzIndex(i int64, n int) int { return int(uint64(i)>>32) % n }
func fuzzValue(i int64) int        { return int(int32(i)) }

// setInt and setFloat adapt a plain field write to a snapshotField.
func setInt(set func(s *modelSnapshot, v int)) func(*modelSnapshot, int64, float64) {
	return func(s *modelSnapshot, i int64, _ float64) { set(s, int(i)) }
}

func setFloat(set func(s *modelSnapshot, v float64)) func(*modelSnapshot, int64, float64) {
	return func(s *modelSnapshot, _ int64, f float64) { set(s, f) }
}

var snapshotFields = []snapshotField{
	{"Format", setInt(func(s *modelSnapshot, v int) { s.Format = v })},
	{"Backend", func(s *modelSnapshot, i int64, _ float64) {
		s.Backend = []string{"", BackendScalable, BackendDense, "bogus"}[uint64(i)%4]
	}},
	{"JRows", setInt(func(s *modelSnapshot, v int) { s.JRows = v })},
	{"JCols", setInt(func(s *modelSnapshot, v int) { s.JCols = v })},
	{"JData length", func(s *modelSnapshot, i int64, _ float64) { s.JData = fuzzResize(s.JData, i) }},
	{"J entry", func(s *modelSnapshot, i int64, f float64) { s.JData[fuzzIndex(i, len(s.JData))] = f }},
	{"H length", func(s *modelSnapshot, i int64, _ float64) { s.H = fuzzResize(s.H, i) }},
	{"H entry", func(s *modelSnapshot, i int64, f float64) { s.H[fuzzIndex(i, len(s.H))] = f }},
	{"PEOf length", func(s *modelSnapshot, i int64, _ float64) { s.PEOf = fuzzResize(s.PEOf, i) }},
	{"PEOf entry", func(s *modelSnapshot, i int64, _ float64) {
		if len(s.PEOf) > 0 {
			s.PEOf[fuzzIndex(i, len(s.PEOf))] = fuzzValue(i)
		}
	}},
	{"MaskRows", setInt(func(s *modelSnapshot, v int) { s.MaskRows = v })},
	{"MaskCols", setInt(func(s *modelSnapshot, v int) { s.MaskCols = v })},
	{"MaskData length", func(s *modelSnapshot, i int64, _ float64) { s.MaskData = fuzzResize(s.MaskData, i) }},
	{"GridW", setInt(func(s *modelSnapshot, v int) { s.GridW = v })},
	{"GridH", setInt(func(s *modelSnapshot, v int) { s.GridH = v })},
	{"Capacity", setInt(func(s *modelSnapshot, v int) { s.Capacity = v })},
	{"class label", func(s *modelSnapshot, i int64, _ float64) {
		if len(s.Classes) > 0 {
			s.Classes[fuzzIndex(i, len(s.Classes))] = fuzzValue(i)
		}
	}},
	{"Opts.Pattern", setInt(func(s *modelSnapshot, v int) { s.Opts.Pattern = Pattern(v) })},
	{"Opts.Density", setFloat(func(s *modelSnapshot, v float64) { s.Opts.Density = v })},
	{"Opts.Wormholes", setInt(func(s *modelSnapshot, v int) { s.Opts.Wormholes = v })},
	{"Opts.PECapacity", setInt(func(s *modelSnapshot, v int) { s.Opts.PECapacity = v })},
	{"Opts.Lanes", setInt(func(s *modelSnapshot, v int) { s.Opts.Lanes = v })},
	{"Opts.RidgeLambda", setFloat(func(s *modelSnapshot, v float64) { s.Opts.RidgeLambda = v })},
	{"Opts.TrainEpochs", setInt(func(s *modelSnapshot, v int) { s.Opts.TrainEpochs = v })},
	{"Opts.FineTuneEpochs", setInt(func(s *modelSnapshot, v int) { s.Opts.FineTuneEpochs = v })},
	{"Opts.SyncIntervalNs", setFloat(func(s *modelSnapshot, v float64) { s.Opts.SyncIntervalNs = v })},
	{"Opts.MaxInferNs", setFloat(func(s *modelSnapshot, v float64) { s.Opts.MaxInferNs = v })},
	{"Opts.NodeNoise", setFloat(func(s *modelSnapshot, v float64) { s.Opts.NodeNoise = v })},
	{"Opts.CouplerNoise", setFloat(func(s *modelSnapshot, v float64) { s.Opts.CouplerNoise = v })},
	{"Opts.Workers", setInt(func(s *modelSnapshot, v int) { s.Opts.Workers = v })},
	{"Opts.ShardWorkers", setInt(func(s *modelSnapshot, v int) { s.Opts.ShardWorkers = v })},
	{"Opts.ShardSyncNs", setFloat(func(s *modelSnapshot, v float64) { s.Opts.ShardSyncNs = v })},
	{"Opts.Classes", setInt(func(s *modelSnapshot, v int) { s.Opts.Classes = v })},
	{"Opts.Seed", setInt(func(s *modelSnapshot, v int) { s.Opts.Seed = uint64(v) })},
}

// FuzzLoad sets one field of a real snapshot (a tiny scalable, decomposed
// K=3 or dense model), re-encodes it and loads it. It fuzzes fields, not
// raw bytes: encoding/gob is documented as not hardened against adversarial
// input, and the gates under test are Load's own. Load must never panic,
// and any model it returns must survive Save→Load with identical Stats and
// identical EffectiveJ bits.
func FuzzLoad(f *testing.F) {
	ds := tinyDataset(f, "traffic")
	decomposed := tinyOptions()
	decomposed.Decompose, decomposed.Classes = true, 3
	var seeds [][]byte
	for _, opts := range []Options{tinyOptions(), decomposed, denseOptions()} {
		m, err := Train(ds, opts)
		if err != nil {
			f.Fatal(err)
		}
		var buf bytes.Buffer
		if err := m.Save(&buf); err != nil {
			f.Fatal(err)
		}
		seeds = append(seeds, buf.Bytes())
	}
	for seed := range seeds {
		for field := range snapshotFields {
			f.Add(uint8(seed), uint8(field), int64(-1), math.NaN())
			f.Add(uint8(seed), uint8(field), int64(1)<<32|2, 0.5)
		}
	}
	f.Fuzz(func(t *testing.T, seed, field uint8, i int64, v float64) {
		fld := snapshotFields[int(field)%len(snapshotFields)]
		r := reencode(t, seeds[int(seed)%len(seeds)], func(s *modelSnapshot) { fld.set(s, i, v) })
		m, err := Load(r, ds)
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := m.Save(&buf); err != nil {
			t.Fatalf("%s=%d/%v: Save of a loaded model: %v", fld.name, i, v, err)
		}
		again, err := Load(&buf, ds)
		if err != nil {
			t.Fatalf("%s=%d/%v: reloading a loaded model: %v", fld.name, i, v, err)
		}
		if (m.Machine == nil) != (again.Machine == nil) {
			t.Fatalf("%s=%d/%v: backend changed across Save→Load", fld.name, i, v)
		}
		if m.Machine != nil && m.Machine.Stats() != again.Machine.Stats() {
			t.Fatalf("%s=%d/%v: Stats %+v became %+v across Save→Load", fld.name, i, v, m.Machine.Stats(), again.Machine.Stats())
		}
		a, b := m.Engine().EffectiveJ(), again.Engine().EffectiveJ()
		if a.Rows != b.Rows || a.Cols != b.Cols {
			t.Fatalf("%s=%d/%v: EffectiveJ %dx%d became %dx%d", fld.name, i, v, a.Rows, a.Cols, b.Rows, b.Cols)
		}
		for k := range a.Data {
			if math.Float64bits(a.Data[k]) != math.Float64bits(b.Data[k]) {
				t.Fatalf("%s=%d/%v: EffectiveJ entry %d: %v became %v", fld.name, i, v, k, a.Data[k], b.Data[k])
			}
		}
	})
}

// TestLoadRejectsNonFiniteParams: a snapshot whose parameters carry a NaN
// h decodes cleanly, and NaN >= 0 is false, so a sign check alone admitted
// it. Load's parameter gate must reject it before any machine is built.
func TestLoadRejectsNonFiniteParams(t *testing.T) {
	ds := tinyDataset(t, "traffic")
	model, err := Train(ds, tinyOptions())
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := model.Save(&buf); err != nil {
		t.Fatal(err)
	}
	nan := func(s *modelSnapshot) { s.H[len(s.H)/2] = math.NaN() }
	if _, err := Load(reencode(t, buf.Bytes(), nan), ds); err == nil || !strings.Contains(err.Error(), "not finite") {
		t.Fatalf("Load of a snapshot with a NaN h: got %v, want a not-finite rejection", err)
	}
}

// TestLoadRejectsTruncatedSnapshot truncates the raw byte stream at several
// points; every prefix must fail with an error, never a panic.
func TestLoadRejectsTruncatedSnapshot(t *testing.T) {
	ds := tinyDataset(t, "traffic")
	model, err := Train(ds, tinyOptions())
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := model.Save(&buf); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	for _, cut := range []int{1, len(raw) / 4, len(raw) / 2, len(raw) - 1} {
		if _, err := Load(bytes.NewReader(raw[:cut]), ds); err == nil {
			t.Fatalf("Load accepted a snapshot truncated to %d/%d bytes", cut, len(raw))
		}
	}
}

// TestLoadDecodesV1Snapshot keeps the old format readable: a snapshot
// declaring Format 1 (whose mask carries v1's reconstructed-support
// semantics) still loads.
func TestLoadDecodesV1Snapshot(t *testing.T) {
	ds := tinyDataset(t, "traffic")
	model, err := Train(ds, tinyOptions())
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := model.Save(&buf); err != nil {
		t.Fatal(err)
	}
	v1Mask := model.maskFromSupport()
	r := reencode(t, buf.Bytes(), func(s *modelSnapshot) {
		s.Format = 1
		s.MaskData = v1Mask.Data // what a v1 writer actually stored
	})
	loaded, err := Load(r, ds)
	if err != nil {
		t.Fatalf("v1 snapshot no longer loads: %v", err)
	}
	// Predictions still match: the machine realizes the same couplings.
	_, test := ds.Split()
	p1, err := model.Predict(test[0])
	if err != nil {
		t.Fatal(err)
	}
	p2, err := loaded.Predict(test[0])
	if err != nil {
		t.Fatal(err)
	}
	for i := range p1.Values {
		if p1.Values[i] != p2.Values[i] {
			t.Fatalf("prediction %d differs after v1 reload: %g vs %g", i, p1.Values[i], p2.Values[i])
		}
	}
}

// TestLoadNormalizesWorkers: Opts.Workers is a GOMAXPROCS snapshot of the
// saving host and must be re-normalized to the loading process's default.
func TestLoadNormalizesWorkers(t *testing.T) {
	ds := tinyDataset(t, "traffic")
	model, err := Train(ds, tinyOptions())
	if err != nil {
		t.Fatal(err)
	}
	model.Opts.Workers = 1337 // pretend the saver ran on a 1337-core host
	var buf bytes.Buffer
	if err := model.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(&buf, ds)
	if err != nil {
		t.Fatal(err)
	}
	if want := runtime.GOMAXPROCS(0); loaded.Opts.Workers != want {
		t.Fatalf("loaded Opts.Workers = %d, want the local default %d", loaded.Opts.Workers, want)
	}
}
