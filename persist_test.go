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
