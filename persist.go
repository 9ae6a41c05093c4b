package dsgl

import (
	"encoding/gob"
	"errors"
	"fmt"
	"io"
	"runtime"

	"dsgl/internal/community"
	"dsgl/internal/mat"
	"dsgl/internal/train"
)

// modelSnapshot is the serialized form of a trained Model: everything
// needed to rebuild the inference backend except the dataset itself (which
// is regenerable from its seed or reloadable from CSV).
type modelSnapshot struct {
	// Format guards against incompatible future layouts.
	Format int
	// Backend records which inference backend the model ran (v3+). Empty in
	// v1/v2 snapshots, which predate the dense backend and are always
	// scalable.
	Backend string

	DatasetName string
	WindowLen   int

	Opts Options

	JRows, JCols int
	JData        []float64
	H            []float64

	// Decomposition fields — populated for the scalable backend only; the
	// dense backend never runs placement or masking.
	PEOf         []int
	GridW, GridH int
	Capacity     int

	MaskRows, MaskCols int
	MaskData           []bool

	// Classes holds the per-node interaction-class labels of a decomposed
	// model (v4+; empty for monolithic models and older snapshots). The gob
	// wire layout is append-only, so pre-v4 snapshots decode with Classes
	// nil.
	Classes []int
}

// Snapshot formats.
//
// v1 stored a mask reconstructed from the tuned J's nonzero support, which
// silently dropped mask entries whose closed-form refit value is exactly
// zero — a loaded model then carried a narrower mask than the one it was
// trained under. v2 persists the model's actual coupling mask. v3 adds the
// Backend tag so dense (single-PE) models round-trip too; a v3 dense
// snapshot carries only the parameter set (no placement, no mask). The
// v4 adds the per-node interaction-class labels of heterogeneous
// decomposition (Options.Decompose). The wire layout is append-only, so
// Load accepts all four formats; v1/v2 snapshots predate the tag and
// always decode as scalable, and pre-v4 snapshots carry no class labels.
const (
	snapshotFormatV1 = 1
	snapshotFormatV2 = 2
	snapshotFormatV3 = 3
	snapshotFormat   = 4
)

// Save serializes the trained model so inference can resume in a later
// process without retraining. The dataset is not embedded; pass the same
// dataset to Load.
//
// Both backends are persistable. A scalable snapshot stores the parameters
// plus the decomposition (placement and coupling mask); a dense snapshot
// stores the parameter set alone — the single-PE DSPU is rebuilt from it
// deterministically, exactly as Train would.
func (m *Model) Save(w io.Writer) error {
	if m.Machine == nil && m.Dspu == nil {
		return errors.New("dsgl: Save needs a trained model")
	}
	opts := m.Opts
	opts.DenseInit = nil // never embed the dense phase in snapshots
	snap := modelSnapshot{
		Format:      snapshotFormat,
		Backend:     BackendDense,
		DatasetName: m.Dataset.Name,
		WindowLen:   m.Dataset.WindowLen(),
		Opts:        opts,
		JRows:       m.Tuned.J.Rows,
		JCols:       m.Tuned.J.Cols,
		JData:       m.Tuned.J.Data,
		H:           m.Tuned.H,
		Classes:     m.Classes,
	}
	if m.Machine != nil {
		mask := m.mask
		if mask == nil {
			// A hand-assembled Model without a retained mask: fall back to
			// the tuned support, which is a (possibly strict) subset of the
			// true mask.
			mask = m.maskFromSupport()
		}
		snap.Backend = BackendScalable
		snap.PEOf = m.Assignment.PEOf
		snap.GridW, snap.GridH = m.Assignment.GridW, m.Assignment.GridH
		snap.Capacity = m.Assignment.Capacity
		snap.MaskRows, snap.MaskCols, snap.MaskData = mask.Rows, mask.Cols, mask.Data
	}
	return gob.NewEncoder(w).Encode(&snap)
}

// maskFromSupport reconstructs a coupling mask from the tuned support. This
// was the only mask v1 snapshots stored; it loses mask entries whose refit
// value is exactly zero, so it survives solely as the Save fallback for
// models without a retained mask and as the v1 decoding semantics.
func (m *Model) maskFromSupport() *mat.Bool {
	n := m.Tuned.Dim()
	mask := mat.NewBool(n, n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i != j && m.Tuned.J.At(i, j) != 0 {
				mask.Set(i, j, true)
			}
		}
	}
	return mask
}

// validateParams checks the parameter block shared by both backends before
// any slice indexing, so corrupt or truncated snapshots surface as errors
// instead of panics.
func (snap *modelSnapshot) validateParams() error {
	if snap.JRows <= 0 || snap.JCols <= 0 {
		return fmt.Errorf("dsgl: snapshot J is %dx%d", snap.JRows, snap.JCols)
	}
	if snap.JRows != snap.JCols {
		return fmt.Errorf("dsgl: snapshot J is %dx%d, want square", snap.JRows, snap.JCols)
	}
	if got, want := len(snap.JData), snap.JRows*snap.JCols; got != want {
		return fmt.Errorf("dsgl: snapshot J data has %d entries, want %d", got, want)
	}
	if got, want := len(snap.H), snap.JRows; got != want {
		return fmt.Errorf("dsgl: snapshot H has %d entries, want %d", got, want)
	}
	return nil
}

// validateGeometry checks the scalable-backend decomposition block
// (placement, grid, mask) of a snapshot whose parameters passed
// validateParams.
func (snap *modelSnapshot) validateGeometry() error {
	if got, want := len(snap.PEOf), snap.JRows; got != want {
		return fmt.Errorf("dsgl: snapshot placement covers %d nodes, want %d", got, want)
	}
	if snap.MaskRows != snap.JRows || snap.MaskCols != snap.JCols {
		return fmt.Errorf("dsgl: snapshot mask is %dx%d, want %dx%d",
			snap.MaskRows, snap.MaskCols, snap.JRows, snap.JCols)
	}
	if got, want := len(snap.MaskData), snap.MaskRows*snap.MaskCols; got != want {
		return fmt.Errorf("dsgl: snapshot mask data has %d entries, want %d", got, want)
	}
	if snap.Capacity <= 0 {
		return fmt.Errorf("dsgl: snapshot PE capacity is %d", snap.Capacity)
	}
	// Redistribute always places n nodes on GridFor(n, Capacity); checking
	// that bounds the grid by the node count before Load allocates it.
	if w, h := community.GridFor(snap.JRows, snap.Capacity); snap.GridW != w || snap.GridH != h {
		return fmt.Errorf("dsgl: snapshot PE grid is %dx%d, want %dx%d for %d nodes at capacity %d",
			snap.GridW, snap.GridH, w, h, snap.JRows, snap.Capacity)
	}
	return nil
}

// Load rebuilds a trained model from a snapshot written by Save. ds must
// be the dataset the model was trained on (same name and window geometry).
// The snapshot's backend tag selects which backend is rebuilt; v1/v2
// snapshots predate the tag and load as scalable.
func Load(r io.Reader, ds *Dataset) (*Model, error) {
	var snap modelSnapshot
	if err := gob.NewDecoder(r).Decode(&snap); err != nil {
		return nil, fmt.Errorf("dsgl: decoding snapshot: %w", err)
	}
	switch snap.Format {
	case snapshotFormatV1, snapshotFormatV2:
		// Pre-backend formats: always the compiled scalable machine.
		snap.Backend = BackendScalable
	case snapshotFormatV3, snapshotFormat:
		if snap.Backend != BackendScalable && snap.Backend != BackendDense {
			return nil, fmt.Errorf("dsgl: snapshot backend %q unsupported (valid: %q, %q)",
				snap.Backend, BackendScalable, BackendDense)
		}
	default:
		return nil, fmt.Errorf("dsgl: snapshot format %d unsupported (want %d, %d, %d, or %d)",
			snap.Format, snapshotFormatV1, snapshotFormatV2, snapshotFormatV3, snapshotFormat)
	}
	if ds.Name != snap.DatasetName {
		return nil, fmt.Errorf("dsgl: snapshot is for dataset %q, got %q", snap.DatasetName, ds.Name)
	}
	if ds.WindowLen() != snap.WindowLen {
		return nil, fmt.Errorf("dsgl: snapshot window length %d, dataset has %d", snap.WindowLen, ds.WindowLen())
	}
	if err := snap.validateClasses(ds); err != nil {
		return nil, err
	}
	opts := snap.Opts
	// Opts.Workers is a GOMAXPROCS snapshot of the saving host — meaningless
	// here. Re-normalize to the loading process's default so a model saved
	// on a 128-core trainer doesn't spawn 128 workers on a 2-core server.
	opts.Workers = runtime.GOMAXPROCS(0)
	// Normalize the backend tag: pre-backend (v1/v2) snapshots carry an
	// empty Options.Backend field.
	opts.Backend = snap.Backend
	if err := opts.validate(); err != nil {
		return nil, fmt.Errorf("dsgl: snapshot options: %w", err)
	}
	if err := snap.validateParams(); err != nil {
		return nil, err
	}
	tuned := &train.Params{
		J: mat.NewDenseFrom(snap.JRows, snap.JCols, snap.JData),
		H: snap.H,
	}
	if err := tuned.Validate(); err != nil {
		return nil, fmt.Errorf("dsgl: snapshot parameters: %w", err)
	}
	// The dense phase is not persisted: Dense reuses Tuned. A dense
	// snapshot carries only the parameter set, rebuilt exactly as Train
	// built it.
	if snap.Backend == BackendDense {
		return newModel(ds, opts, tuned, tuned, nil, nil, snap.Classes)
	}
	if err := snap.validateGeometry(); err != nil {
		return nil, err
	}
	assign := &community.Assignment{
		PEOf:     snap.PEOf,
		NodesOf:  make([][]int, snap.GridW*snap.GridH),
		GridW:    snap.GridW,
		GridH:    snap.GridH,
		Capacity: snap.Capacity,
	}
	for node, pe := range assign.PEOf {
		if pe < 0 || pe >= len(assign.NodesOf) {
			return nil, fmt.Errorf("dsgl: snapshot places node %d on invalid PE %d", node, pe)
		}
		assign.NodesOf[pe] = append(assign.NodesOf[pe], node)
	}
	if err := assign.Validate(); err != nil {
		return nil, fmt.Errorf("dsgl: snapshot assignment: %w", err)
	}
	// v2 snapshots carry the model's real mask; v1 carried only the tuned
	// support (see the format constants).
	mask := &mat.Bool{Rows: snap.MaskRows, Cols: snap.MaskCols, Data: snap.MaskData}
	return newModel(ds, opts, tuned, tuned, assign, mask, snap.Classes)
}

// validateClasses checks the v4 class-label block: absent (monolithic or
// pre-v4) or exactly one non-negative label per dataset node.
func (snap *modelSnapshot) validateClasses(ds *Dataset) error {
	if len(snap.Classes) == 0 {
		return nil
	}
	if len(snap.Classes) != ds.N {
		return fmt.Errorf("dsgl: snapshot has %d class labels, dataset has %d nodes", len(snap.Classes), ds.N)
	}
	for i, c := range snap.Classes {
		if c < 0 {
			return fmt.Errorf("dsgl: snapshot class label %d at node %d is negative", c, i)
		}
	}
	return nil
}
