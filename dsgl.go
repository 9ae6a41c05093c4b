// Package dsgl is a software reproduction of DS-GL (ISCA 2024): a
// nature-powered graph-learning framework that maps graph-learning
// inference onto the natural annealing of a real-valued, scalable
// dynamical system.
//
// The package exposes the full pipeline of the paper:
//
//  1. Train a dense real-valued dynamical system (coupling matrix J and
//     self-reaction h) from spatio-temporal windows (Sec. III.B).
//  2. Decompose it: prune weak couplings to a target density, extract
//     communities (Louvain), redistribute them onto a PE grid, and
//     fine-tune under the interconnect-pattern mask
//     (Chain / Mesh / DMesh + Wormholes, Sec. IV.B).
//  3. Compile onto the Scalable DSPU simulator and run inference as
//     spatial or temporal+spatial co-annealing (Sec. IV.C-D).
//
// Quick start:
//
//	ds := dsgl.GenerateDataset("traffic", dsgl.DatasetConfig{})
//	model, _ := dsgl.Train(ds, dsgl.Options{})
//	rep, _ := model.Evaluate(nil) // test split
//	fmt.Printf("RMSE %.4g at %.3g µs/inference\n", rep.RMSE, rep.MeanLatencyUs)
package dsgl

import (
	"errors"
	"fmt"
	"math"
	"runtime"

	"dsgl/internal/community"
	"dsgl/internal/datasets"
	"dsgl/internal/dspu"
	"dsgl/internal/engine"
	"dsgl/internal/hetero"
	"dsgl/internal/mat"
	"dsgl/internal/metrics"
	"dsgl/internal/pattern"
	"dsgl/internal/pool"
	"dsgl/internal/scalable"
	"dsgl/internal/train"
)

// Pattern selects the inter-PE interconnect pattern.
type Pattern = pattern.Kind

// The interconnect patterns of Sec. IV.B, re-exported for callers.
const (
	Chain = pattern.Chain
	Mesh  = pattern.Mesh
	DMesh = pattern.DMesh
)

// Dataset re-exports the workload type.
type Dataset = datasets.Dataset

// DatasetConfig re-exports the generator configuration.
type DatasetConfig = datasets.Config

// Window re-exports the windowed-sample type.
type Window = datasets.Window

// GenerateDataset builds one of the named evaluation workloads
// ("traffic", "pm25", "pm10", "no2", "o3", "covid", "stock", "housing",
// "climate", "heteromix", "heterokinetics", "heteroflow"). It panics on an
// unknown name; NewDataset is the error-returning variant every serving
// entry point uses.
func GenerateDataset(name string, cfg DatasetConfig) *Dataset {
	return datasets.Generate(name, cfg)
}

// NewDataset builds one of the named evaluation workloads, returning an
// error for unknown names instead of panicking.
func NewDataset(name string, cfg DatasetConfig) (*Dataset, error) {
	return datasets.New(name, cfg)
}

// DatasetNames lists the seven single-feature workloads.
func DatasetNames() []string { return datasets.Names() }

// MultiDatasetNames lists the two multi-feature workloads (Table IV).
func MultiDatasetNames() []string { return datasets.MultiNames() }

// Inference backends selectable via Options.Backend. Both run the shared
// engine core (internal/engine); they differ in the dynamical system the
// engine drives.
const (
	// BackendScalable is the default: the full pipeline (decomposition,
	// interconnect patterns, temporal multiplexing) compiled onto the
	// Scalable DSPU simulator.
	BackendScalable = "scalable"
	// BackendDense runs the phase-1 dense parameter set on a single-PE
	// Real-Valued DSPU — the Sec. III configuration — skipping
	// decomposition and hardware compilation entirely.
	BackendDense = "dense"
)

// Backends lists the valid Options.Backend values.
func Backends() []string { return []string{BackendScalable, BackendDense} }

// Options configures the DS-GL pipeline.
//
// Zero-value convention: for every numeric field, 0 means "use the
// documented default", never "literally zero". Fields whose zero default
// differs from their literal zero (Wormholes, TrainEpochs, Workers) accept
// a negative value as the explicit "off"/minimum sentinel, as noted on the
// field.
type Options struct {
	// Backend selects the inference backend: BackendScalable (the default;
	// empty string means scalable) or BackendDense. Train rejects any other
	// value. With BackendDense the pipeline stops after phase 1 and the
	// Model runs the dense parameter set on a single dense DSPU; the
	// decomposition options (Pattern, Density, Wormholes, PECapacity,
	// Lanes, TemporalDisabled, SyncIntervalNs, FineTuneEpochs) are unused,
	// and Train rejects non-zero NodeNoise or CouplerNoise: the dense DSPU
	// models no analog noise.
	Backend string
	// Pattern is the inter-PE interconnect. The zero value is Chain (the
	// cheapest); the paper's richest pattern is DMesh.
	Pattern Pattern
	// Density is the post-decomposition coupling-matrix density target
	// (proportion of non-zeros; the paper sweeps 0..0.25). Default 0.10.
	Density float64
	// Wormholes is the budget of remote-PE super-connections. 0 means the
	// default budget of 4; pass a negative value to disable wormholes
	// entirely (a budget of literally zero).
	Wormholes int
	// PECapacity is K, nodes per PE. Default 48 — window systems then
	// span multi-PE grids where the interconnect patterns genuinely
	// differ.
	PECapacity int
	// Lanes is L, analog lanes per portal. Default 30 (the paper's pick).
	Lanes int
	// TemporalDisabled selects the DS-GL-Spatial variant.
	TemporalDisabled bool
	// RidgeLambda is the closed-form solver's ridge strength. Zero (the
	// default) selects it automatically on a validation slice of the
	// training windows.
	RidgeLambda float64
	// TrainEpochs > 0 adds gradient refinement after the closed-form dense
	// solution. 0 means the default — no refinement, normalized to the -1
	// sentinel by fillDefaults — so any negative value likewise selects
	// "closed form only"; there is no meaningful "zero epochs but on"
	// state. FineTuneEpochs > 0 adds gradient refinement after the
	// closed-form masked re-solve; 0 or negative means closed form only
	// (no sentinel needed: the default and literal zero coincide).
	TrainEpochs, FineTuneEpochs int
	// SyncIntervalNs is the inter-tile synchronization interval (default
	// 200 ns, the hardware-supported rate).
	SyncIntervalNs float64
	// MaxInferNs bounds one inference (default 10000 ns; Fig. 11 sweeps
	// up to 20 µs).
	MaxInferNs float64
	// NodeNoise / CouplerNoise inject relative Gaussian disturbances
	// (Fig. 13).
	NodeNoise, CouplerNoise float64
	// DenseInit, when non-nil, supplies a pre-trained dense parameter set
	// and skips phase 1 — parameter sweeps over density/pattern reuse one
	// dense model this way.
	DenseInit *train.Params
	// Workers sizes the worker pool used by EvaluateParallel and the
	// ridge-lambda selection grid. 0 means the default,
	// runtime.GOMAXPROCS(0); pass a negative value to force a sequential
	// (single-worker) pool. Parallel results are bit-identical to
	// sequential ones — every window is seeded by its index, not by
	// scheduling order — so Workers is purely a throughput knob.
	Workers int
	// ShardWorkers > 1 turns on the intra-inference sharded anneal on the
	// scalable backend: the graph is partitioned into up to ShardWorkers
	// balanced shards along Louvain super-community (PE) boundaries, each
	// annealing on its own goroutine with cross-shard couplings held stale
	// between synchronization rounds (the same sample-and-hold discipline
	// the temporal slices use). Sharded inference is deterministic per seed
	// and settles to the sequential fixed point within the settle-residual
	// tolerance (the sharded-fixed-point verify invariant), but is NOT
	// bit-identical to it. 0 or 1 (the default) keeps the exact sequential
	// anneal; machines with injected analog noise or a single community
	// always run exact.
	ShardWorkers int
	// ShardSyncNs is the simulated interval between cross-shard coupling
	// refreshes. 0 selects SyncIntervalNs (cross-shard staleness matched to
	// the hardware's inter-tile sync rate); values at or below the
	// integration step disable sharding rather than pretend a per-step
	// exchange, which the exact path already is.
	ShardSyncNs float64
	// Decompose turns on heterogeneous decomposition (ROADMAP item 5):
	// nodes are partitioned into interaction classes (internal/hetero),
	// phase 1 and the masked refit fit per-class-pair J blocks
	// (train.BlockRidge / train.BlockMaskedRidge), and the Louvain
	// partition is refined along class boundaries before sharding so no
	// shard mixes classes. With Classes == 1 the decomposed pipeline is
	// bit-identical to the monolithic one (verify invariant 10).
	Decompose bool
	// Classes is K, the number of interaction classes when Decompose is
	// set. 0 means the default of 3; ignored when Decompose is false.
	Classes int
	// ClassMode selects the node profile used for class assignment:
	// "stats" (the default) or "embed" (graph-propagated statistics). See
	// internal/hetero. Ignored when Decompose is false.
	ClassMode string
	// Seed makes the pipeline deterministic.
	Seed uint64
}

func (o *Options) fillDefaults() {
	if o.Backend == "" {
		o.Backend = BackendScalable
	}
	if o.Density == 0 {
		o.Density = 0.10
	}
	if o.Wormholes == 0 {
		o.Wormholes = 4
	}
	if o.PECapacity == 0 {
		o.PECapacity = 48
	}
	if o.Lanes == 0 {
		o.Lanes = 30
	}
	if o.TrainEpochs == 0 {
		o.TrainEpochs = -1
	}
	if o.SyncIntervalNs == 0 {
		o.SyncIntervalNs = 200
	}
	if o.MaxInferNs == 0 {
		o.MaxInferNs = 10000
	}
	if o.Workers == 0 {
		o.Workers = runtime.GOMAXPROCS(0)
	}
	if o.Workers < 0 {
		o.Workers = 1
	}
	if o.Decompose && o.Classes == 0 {
		o.Classes = 3
	}
}

// validate is the one gate on Options: Train runs it after fillDefaults and
// Load on a snapshot's options. NaN fails every comparison, so each bound
// is written to reject it too.
func (o *Options) validate() error {
	if o.Backend != BackendScalable && o.Backend != BackendDense {
		return errUnknownBackend(o.Backend)
	}
	if !(o.Density > 0 && o.Density <= 1) {
		return fmt.Errorf("dsgl: Density %v outside (0, 1]", o.Density)
	}
	for _, f := range []struct {
		name      string
		v         float64
		allowZero bool
	}{
		{"RidgeLambda", o.RidgeLambda, true}, // 0: select on validation data
		{"NodeNoise", o.NodeNoise, true},
		{"CouplerNoise", o.CouplerNoise, true},
		{"MaxInferNs", o.MaxInferNs, false},
		{"SyncIntervalNs", o.SyncIntervalNs, false},
	} {
		if math.IsNaN(f.v) || math.IsInf(f.v, 0) || f.v < 0 || (f.v == 0 && !f.allowZero) {
			return fmt.Errorf("dsgl: %s %v out of range", f.name, f.v)
		}
	}
	if math.IsNaN(o.ShardSyncNs) || math.IsInf(o.ShardSyncNs, 0) {
		return fmt.Errorf("dsgl: ShardSyncNs %v must be finite", o.ShardSyncNs)
	}
	if o.Backend == BackendDense && (o.NodeNoise != 0 || o.CouplerNoise != 0) {
		return errors.New("dsgl: the dense backend models no analog noise; NodeNoise and CouplerNoise must be 0")
	}
	return nil
}

// Model is a trained, decomposed, and hardware-compiled DS-GL system for
// one dataset.
type Model struct {
	Dataset *Dataset
	Opts    Options
	// Dense is the pre-decomposition parameter set.
	Dense *train.Params
	// Tuned is the pattern-confined fine-tuned parameter set the hardware
	// runs.
	Tuned *train.Params
	// Assignment maps window-vector nodes to PEs. Nil for BackendDense.
	Assignment *community.Assignment
	// Machine is the compiled Scalable DSPU. Nil for BackendDense.
	Machine *scalable.Machine
	// Dspu is the single-PE dense DSPU. Nil for BackendScalable.
	Dspu *dspu.DSPU
	// Classes holds the per-node interaction-class labels when the model
	// was trained with Options.Decompose (length Dataset.N, labels
	// first-occurrence canonical); nil for monolithic models. Persisted by
	// snapshot format v4.
	Classes []int

	// mask is the interconnect coupling mask the machine was compiled
	// under (pattern-legal ∩ density budget). It is retained verbatim so
	// Save persists the real mask rather than reconstructing it from the
	// tuned J's support — the two differ whenever the closed-form refit
	// drives a masked coupling to exactly zero.
	mask     *mat.Bool
	unknown  []int
	observed []bool
}

// errUnknownBackend formats the rejection for an unrecognized
// Options.Backend value, listing the valid choices.
func errUnknownBackend(name string) error {
	return fmt.Errorf("dsgl: unknown backend %q (valid: %q, %q)", name, BackendScalable, BackendDense)
}

// Train runs the full DS-GL pipeline on the dataset's training windows.
func Train(ds *Dataset, opts Options) (*Model, error) {
	opts.fillDefaults()
	if err := opts.validate(); err != nil {
		return nil, err
	}
	if err := ds.Validate(); err != nil {
		return nil, err
	}
	// Heterogeneous decomposition: assign every node an interaction class
	// and expand the labels across the flattened window so the training
	// and sharding stages below can consume them per variable.
	classes, classVars, err := assignClasses(ds, opts)
	if err != nil {
		return nil, err
	}
	clock := newStageClock()
	samples := ds.TrainSamples()
	mom, err := ridgeMoments(ds, samples, &opts, &clock)
	if err != nil {
		return nil, err
	}

	// Phase 1: dense real-valued training (Sec. III.B) — closed-form
	// ridge solution for the observed-to-unknown block, then gradient
	// refinement that may also grow unknown-to-unknown couplings.
	dense := opts.DenseInit
	if dense == nil {
		dense, err = trainDensePhase(ds, mom, samples, opts, classVars)
		if err != nil {
			return nil, err
		}
		clock.mark(stageRidge)
	} else if dense.Dim() != ds.WindowLen() {
		return nil, fmt.Errorf("dsgl: DenseInit dim %d, want %d", dense.Dim(), ds.WindowLen())
	}

	// The dense backend stops here: phase 1's parameter set runs directly
	// on a single-PE dense DSPU (Sec. III), with no decomposition and no
	// hardware compilation. Tuned aliases Dense so metrics/report code that
	// consults the "running" parameter set works unchanged.
	tuned := dense
	var assign *community.Assignment
	var mask *mat.Bool
	if opts.Backend == BackendScalable {
		tuned, assign, mask, err = decompose(ds, opts, dense, mom, samples, classVars, &clock)
		if err != nil {
			return nil, err
		}
	}
	m, err := newModel(ds, opts, dense, tuned, assign, mask, classes)
	if err != nil {
		return nil, err
	}
	clock.mark(stageBuild)
	clock.record()
	return m, nil
}

// decompose runs phase 2 (Sec. IV.B): prune the dense J to the density
// target, place its communities on the PE grid, build the interconnect
// mask, and refit the parameters under it.
func decompose(ds *Dataset, opts Options, dense *train.Params, mom *train.Moments, samples [][]float64, classVars []int, clock *stageClock) (*train.Params, *community.Assignment, *mat.Bool, error) {
	pruned := community.PruneToDensity(dense.J, opts.Density)
	weights := community.CouplingWeights(pruned)
	clock.mark(stagePrune)
	part := community.Louvain(weights, 10)
	if opts.Decompose {
		// Shards must respect class boundaries: split every Louvain
		// community along the class labels before redistribution. With a
		// single class this returns the partition label-for-label.
		part = community.RefineByClass(part, classVars)
	}
	clock.mark(stageLouvain)
	assign, err := community.Redistribute(part, weights, opts.PECapacity)
	if err != nil {
		return nil, nil, nil, fmt.Errorf("dsgl: redistribution: %w", err)
	}
	clock.mark(stageRedistribute)
	mask, _ := pattern.BuildMask(assign, pruned, pattern.Config{
		Kind:      opts.Pattern,
		Wormholes: opts.Wormholes,
	})
	// Intersect the pattern mask with the density budget: fine-tuning may
	// only repopulate entries that are both pattern-legal and within the
	// pruned support (keeping the density target).
	support := community.SupportMask(pruned, 0)
	for i := range mask.Data {
		mask.Data[i] = mask.Data[i] && support.Data[i]
	}
	clock.mark(stageMask)
	// Fine-tune with patterns: re-solve the training objective in closed
	// form with J confined to the mask. An optional gradient pass
	// (FineTuneEpochs > 0) can follow to grow unknown-to-unknown
	// couplings, but the closed-form refit is the default: it restores
	// the accuracy the sparsification lost without exposure-bias risk.
	var tuned *train.Params
	if opts.Decompose {
		tuned, err = mom.BlockMaskedRidge(classVars, mask, opts.RidgeLambda, opts.Workers)
	} else {
		tuned, err = mom.MaskedRidge(mask, opts.RidgeLambda, opts.Workers)
	}
	if err != nil {
		return nil, nil, nil, fmt.Errorf("dsgl: fine-tune: %w", err)
	}
	if opts.FineTuneEpochs > 0 {
		tuned, err = train.Fit(samples, train.Config{
			Epochs:    opts.FineTuneEpochs,
			LR:        0.002,
			Mask:      mask,
			Init:      tuned,
			RowWeight: unknownRowWeight(ds),
			Seed:      opts.Seed + 1,
		})
		if err != nil {
			return nil, nil, nil, fmt.Errorf("dsgl: fine-tune: %w", err)
		}
	}
	clock.mark(stageMaskedRidge)
	return tuned, assign, mask, nil
}

// newModel builds the backend opts.Backend selects around the parameter
// set it runs (phase 3, Sec. IV.C, on the scalable backend) and wraps it in
// a Model. Train, Load and DenseInfer all build models here, so a loaded
// model runs exactly the backend Train built. assign and mask are the
// decomposition; the dense backend has none.
func newModel(ds *Dataset, opts Options, dense, tuned *train.Params, assign *community.Assignment, mask *mat.Bool, classes []int) (*Model, error) {
	m := &Model{
		Dataset:    ds,
		Opts:       opts,
		Dense:      dense,
		Tuned:      tuned,
		Assignment: assign,
		Classes:    classes,
		mask:       mask,
		unknown:    ds.UnknownIndices(),
		observed:   ds.ObservedMask(),
	}
	var err error
	if opts.Backend == BackendDense {
		m.Dspu, err = dspu.New(tuned.J, tuned.H, dspu.Config{
			Seed:      opts.Seed + 2, // same anneal-seed slot the scalable machine uses
			MaxTimeNs: denseMaxInferNs,
		})
	} else {
		m.Machine, err = scalable.Build(tuned, assign, mask, scalable.Config{
			Lanes:            opts.Lanes,
			TemporalDisabled: opts.TemporalDisabled,
			SyncIntervalNs:   opts.SyncIntervalNs,
			MaxTimeNs:        opts.MaxInferNs,
			NodeNoise:        opts.NodeNoise,
			CouplerNoise:     opts.CouplerNoise,
			ShardWorkers:     opts.ShardWorkers,
			ShardSyncNs:      opts.ShardSyncNs,
			Seed:             opts.Seed + 2,
		})
	}
	if err != nil {
		return nil, fmt.Errorf("dsgl: building the %s backend: %w", opts.Backend, err)
	}
	return m, nil
}

// assignClasses runs the class-assignment stage when Options.Decompose is
// set: per-node labels from internal/hetero, plus their expansion across
// the flattened window layout ((s*N+n)*F+f inherits node n's class). Both
// slices are nil for monolithic training.
func assignClasses(ds *Dataset, opts Options) (classes, classVars []int, err error) {
	if !opts.Decompose {
		return nil, nil, nil
	}
	asg, err := hetero.Assign(ds, hetero.Config{K: opts.Classes, Mode: opts.ClassMode, Seed: opts.Seed})
	if err != nil {
		return nil, nil, fmt.Errorf("dsgl: class assignment: %w", err)
	}
	return asg.NodeClass, classVariables(ds, asg.NodeClass), nil
}

// classVariables expands per-node class labels across every window step
// and feature, matching the flattened window layout.
func classVariables(ds *Dataset, nodeClass []int) []int {
	out := make([]int, ds.WindowLen())
	k := 0
	for s := 0; s < ds.History+ds.Horizon; s++ {
		for n := 0; n < ds.N; n++ {
			for f := 0; f < ds.F; f++ {
				out[k] = nodeClass[n]
				k++
			}
		}
	}
	return out
}

// denseMaxInferNs is the anneal budget of the single-PE dense DSPU (used by
// BackendDense models and DenseInfer alike): dense systems have no slice
// switching, so they settle well within 2 µs.
const denseMaxInferNs = 2000

// regressionBackend is what the model and its verification need from
// either regression backend; *scalable.Machine and *dspu.DSPU both
// provide it.
type regressionBackend interface {
	Engine() *engine.Engine
	EffectiveJ() *mat.Dense
	ClampedEnergyAt(x []float64, clamped []bool) float64
	ResidualAt(x []float64, clamped []bool) (float64, error)
	SettleResidualTol() float64
}

// backend returns the backend the model runs.
func (m *Model) backend() regressionBackend {
	if m.Machine != nil {
		return m.Machine
	}
	return m.Dspu
}

// Engine returns the inference engine of the model's backend. Both
// backends expose the identical engine surface (Run, RunBatch,
// EnsurePlan, plan-cache stats), so everything downstream of Train is
// backend-agnostic. The serving layer (internal/serve) drives models
// through this handle: it is safe for concurrent use, and batch entry
// points are bit-identical to their solo equivalents per seed.
func (m *Model) Engine() *engine.Engine { return m.backend().Engine() }

// mode names the co-annealing method for predictions and reports.
func (m *Model) mode() string {
	if m.Machine != nil {
		return m.Machine.Stats().Mode.String()
	}
	return "dense"
}

// Prediction is the outcome of one window inference.
type Prediction struct {
	// Values are the predicted entries, aligned with UnknownIndices.
	Values []float64
	// Truth are the ground-truth entries for the same indices.
	Truth []float64
	// LatencyUs is the simulated annealing latency in microseconds.
	LatencyUs float64
	// Mode reports the co-annealing method the mapping used.
	Mode string
}

// Predict clamps the window's observed entries and anneals the unknown
// ones.
func (m *Model) Predict(w datasets.Window) (*Prediction, error) {
	return m.predictSeeded(w, m.Engine().BaseSeed())
}

// predictSeeded is Predict with an explicit anneal seed. Evaluate and
// EvaluateParallel both give window i the seed baseSeed + i, which is
// what makes the parallel path bit-identical to the sequential one.
func (m *Model) predictSeeded(w datasets.Window, seed uint64) (*Prediction, error) {
	obs, err := m.windowObservations(w)
	if err != nil {
		return nil, err
	}
	eng := m.Engine()
	res, err := eng.Run(eng.NewInferState(), engine.Request{Obs: obs, Seed: seed, Path: m.inferPath()})
	if err != nil {
		return nil, err
	}
	return m.predictionFrom(w, res), nil
}

// inferPath routes this model's window anneals: the community-sharded
// anneal when the user asked for shard workers on a scalable model, the
// planned path otherwise. The engine falls back to the exact path per call
// whenever the machine or the clamp pattern cannot shard, so routing here
// only consults the user's knob and the backend.
func (m *Model) inferPath() engine.Path {
	if m.Machine != nil && m.Opts.ShardWorkers > 1 {
		return engine.Sharded
	}
	return engine.Planned
}

// WindowObservations builds the clamp list for one window: every observed
// entry (per the dataset's observation mask) becomes one engine.Observation
// clamping its node. The window length is validated against the model
// dimension; a mismatched window is an error, never a silent partial clamp.
func (m *Model) WindowObservations(w datasets.Window) ([]engine.Observation, error) {
	return m.windowObservations(w)
}

// windowObservations builds the clamp list for one window.
func (m *Model) windowObservations(w datasets.Window) ([]engine.Observation, error) {
	if len(w.Full) != m.Tuned.Dim() {
		return nil, fmt.Errorf("dsgl: window has %d entries, model expects %d", len(w.Full), m.Tuned.Dim())
	}
	obs := make([]engine.Observation, 0, len(w.Full)-len(m.unknown))
	for i, isObs := range m.observed {
		if isObs {
			obs = append(obs, engine.Observation{Index: i, Value: w.Full[i]})
		}
	}
	return obs, nil
}

// predictionFrom extracts the unknown entries of an inference result.
func (m *Model) predictionFrom(w datasets.Window, res *engine.Result) *Prediction {
	p := &Prediction{
		Values:    make([]float64, len(m.unknown)),
		Truth:     make([]float64, len(m.unknown)),
		LatencyUs: res.LatencyNs / 1000,
		Mode:      m.mode(),
	}
	for k, idx := range m.unknown {
		p.Values[k] = res.Voltage[idx]
		p.Truth[k] = w.Full[idx]
	}
	return p
}

// Report summarizes an evaluation run.
type Report struct {
	RMSE float64
	MAE  float64
	// MAPE is the mean absolute percentage error over the prediction/truth
	// pairs whose |truth| >= metrics.MAPEEps. NaN when every pair was
	// skipped (render as "n/a", never as 0 — that would read as a perfect
	// score); MAPESkipped reports how many pairs the average excludes.
	MAPE          float64
	MAPESkipped   int
	MeanLatencyUs float64
	Windows       int
	Mode          string
	Stats         scalable.Stats
}

// Evaluate predicts every given window (nil = the dataset's test split)
// sequentially and reports aggregate accuracy and latency. Window i is
// annealed with seed machineSeed + i, so Evaluate is the bit-identical
// sequential reference for EvaluateParallel.
func (m *Model) Evaluate(windows []datasets.Window) (*Report, error) {
	if windows == nil {
		_, windows = m.Dataset.Split()
	}
	if len(windows) == 0 {
		return nil, errors.New("dsgl: no windows to evaluate")
	}
	if err := m.ensurePlan(); err != nil {
		return nil, err
	}
	seed := m.Engine().BaseSeed()
	// One accumulator carries both the squared and absolute error sums.
	var acc metrics.Accumulator
	var lat float64
	for i, w := range windows {
		p, err := m.predictSeeded(w, seed+uint64(i))
		if err != nil {
			return nil, err
		}
		acc.AddVec(p.Values, p.Truth)
		lat += p.LatencyUs
	}
	return m.report(acc, lat, len(windows)), nil
}

// EvaluateParallel is Evaluate fanned across the batch-inference engine's
// worker pool. workers <= 0 selects Options.Workers (which itself defaults
// to runtime.GOMAXPROCS(0)). Because every window's anneal is seeded by its
// index and the metrics are accumulated in window order after the batch
// completes, the report is bit-identical to Evaluate's for any worker
// count — parallelism changes throughput, never results.
func (m *Model) EvaluateParallel(windows []datasets.Window, workers int) (*Report, error) {
	if windows == nil {
		_, windows = m.Dataset.Split()
	}
	if len(windows) == 0 {
		return nil, errors.New("dsgl: no windows to evaluate")
	}
	if workers <= 0 {
		workers = m.Opts.Workers
	}
	if err := m.ensurePlan(); err != nil {
		return nil, err
	}
	seed, path := m.Engine().BaseSeed(), m.inferPath()
	reqs := make([]engine.Request, len(windows))
	for i, w := range windows {
		obs, err := m.windowObservations(w)
		if err != nil {
			return nil, err
		}
		reqs[i] = engine.Request{Obs: obs, Seed: seed + uint64(i), Path: path}
	}
	results, err := m.Engine().RunBatch(reqs, workers)
	if err != nil {
		return nil, err
	}
	var acc metrics.Accumulator
	var lat float64
	for i, res := range results {
		p := m.predictionFrom(windows[i], res)
		acc.AddVec(p.Values, p.Truth)
		lat += p.LatencyUs
	}
	return m.report(acc, lat, len(windows)), nil
}

// EnsurePlan pre-compiles the clamp plan for the model's fixed observation
// pattern. The serving layer's model registry calls this at load time so a
// model starts answering requests with a warm plan cache instead of
// compiling inside the first request's anneal.
func (m *Model) EnsurePlan() error { return m.ensurePlan() }

// PlanCacheStats reports the model engine's cumulative clamp-plan cache
// hit and miss counts (a miss compiles a plan). The registry warmup test
// and the serving layer's /v1/models listing read these.
func (m *Model) PlanCacheStats() (hits, misses uint64) {
	return m.Engine().PlanCacheStats()
}

// ensurePlan pre-compiles the machine's clamp plan for the model's fixed
// observation pattern. Every window of an evaluation run clamps the same
// node set — only the values differ — so compiling the single shared plan
// here, once, means the whole run (sequential or fanned across workers)
// starts with a cache hit instead of compiling inside the first window's
// inference. Plans depend on observation indices only; the zero values in
// the probe observations are never read.
func (m *Model) ensurePlan() error {
	obs := make([]engine.Observation, 0, len(m.observed))
	for i, isObs := range m.observed {
		if isObs {
			obs = append(obs, engine.Observation{Index: i})
		}
	}
	return m.Engine().EnsurePlan(obs)
}

// report assembles the aggregate evaluation report. A dense-backend model
// has no compiled machine, so its Stats stay zero and Mode reads "dense".
func (m *Model) report(acc metrics.Accumulator, latUs float64, windows int) *Report {
	rep := &Report{
		RMSE:          acc.RMSE(),
		MAE:           acc.MAE(),
		MAPE:          acc.MAPE(),
		MAPESkipped:   acc.MAPESkipped(),
		MeanLatencyUs: latUs / float64(windows),
		Windows:       windows,
		Mode:          m.mode(),
	}
	if m.Machine != nil {
		rep.Stats = m.Machine.Stats()
	}
	return rep
}

// lambdaCandidates is the grid searched when Options.RidgeLambda is zero.
var lambdaCandidates = []float64{0.03, 0.1, 0.3, 1, 3}

// validationCount returns the size of the lambda-selection validation
// slice for n training windows: the last 15% (floor, in exact integer
// arithmetic: n*3/20), pinned by TestValidationCountPinsSplit. Before this
// was reconciled the code took n/7 (~14.3%) while the doc claimed 15%.
func validationCount(n int) int {
	return n * 3 / 20
}

// ridgeMoments accumulates the ridge moments over every training sample,
// in one pass shared by every closed-form fit of the pipeline: the lambda
// grid, the dense fit and the masked refit. When opts.RidgeLambda is zero
// it picks lambda on the way: it accumulates the fit prefix, solves and
// scores the grid from those moments (selectLambda), and only then adds
// the validation suffix. Moments are plain sums in sample order, so the
// result is exactly what one pass over all samples accumulates.
func ridgeMoments(ds *Dataset, samples [][]float64, opts *Options, clock *stageClock) (*train.Moments, error) {
	mom, err := train.NewMoments(ds.ObservedMask())
	if err != nil {
		return nil, fmt.Errorf("dsgl: ridge moments: %w", err)
	}
	added := 0
	if opts.RidgeLambda == 0 {
		opts.RidgeLambda = 0.1 // too little data to validate; a safe default
		if nVal := validationCount(len(samples)); nVal >= 4 {
			added = len(samples) - nVal
			if err := mom.Add(samples[:added], opts.Workers); err != nil {
				return nil, fmt.Errorf("dsgl: ridge moments: %w", err)
			}
			clock.mark(stageMoments)
			lam, err := selectLambda(mom, samples[added:], ds.UnknownIndices(), opts.Workers)
			if err != nil {
				return nil, fmt.Errorf("dsgl: lambda selection: %w", err)
			}
			clock.mark(stageLambdaGrid)
			opts.RidgeLambda = lam
		}
	}
	if err := mom.Add(samples[added:], opts.Workers); err != nil {
		return nil, fmt.Errorf("dsgl: ridge moments: %w", err)
	}
	clock.mark(stageMoments)
	return mom, nil
}

// selectLambda picks the ridge strength that minimizes validation RMSE
// over the unknown entries: the first strict minimum of lambdaRMSE in grid
// order.
func selectLambda(mom *train.Moments, val [][]float64, unknown []int, workers int) (float64, error) {
	rmse, err := lambdaRMSE(mom, val, unknown, workers)
	if err != nil {
		return 0, err
	}
	best, bestRMSE := lambdaCandidates[0], math.Inf(1)
	for i, lam := range lambdaCandidates {
		if rmse[i] < bestRMSE {
			bestRMSE = rmse[i]
			best = lam
		}
	}
	return best, nil
}

// lambdaRMSE scores every lambda candidate by its validation RMSE over the
// unknown entries. mom holds the moments of the fit prefix and val is the
// validation slice: the last 15% of the training windows (time-ordered, so
// no leakage; see validationCount). Every candidate is solved from the
// same moments and scored from its weights alone — with no
// unknown-to-unknown couplings the clamped equilibrium equals the one-shot
// regression from the observed entries. The candidates are independent,
// so they fan out over the shared worker pool, each writing only its own
// score; a worker solves its candidates one after the other in one
// Workspace and predicts four validation samples per pass over the
// weights.
func lambdaRMSE(mom *train.Moments, val [][]float64, unknown []int, workers int) ([]float64, error) {
	const group = 4
	workers = pool.Clamp(workers, len(lambdaCandidates))
	ws := make([]train.Workspace, workers)
	rmse := make([]float64, len(lambdaCandidates))
	err := pool.RunWorkersErr(workers, len(lambdaCandidates), func(worker, i int) error {
		w, err := mom.Weights(lambdaCandidates[i], 1, &ws[worker])
		if err != nil {
			return err
		}
		pred := make([][]float64, group)
		for k := range pred {
			pred[k] = make([]float64, len(unknown))
		}
		var acc metrics.Accumulator
		for s := 0; s < len(val); s += group {
			smps := val[s:min(s+group, len(val))]
			mom.Predict(w, smps, pred)
			for k, smp := range smps {
				for j, idx := range unknown {
					acc.Add(pred[k][j], smp[idx])
				}
			}
		}
		rmse[i] = acc.RMSE()
		return nil
	})
	return rmse, err
}

// unknownRowWeight is the gradient trainer's loss weighting: observed
// entries are clamped during inference, so their regression rows never
// act; weighting them out of the loss devotes the entire coupling budget
// to the predicted variables.
func unknownRowWeight(ds *Dataset) []float64 {
	rowWeight := make([]float64, ds.WindowLen())
	for _, idx := range ds.UnknownIndices() {
		rowWeight[idx] = 1
	}
	return rowWeight
}

// trainDensePhase runs phase 1: ridge closed form from the all-sample
// moments plus optional gradient refinement (skipped when
// opts.TrainEpochs < 0). A non-nil classVars selects the block-structured
// solve (per-class-pair ridge blocks); the optional gradient refinement
// stays class-agnostic — the masked refit of phase 2 re-imposes the block
// structure on everything the hardware runs.
func trainDensePhase(ds *Dataset, mom *train.Moments, samples [][]float64, opts Options, classVars []int) (*train.Params, error) {
	var init *train.Params
	var err error
	if classVars != nil {
		init, err = mom.BlockRidge(classVars, opts.RidgeLambda, opts.Workers)
	} else {
		init, err = mom.Ridge(opts.RidgeLambda, opts.Workers)
	}
	if err != nil {
		return nil, fmt.Errorf("dsgl: ridge initialization: %w", err)
	}
	if opts.TrainEpochs < 0 {
		return init, nil
	}
	dense, err := train.Fit(samples, train.Config{
		Epochs:    opts.TrainEpochs,
		LR:        0.01,
		Init:      init,
		RowWeight: unknownRowWeight(ds),
		Seed:      opts.Seed,
	})
	if err != nil {
		return nil, fmt.Errorf("dsgl: dense training: %w", err)
	}
	return dense, nil
}

// TrainDense trains only the dense Real-Valued DSPU (no decomposition) —
// the Sec. III configuration. The result can be run on a single dense DSPU
// via DenseInfer or passed to Train as Options.DenseInit.
func TrainDense(ds *Dataset, opts Options) (*train.Params, error) {
	opts.fillDefaults()
	if err := opts.validate(); err != nil {
		return nil, err
	}
	// Same admission check Train performs: a malformed dataset must surface
	// here as an error, not as a panic deep inside Split or the ridge solve.
	if err := ds.Validate(); err != nil {
		return nil, err
	}
	_, classVars, err := assignClasses(ds, opts)
	if err != nil {
		return nil, err
	}
	clock := newStageClock()
	samples := ds.TrainSamples()
	mom, err := ridgeMoments(ds, samples, &opts, &clock)
	if err != nil {
		return nil, err
	}
	dense, err := trainDensePhase(ds, mom, samples, opts, classVars)
	if err != nil {
		return nil, err
	}
	clock.mark(stageRidge)
	clock.record()
	return dense, nil
}

// DenseInfer runs one window inference on a dense (single-PE) Real-Valued
// DSPU built from params.
func DenseInfer(ds *Dataset, params *train.Params, w datasets.Window, seed uint64) (*Prediction, error) {
	// The dataset's observation mask must fit the parameters; the window
	// itself is checked against them by predictSeeded.
	if got := ds.WindowLen(); got != params.Dim() {
		return nil, fmt.Errorf("dsgl: dataset window length %d, parameters expect %d", got, params.Dim())
	}
	m, err := newModel(ds, Options{Backend: BackendDense}, params, params, nil, nil, nil)
	if err != nil {
		return nil, err
	}
	return m.predictSeeded(w, seed)
}
