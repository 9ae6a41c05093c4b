package main

import (
	"fmt"
	"math"
	"time"

	"dsgl"
	"dsgl/internal/community"
	"dsgl/internal/engine"
	"dsgl/internal/metrics"
	"dsgl/internal/pattern"
	"dsgl/internal/pool"
	"dsgl/internal/scalable"
	"dsgl/internal/train"
)

// trafficDataSeed fixes the traffic series every traffic workload trains
// on. Dataset seeds change the learned graph (wormhole count, couplings
// per PE) and with it the anneal's cost, which moved eval throughput by
// about 10% between seeds; the workload seed instead drives the model's
// anneal seeds and each workload's op order, arrivals and offsets.
const trafficDataSeed = 7

// trafficSetup is the program's work before the first op of a traffic
// workload: generate the series and train the default pipeline on it.
func trafficSetup(tr *tracer, op, nodes int, seed uint64) (*dsgl.Dataset, *dsgl.Model, error) {
	id := tr.begin("datasets.generate", op, 0)
	ds, err := dsgl.NewDataset("traffic", dsgl.DatasetConfig{N: nodes, Seed: trafficDataSeed})
	tr.end(id)
	if err != nil {
		return nil, nil, err
	}
	id = tr.begin("dsgl.train", op, 0)
	m, err := dsgl.Train(ds, dsgl.Options{Seed: seed})
	tr.end(id)
	if err != nil {
		return nil, nil, err
	}
	return ds, m, nil
}

// The constants dsgl.Train uses internally: the ridge-lambda grid, the
// share of training windows held out to pick from it, and Louvain's pass
// limit. The replay below re-derives Train from them and proves it did by
// matching Train's output bit for bit.
var lambdaGrid = []float64{0.03, 0.1, 0.3, 1, 3}

const louvainPasses = 10

func validationCount(n int) int { return n * 3 / 20 }

// replayTrain re-runs the default scalable pipeline of dsgl.Train stage by
// stage through each layer's public functions, one span per stage, so
// training time can be split by layer. It fails unless the replay picks
// m's ridge lambda and reproduces m's dense and tuned parameters bit for
// bit, which makes the split the real pipeline and not a look-alike. It
// returns the freshly built machine, whose plan cache is still cold.
func replayTrain(tr *tracer, op int, ds *dsgl.Dataset, m *dsgl.Model) (*scalable.Machine, error) {
	o := m.Opts
	root := tr.begin("train.replay", op, 0)
	defer tr.end(root)
	trainW, _ := ds.Split()
	samples := make([][]float64, len(trainW))
	for i, w := range trainW {
		samples[i] = w.Full
	}
	observed := ds.ObservedMask()

	id := tr.begin("train.lambda_grid", op, root)
	lam, err := selectLambda(tr, op, id, ds, samples, o.Workers)
	tr.end(id)
	if err != nil {
		return nil, err
	}
	if lam != o.RidgeLambda {
		return nil, fmt.Errorf("train replay picked lambda %g, dsgl.Train picked %g", lam, o.RidgeLambda)
	}

	id = tr.begin("train.ridge", op, root)
	dense, err := train.RidgeInit(samples, observed, lam)
	tr.end(id)
	if err != nil {
		return nil, err
	}
	if !sameParams(dense, m.Dense) {
		return nil, fmt.Errorf("train replay: dense parameters differ from dsgl.Train's")
	}

	id = tr.begin("community.prune", op, root)
	pruned := community.PruneToDensity(dense.J, o.Density)
	weights := community.CouplingWeights(pruned)
	tr.end(id)

	id = tr.begin("community.louvain", op, root)
	part := community.Louvain(weights, louvainPasses)
	tr.end(id)

	id = tr.begin("community.redistribute", op, root)
	assign, err := community.Redistribute(part, weights, o.PECapacity)
	tr.end(id)
	if err != nil {
		return nil, err
	}

	id = tr.begin("pattern.mask", op, root)
	mask, _ := pattern.BuildMask(assign, pruned, pattern.Config{Kind: o.Pattern, Wormholes: o.Wormholes})
	support := community.SupportMask(pruned, 0)
	for i := range mask.Data {
		mask.Data[i] = mask.Data[i] && support.Data[i]
	}
	tr.end(id)

	id = tr.begin("train.masked_ridge", op, root)
	tuned, err := train.MaskedRidge(samples, observed, mask, lam)
	tr.end(id)
	if err != nil {
		return nil, err
	}
	if !sameParams(tuned, m.Tuned) {
		return nil, fmt.Errorf("train replay: tuned parameters differ from dsgl.Train's")
	}

	id = tr.begin("scalable.build", op, root)
	mach, err := scalable.Build(tuned, assign, mask, scalable.Config{
		Lanes:            o.Lanes,
		TemporalDisabled: o.TemporalDisabled,
		SyncIntervalNs:   o.SyncIntervalNs,
		MaxTimeNs:        o.MaxInferNs,
		NodeNoise:        o.NodeNoise,
		CouplerNoise:     o.CouplerNoise,
		ShardWorkers:     o.ShardWorkers,
		ShardSyncNs:      o.ShardSyncNs,
		Seed:             o.Seed + 2,
	})
	tr.end(id)
	if err != nil {
		return nil, err
	}
	if mach.Stats() != m.Machine.Stats() {
		return nil, fmt.Errorf("train replay: machine stats %+v, dsgl.Train built %+v", mach.Stats(), m.Machine.Stats())
	}
	return mach, nil
}

// selectLambda is Train's lambda selection: one ridge fit per candidate
// on the worker pool, each scored by validation RMSE over the unknown
// entries, the first strict minimum winning.
func selectLambda(tr *tracer, op, parent int, ds *dsgl.Dataset, samples [][]float64, workers int) (float64, error) {
	nVal := validationCount(len(samples))
	if nVal < 4 {
		return 0, fmt.Errorf("train replay: %d training windows leave no validation slice", len(samples))
	}
	fit, val := samples[:len(samples)-nVal], samples[len(samples)-nVal:]
	unknown := ds.UnknownIndices()
	rmse := make([]float64, len(lambdaGrid))
	err := pool.RunErr(workers, len(lambdaGrid), func(i int) error {
		id := tr.begin("train.ridge_fit", op, parent)
		defer tr.end(id)
		p, err := train.RidgeInit(fit, ds.ObservedMask(), lambdaGrid[i])
		if err != nil {
			return err
		}
		buf := make([]float64, ds.WindowLen())
		var acc metrics.Accumulator
		for _, smp := range val {
			p.Regress(smp, buf)
			for _, idx := range unknown {
				acc.Add(buf[idx], smp[idx])
			}
		}
		rmse[i] = acc.RMSE()
		return nil
	})
	if err != nil {
		return 0, err
	}
	best, bestRMSE := lambdaGrid[0], math.Inf(1)
	for i, lam := range lambdaGrid {
		if rmse[i] < bestRMSE {
			best, bestRMSE = lam, rmse[i]
		}
	}
	return best, nil
}

// sameParams compares two parameter sets bit for bit.
func sameParams(a, b *train.Params) bool {
	return a.J.Rows == b.J.Rows && a.J.Cols == b.J.Cols && sameBits(a.J.Data, b.J.Data) && sameBits(a.H, b.H)
}

// sameBits compares float slices bit for bit (NaN equals itself, -0 does
// not equal +0).
func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// trafficLedger is the traced part every traffic workload shares: replay
// training by stage, time the first plan compile on the replayed machine,
// then time inference on windows solo and batched. Solo anneals give the
// step count and ns per step (wall = steps × ns/step); the batch over the
// same windows gives the pool's efficiency and must equal the solo
// results bit for bit.
func trafficLedger(rc *runConfig, rep *report, ds *dsgl.Dataset, m *dsgl.Model, reps int) error {
	tr := rc.tr
	for i := 0; i < reps; i++ {
		mach, err := replayTrain(tr, i, ds, m)
		if err != nil {
			return err
		}
		probe, err := m.WindowObservations(ds.Window(0))
		if err != nil {
			return err
		}
		id := tr.begin("engine.plan_compile", i, 0)
		err = mach.Engine().EnsurePlan(probe)
		tr.end(id)
		if err != nil {
			return err
		}
	}
	for _, s := range []string{"datasets.generate", "train.lambda_grid", "train.ridge", "train.masked_ridge",
		"community.prune", "community.louvain", "community.redistribute", "pattern.mask", "scalable.build", "engine.plan_compile"} {
		rep.set(s+"_ms", tr.p50(s), len(tr.durations(s)))
	}

	_, test := ds.Split()
	windows := test[:min(len(test), ledgerWindows)]
	obs := make([][]engine.Observation, len(windows))
	for i, w := range windows {
		o, err := m.WindowObservations(w)
		if err != nil {
			return err
		}
		obs[i] = o
	}
	eng := m.Engine()
	base := eng.BaseSeed()
	st := eng.NewInferState()
	if _, err := eng.InferWith(st, obs[0], base); err != nil { // sizes the state's buffers
		return err
	}
	solo := make([]*engine.Result, len(obs))
	var soloNs, steps, switches, settled float64
	root := tr.begin("ledger.solo", 0, 0)
	for i := range obs {
		id := tr.begin("engine.infer_with", i, root)
		start := time.Now()
		res, err := eng.InferWith(st, obs[i], base+uint64(i))
		soloNs += float64(time.Since(start).Nanoseconds())
		tr.end(id)
		if err != nil {
			return err
		}
		solo[i] = res.Detach()
		steps += float64(res.Steps)
		switches += float64(res.Switches)
		if res.Settled {
			settled++
		}
	}
	tr.end(root)
	workers := m.Opts.Workers
	root = tr.begin("ledger.batch", 0, 0)
	id := tr.begin("engine.infer_batch", 0, root)
	start := time.Now()
	batch, err := eng.InferBatch(obs, workers)
	batchNs := float64(time.Since(start).Nanoseconds())
	tr.end(id)
	tr.end(root)
	if err != nil {
		return err
	}
	for i := range batch {
		if !sameBits(batch[i].Voltage, solo[i].Voltage) || batch[i].Steps != solo[i].Steps {
			rep.mismatch("InferBatch window %d differs from solo InferWith at the same seed", i)
		}
	}
	n := float64(len(obs))
	st2 := m.Machine.Stats()
	couplings := float64(st2.IntraCouplings + st2.InterCouplings)
	nsPerStep := soloNs / steps
	rep.set("scalable.steps_per_window", steps/n, len(obs))
	rep.set("scalable.ns_per_step", nsPerStep, int(steps))
	rep.set("scalable.switches_per_window", switches/n, len(obs))
	rep.set("scalable.settled_ratio", settled/n, len(obs))
	rep.set("scalable.couplings", couplings, 1)
	rep.set("mat.ns_per_coupling_step", nsPerStep/couplings, int(steps))
	// Computed, not measured: each stored coupling streams an int column
	// index, a float64 value and a float64 gathered voltage per step.
	rep.set("mat.bytes_per_step", 24*couplings, 1)
	rep.set("pool.efficiency", soloNs/(batchNs*float64(workers)), len(obs))
	rep.record["ledger_workers"] = workers
	return nil
}

// ledgerWindows is how many test windows the inference ledger anneals,
// solo and then batched.
const ledgerWindows = 32

// slidingCoverage builds the stream workload's tick sequence, the one
// bench_test.go's benchStreamSetup builds: subTicks sub-ticks per test
// window with observation values interpolated between consecutive
// windows, and a clamp block of half the nodes that slides one index at
// each window advance. A new clamp pattern therefore arrives every
// subTicks ticks, and the n patterns overflow the engine's plan LRU.
func slidingCoverage(m *dsgl.Model, test []dsgl.Window) [][]engine.Observation {
	n := m.Tuned.Dim()
	block := n / 2
	seq := make([][]engine.Observation, subTicks*n)
	for t := range seq {
		w0 := test[(t/subTicks)%len(test)].Full
		w1 := test[(t/subTicks+1)%len(test)].Full
		a := float64(t%subTicks) / subTicks
		seq[t] = make([]engine.Observation, block)
		for j := range seq[t] {
			idx := (t/subTicks + j) % n
			seq[t][j] = engine.Observation{Index: idx, Value: (1-a)*w0[idx] + a*w1[idx]}
		}
	}
	return seq
}

// subTicks is the number of stream ticks per dataset window.
const subTicks = 8
