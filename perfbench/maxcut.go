package main

import (
	"bytes"
	"fmt"
	"math"
	"runtime"
	"time"

	"dsgl"
	"dsgl/internal/engine"
	"dsgl/internal/ising"
	"dsgl/internal/opt"
)

const (
	maxcutNodes  = 800
	maxcutDegree = 6
	// maxcutSetupReps is how many times maxcut-g800 parses its instance
	// per run. One parse takes 5-8 ms, and which of the two the host gives
	// holds for tens to hundreds of milliseconds, so the reps span about
	// 1.5 s for their median to reflect more than one host state.
	maxcutSetupReps = 200
	// maxcutTracedOps is the traced run's fixed solve count (each pass).
	maxcutTracedOps = 64
	// maxcutLedgerReps is how many times the traced run replays one solve
	// restart by restart.
	maxcutLedgerReps = 8
)

// runMaxcut is maxcut-g800: a seeded 800-node, degree-6 Gset instance,
// parsed from its text form, then one client looping dsgl.SolveMaxCut
// with the workload seed and default options (metropolis dynamics,
// geometric schedule, 200 steps, 4 restarts, default workers).
func runMaxcut(rc *runConfig, rep *report) error {
	g, err := opt.RandomGraph(maxcutNodes, maxcutDegree, false, rc.seed)
	if err != nil {
		return err
	}
	var text bytes.Buffer
	if err := g.WriteGset(&text); err != nil {
		return err
	}
	var inst *opt.Instance
	setup, err := timeSetups(maxcutSetupReps, func(i int) (err error) {
		id := rc.tr.begin("opt.parse", i, 0)
		inst, err = opt.ParseGset(g.Name, bytes.NewReader(text.Bytes()))
		rc.tr.end(id)
		return err
	})
	if err != nil {
		return err
	}
	rep.set("setup_s", setup, maxcutSetupReps)

	opts := dsgl.OptOptions{Seed: rc.seed}
	if _, err := dsgl.SolveMaxCut(inst, opts); err != nil { // warm-up
		return err
	}
	// The reference every solve must match: the same solve on one worker.
	ref, err := dsgl.SolveMaxCut(inst, dsgl.OptOptions{Seed: rc.seed, Workers: 1})
	if err != nil {
		return err
	}
	if rc.tr != nil {
		if err := maxcutLedger(rc, rep, inst, ref); err != nil {
			return err
		}
	}
	mc := &maxcutRun{inst: inst, opts: opts, ref: ref}
	runtime.GC()
	if rc.tr != nil {
		m0 := readMem()
		plainWall := mc.phase(nil, maxcutTracedOps, time.Time{}, rep)
		rep.setGC(memDelta(m0, readMem(), maxcutTracedOps), maxcutTracedOps)
		runtime.GC()
		tracedWall := mc.phase(rc.tr, maxcutTracedOps, time.Time{}, rep)
		rep.set("trace.overhead_ratio", tracedWall.Seconds()/plainWall.Seconds()-1, 2*maxcutTracedOps)
	} else {
		m0 := readMem()
		wall := mc.phase(nil, math.MaxInt, time.Now().Add(rc.seconds), rep)
		rep.set("max_rss_mb", maxRSSMB(), 1)
		rep.record["gc"] = memDelta(m0, readMem(), rep.attempted)
		rep.set("ops_per_s", float64(rep.attempted-rep.failed)/wall.Seconds(), rep.attempted)
		if err := rep.latencies(rc, mc.log, rc.seconds); err != nil {
			return err
		}
		rep.record["ops"] = rep.attempted
	}
	rep.record["cut"] = ref.Cut
	return nil
}

// maxcutRun is the state of maxcut-g800's op loop.
type maxcutRun struct {
	inst *opt.Instance
	opts dsgl.OptOptions
	ref  *dsgl.OptReport
	log  opLog
}

// phase solves until maxOps solves or the deadline, whichever comes first,
// and returns its wall time. Every solve must return the reference's cut
// and best energy bit for bit.
func (mc *maxcutRun) phase(tr *tracer, maxOps int, deadline time.Time, rep *report) time.Duration {
	start := time.Now()
	mc.log = opLog{}
	for n := 0; n < maxOps && (deadline.IsZero() || time.Now().Before(deadline)); n++ {
		id := tr.begin("dsgl.solve_maxcut", rep.attempted, 0)
		t0 := time.Now()
		r, err := dsgl.SolveMaxCut(mc.inst, mc.opts)
		d := time.Since(t0)
		tr.end(id)
		rep.attempted++
		if err != nil {
			rep.failed++
			mc.log.add(t0.Sub(start), failedMs)
			continue
		}
		mc.log.add(t0.Sub(start), ms(d))
		if !sameBits([]float64{r.Cut, r.Run.Best.Energy}, []float64{mc.ref.Cut, mc.ref.Run.Best.Energy}) {
			rep.failed++
			rep.mismatch("solve %d: cut %v energy %v, one-worker solve gives cut %v energy %v",
				rep.attempted, r.Cut, r.Run.Best.Energy, mc.ref.Cut, mc.ref.Run.Best.Energy)
		}
	}
	return time.Since(start)
}

// maxcutLedger replays SolveMaxCut layer by layer: lower the instance to
// an Ising model, run each restart alone with OptEngine.SolveSeeded, then
// the whole fan-out with SolveFrom. Per-restart time over steps × nodes is
// the cost of one spin update; restarts × restart time over the fan-out's
// wall × workers is the pool's efficiency. The replay must reach the
// reference's best energy, so it is the real solve.
func maxcutLedger(rc *runConfig, rep *report, inst *opt.Instance, ref *dsgl.OptReport) error {
	tr := rc.tr
	var model *ising.Model
	for i := 0; i < maxcutLedgerReps; i++ {
		id := tr.begin("opt.lower", i, 0)
		m, err := inst.ToIsing()
		tr.end(id)
		if err != nil {
			return err
		}
		model = m
	}
	solver, err := ising.NewSolver(model, ising.MetropolisDynamics, rc.seed)
	if err != nil {
		return err
	}
	eng := engine.NewOpt(solver)
	// dsgl.OptOptions' defaults: geometric schedule over 200 steps from
	// T0 = 2 down to T1 = 0.05.
	sched := engine.GeometricSchedule(200, 2, 0.05)
	restarts := ref.Run.Restarts
	workers := min(runtime.GOMAXPROCS(0), restarts)
	var steps float64
	for i := 0; i < maxcutLedgerReps; i++ {
		for r := 0; r < restarts; r++ {
			id := tr.begin("engine.restart", i, 0)
			res, err := eng.SolveSeeded(sched.ForRestart(r), rc.seed+uint64(r))
			tr.end(id)
			if err != nil {
				return err
			}
			steps = float64(res.Steps)
			if math.Float64bits(res.Energy) != math.Float64bits(ref.Run.Energies[r]) {
				return fmt.Errorf("maxcut replay: restart %d energy %v, SolveMaxCut's is %v", r, res.Energy, ref.Run.Energies[r])
			}
		}
		id := tr.begin("engine.solve_from", i, 0)
		run, err := eng.SolveFrom(sched, rc.seed, restarts, 0)
		tr.end(id)
		if err != nil {
			return err
		}
		if math.Float64bits(run.Best.Energy) != math.Float64bits(ref.Run.Best.Energy) {
			return fmt.Errorf("maxcut replay: best energy %v, SolveMaxCut's is %v", run.Best.Energy, ref.Run.Best.Energy)
		}
	}
	restartMs := tr.p50("engine.restart")
	rep.set("opt.parse_ms", tr.p50("opt.parse"), len(tr.durations("opt.parse")))
	rep.set("opt.lower_ms", tr.p50("opt.lower"), maxcutLedgerReps)
	rep.set("engine.restart_ms", restartMs, maxcutLedgerReps*restarts)
	rep.set("ising.ns_per_spin_step", restartMs*1e6/(steps*float64(inst.N)), maxcutLedgerReps*restarts)
	rep.set("pool.opt_efficiency", float64(restarts)*restartMs/(tr.p50("engine.solve_from")*float64(workers)), maxcutLedgerReps)
	hits, misses := eng.PlanCacheStats()
	rep.set("engine.plan_hit_ratio", ratio(float64(hits), float64(hits+misses)), int(hits+misses))
	rep.set("opt.cut", ref.Cut, 1)
	rep.set("opt.restarts_to_best", float64(ref.Run.BestRestart+1), 1)
	rep.record["ledger_workers"] = workers
	return nil
}
