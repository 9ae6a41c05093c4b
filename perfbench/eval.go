package main

import (
	"fmt"
	"math"
	"runtime"
	"time"

	"dsgl"
)

// evalSetupReps is how many times eval-traffic48 sets up per run; its
// setup trains on 384-dimensional windows and is the slowest of the four.
const evalSetupReps = 5

// evalTracedOps is the traced run's fixed op count (each pass).
const evalTracedOps = 12

// evalWindowsPerWorker sizes eval-traffic48's slices. The pool hands a
// slice's windows out one at a time, so when the host slows one vCPU the
// other takes more of the slice; with one window per worker every op
// waits on the slower vCPU for its whole length. On a noisy hour, over
// six seeds each, one window per worker spread p75 by 61% and ops_per_s
// by 29% (and one of its runs failed the tail guard); four spread both by
// 19%.
const evalWindowsPerWorker = 4

// runEval is eval-traffic48: one client loops Model.EvaluateParallel over
// fixed slices of the N=48 traffic test split with the default worker
// count. Every window compiles to the same clamp plan, so after the
// warm-up the timed work is all cold anneals under one cached plan.
func runEval(rc *runConfig, rep *report) error {
	var ds *dsgl.Dataset
	var m *dsgl.Model
	setup, err := timeSetups(evalSetupReps, func(i int) (err error) {
		ds, m, err = trafficSetup(rc.tr, i, 48, rc.seed)
		return err
	})
	if err != nil {
		return err
	}
	rep.set("setup_s", setup, evalSetupReps)
	if rc.tr != nil {
		if err := trafficLedger(rc, rep, ds, m, evalSetupReps); err != nil {
			return err
		}
	}

	// Slices of evalWindowsPerWorker windows per worker, in a seeded order
	// over the whole test split.
	_, test := ds.Split()
	k := m.Opts.Workers * evalWindowsPerWorker
	slices := make([][]dsgl.Window, len(test)/k)
	for i := range slices {
		slices[i] = test[i*k : (i+1)*k]
	}
	order := rc.rng(1).Perm(len(slices))
	ev := &evalRun{m: m, slices: slices, order: order, first: make([]*dsgl.Report, len(slices)), ok: make([]int, len(slices))}

	if _, err := m.EvaluateParallel(slices[order[0]], 0); err != nil { // warm-up
		return err
	}
	runtime.GC()
	if rc.tr != nil {
		m0 := readMem()
		plainWall, _ := ev.phase(nil, evalTracedOps, time.Time{}, rep)
		rep.setGC(memDelta(m0, readMem(), evalTracedOps), evalTracedOps)
		hits0, miss0 := m.PlanCacheStats()
		runtime.GC()
		tracedWall, _ := ev.phase(rc.tr, evalTracedOps, time.Time{}, rep)
		hits1, miss1 := m.PlanCacheStats()
		rep.set("engine.plan_hit_ratio", ratio(float64(hits1-hits0), float64(hits1-hits0+miss1-miss0)), int(hits1-hits0+miss1-miss0))
		rep.set("trace.overhead_ratio", tracedWall.Seconds()/plainWall.Seconds()-1, 2*evalTracedOps)
	} else {
		m0 := readMem()
		wall, windows := ev.phase(nil, math.MaxInt, time.Now().Add(rc.seconds), rep)
		rep.set("max_rss_mb", maxRSSMB(), 1)
		rep.record["gc"] = memDelta(m0, readMem(), rep.attempted)
		rep.set("ops_per_s", float64(windows)/wall.Seconds(), windows)
		if err := rep.latencies(rc, ev.log, rc.seconds); err != nil {
			return err
		}
		rep.record["ops"] = rep.attempted
		rep.record["windows"] = windows
		rep.record["slice_windows"] = k
	}
	return ev.check(rep)
}

// evalRun is the state of eval-traffic48's op loop.
type evalRun struct {
	m      *dsgl.Model
	slices [][]dsgl.Window
	order  []int
	next   int
	// first is the first report of each slice and ok counts each slice's
	// answered ops, so a failed check can count them as failed.
	first []*dsgl.Report
	ok    []int
	log   opLog
}

// phase runs ops until maxOps ops or the deadline, whichever comes
// first, and returns its wall time and the windows it evaluated. With gc
// stats wanted, the caller reads them around it.
func (ev *evalRun) phase(tr *tracer, maxOps int, deadline time.Time, rep *report) (time.Duration, int) {
	start := time.Now()
	ev.log = opLog{}
	windows := 0
	for n := 0; n < maxOps && (deadline.IsZero() || time.Now().Before(deadline)); n++ {
		s := ev.order[ev.next%len(ev.order)]
		ev.next++
		id := tr.begin("dsgl.evaluate_parallel", ev.next, 0)
		t0 := time.Now()
		r, err := ev.m.EvaluateParallel(ev.slices[s], 0)
		d := time.Since(t0)
		tr.end(id)
		rep.attempted++
		if err != nil || r.Windows != len(ev.slices[s]) {
			rep.failed++
			ev.log.add(t0.Sub(start), failedMs)
			continue
		}
		ev.log.add(t0.Sub(start), ms(d))
		windows += r.Windows
		ev.ok[s]++
		if ev.first[s] == nil {
			ev.first[s] = r
		} else if !sameReport(ev.first[s], r) {
			rep.failed++
			ev.ok[s]--
			rep.mismatch("slice %d: EvaluateParallel reports differ between ops", s)
		}
	}
	return time.Since(start), windows
}

// check re-evaluates every slice the loop ran with sequential
// Model.Evaluate, whose report EvaluateParallel's must equal bit for bit.
// Slices are checked concurrently; each Evaluate is itself sequential.
func (ev *evalRun) check(rep *report) error {
	var todo []int
	for s, r := range ev.first {
		if r != nil {
			todo = append(todo, s)
		}
	}
	errs := make([]error, len(todo))
	same := make([]bool, len(todo))
	parallel(ev.m.Opts.Workers, len(todo), func(i int) {
		want, err := ev.m.Evaluate(ev.slices[todo[i]])
		errs[i] = err
		same[i] = err == nil && sameReport(ev.first[todo[i]], want)
	})
	for i, s := range todo {
		if errs[i] != nil {
			return fmt.Errorf("check: Evaluate slice %d: %w", s, errs[i])
		}
		if !same[i] {
			rep.failed += ev.ok[s]
			rep.mismatch("slice %d: EvaluateParallel report differs from sequential Evaluate", s)
		}
	}
	rep.record["checked_slices"] = len(todo)
	return nil
}

// sameReport compares two evaluation reports bit for bit.
func sameReport(a, b *dsgl.Report) bool {
	return sameBits([]float64{a.RMSE, a.MAE, a.MAPE, a.MeanLatencyUs}, []float64{b.RMSE, b.MAE, b.MAPE, b.MeanLatencyUs}) &&
		a.MAPESkipped == b.MAPESkipped && a.Windows == b.Windows && a.Mode == b.Mode && a.Stats == b.Stats
}
