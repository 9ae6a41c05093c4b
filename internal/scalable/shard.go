// The software-sharded anneal: intra-inference parallelism by graph
// partition, the software analog of the paper's multi-mapping hardware.
//
// The machine partitions its nodes into up to Config.ShardWorkers groups
// of Louvain super-communities (community.ShardNodes — PEs grouped in grid
// order, so split communities stay together). Each shard anneals on its
// own goroutine over a private full-length view of the state: its own
// entries are live, every remote entry is a sample-and-hold copy frozen at
// the last synchronization — exactly the staleness model refreshPhase
// implements for temporal slices, applied across shards instead of across
// time. Every Config.ShardSyncNs of simulated time the shards rendezvous
// on a barrier, publish their entries into the shared state vector, and
// refresh their views from it (one cross-shard information exchange per
// sync interval, mirroring Sec. IV.D's inter-mapping synchronization).
//
// Dynamics inside a shard run over the COMBINED coupling matrix — intra
// plus every temporal slice merged row-wise — with all couplings live:
// cross-shard staleness replaces cross-slice staleness as the relaxation
// the convergence argument must absorb. The fixed point is untouched (the
// equilibrium of dσ/dt = Jσ + hσ depends only on J and h, never on which
// contributions are held between exchanges), which is the seventh verify
// invariant: a settled sharded anneal and a settled exact anneal agree
// within the residual-implied tolerance. Bit-identity with the exact path
// is NOT promised for sync intervals above one step; at one step or below
// the exchange degenerates to the sequential semantics, so the machine
// routes those configurations (and noisy ones — a single RNG stream
// cannot be split across concurrent shards deterministically) to the
// exact path instead.
//
// The settle decision is taken jointly at each sync round: every shard
// evaluates the all-fresh residual over its own free rows mirroring
// fullResidual's accumulation order exactly, the barrier publishes the
// per-shard maxima, and all shards reduce the same values — so the
// decision is deterministic, every shard leaves the loop on the same
// round, and a Settled result satisfies ResidualAt < SettleResidualTol
// bit-for-bit (invariant 2 holds on the sharded path unchanged).
package scalable

import (
	"math"
	"sync"

	"dsgl/internal/community"
	"dsgl/internal/engine"
	"dsgl/internal/mat"
)

// shardPart is one partition of a compiled sharded plan: the free nodes it
// integrates. Partitions whose nodes are all clamped are dropped at
// compile time (their entries are boundary conditions every other shard
// reads from the shared state).
type shardPart struct {
	freeIdx []int
}

// shardPlan is a compiled sharded inference plan for one clamp pattern:
// the static/dyn split of the combined coupling matrix (mat.SplitRowPlan,
// the folding discipline of plan.go) plus the per-shard free-node lists and
// the exchange cadence in integration steps.
type shardPlan struct {
	syncSteps   int
	static, dyn *mat.CSR
	parts       []shardPart
}

// shardScratch is the per-state sharded-anneal arena: the folded constant
// bias of the combined matrix, one full-length view and derivative buffer
// per shard, and the per-shard residual slots the sync rounds reduce.
type shardScratch struct {
	bias  []float64
	views [][]float64
	deriv [][]float64
	res   []float64
}

func newShardScratch(shards, n int) *shardScratch {
	ss := &shardScratch{
		bias:  make([]float64, n),
		views: make([][]float64, shards),
		deriv: make([][]float64, shards),
		res:   make([]float64, shards),
	}
	for s := range ss.views {
		ss.views[s] = make([]float64, n)
		ss.deriv[s] = make([]float64, n)
	}
	return ss
}

// shardSyncSteps is the exchange cadence in integration steps.
func (m *Machine) shardSyncSteps() int {
	return int(m.cfg.ShardSyncNs / m.cfg.Dt)
}

// shardSetup decides once whether this machine shards and, if so, builds
// the node partition and the combined coupling matrix. All the reasons
// not to shard fall back silently to the exact path: sharding is a
// throughput variant, never a semantic switch.
func (m *Machine) shardSetup() {
	m.shardOnce.Do(func() {
		if m.cfg.ShardWorkers <= 1 || m.assign == nil {
			return
		}
		if m.cfg.NodeNoise > 0 || m.cfg.CouplerNoise > 0 {
			return
		}
		if m.shardSyncSteps() <= 1 {
			return
		}
		groups := community.ShardNodes(m.assign, m.cfg.ShardWorkers)
		if len(groups) < 2 {
			return
		}
		m.shardGroups = groups
		m.combined = combineCSR(m.cpl.Mats, m.N)
	})
}

// combineCSR merges the matrices row-wise: row i of the result is row i of
// every input concatenated in input order. Duplicate columns are kept —
// CSR accumulation handles them sequentially, and the merged row order is
// the deterministic accumulation order of the sharded kernel.
func combineCSR(mats []*mat.CSR, n int) *mat.CSR {
	nnz := 0
	for _, s := range mats {
		nnz += s.NNZ()
	}
	out := &mat.CSR{
		Rows:   n,
		Cols:   n,
		RowPtr: make([]int, n+1),
		ColIdx: make([]int, 0, nnz),
		Val:    make([]float64, 0, nnz),
	}
	for i := 0; i < n; i++ {
		for _, s := range mats {
			lo, hi := s.RowPtr[i], s.RowPtr[i+1]
			out.ColIdx = append(out.ColIdx, s.ColIdx[lo:hi]...)
			out.Val = append(out.Val, s.Val[lo:hi]...)
		}
		out.RowPtr[i+1] = len(out.Val)
	}
	return out
}

// ShardCount reports how many partitions the sharded path runs (0 when
// this machine cannot shard). Part of the engine.ShardedBackend contract.
func (m *Machine) ShardCount() int {
	m.shardSetup()
	return len(m.shardGroups)
}

// CompileShardedPlan compiles the clamp pattern into a sharded plan, or
// returns nil when sharding is unavailable — for the machine (disabled,
// single community, noise, sync interval <= one step) or for this pattern
// (fewer than two partitions keep a free node). The engine caches the
// result, nil included. Part of the engine.ShardedBackend contract.
func (m *Machine) CompileShardedPlan(clamped []bool) any {
	m.shardSetup()
	if m.shardGroups == nil {
		return nil
	}
	parts := make([]shardPart, 0, len(m.shardGroups))
	for _, nodes := range m.shardGroups {
		var free []int
		for _, i := range nodes {
			if !clamped[i] {
				free = append(free, i)
			}
		}
		if len(free) > 0 {
			parts = append(parts, shardPart{freeIdx: free})
		}
	}
	if len(parts) < 2 {
		return nil
	}
	static, dyn := mat.SplitRowPlan(m.combined, clamped)
	return &shardPlan{syncSteps: m.shardSyncSteps(), static: static, dyn: dyn, parts: parts}
}

// RunSharded runs the partitioned anneal on a prepared state. Part of the
// engine.ShardedBackend contract.
func (m *Machine) RunSharded(st *engine.InferState, plan any) (*engine.Result, error) {
	return m.runSharded(st, plan.(*shardPlan))
}

// runSharded is the sharded anneal loop; see the package comment at the
// top of this file for the exchange and convergence semantics.
func (m *Machine) runSharded(st *engine.InferState, pl *shardPlan) (*engine.Result, error) {
	sc := st.Scratch.(*scratch)
	if sc.shard == nil {
		sc.shard = newShardScratch(len(m.shardGroups), m.N)
	}
	ss := sc.shard
	x := st.X
	steps := int(m.cfg.MaxTimeNs / m.cfg.Dt)
	if steps < 1 {
		return nil, errNoSteps
	}

	// Fold the constant clamp currents of the combined matrix once per
	// inference (static rows read clamped columns only).
	pl.static.MulVec(x, ss.bias)

	parts := pl.parts
	k := len(parts)
	for s := 0; s < k; s++ {
		copy(ss.views[s], x)
	}

	bar := newBarrier(k)
	dyn := pl.dyn
	H := m.params.H
	dt, rail := m.cfg.Dt, m.cfg.VRail
	tol := m.cfg.SettleTol * settleResidualFactor

	// Every shard computes taken/rounds/settled identically (the settle
	// decision reduces the same published residuals), so shard 0's copy is
	// the run's outcome; wg.Wait orders the read after the write.
	type outcome struct {
		steps, rounds int
		settled       bool
		residual      float64
	}
	var out outcome
	var wg sync.WaitGroup
	wg.Add(k)
	for s := 0; s < k; s++ {
		go func(s int) {
			defer wg.Done()
			view := ss.views[s]
			dv := ss.deriv[s]
			free := parts[s].freeIdx
			taken, rounds := 0, 0
			settled := false
			lastRes := math.NaN()
			for taken < steps && !settled {
				run := pl.syncSteps
				if taken+run > steps {
					run = steps - taken
				}
				for t := 0; t < run; t++ {
					for _, i := range free {
						sum := ss.bias[i]
						for p := dyn.RowPtr[i]; p < dyn.RowPtr[i+1]; p++ {
							sum += dyn.Val[p] * view[dyn.ColIdx[p]]
						}
						d := sum + H[i]*view[i]
						if view[i] >= rail && d > 0 {
							d = 0
						} else if view[i] <= -rail && d < 0 {
							d = 0
						}
						dv[i] = d
					}
					for _, i := range free {
						xi := view[i] + dt*dv[i]
						if xi < -rail {
							xi = -rail
						} else if xi > rail {
							xi = rail
						}
						view[i] = xi
					}
					taken++
				}
				// Publish own entries, rendezvous, refresh the full view
				// (remote entries were held since the last exchange).
				for _, i := range free {
					x[i] = view[i]
				}
				bar.wait()
				copy(view, x)
				ss.res[s] = m.shardResidual(free, x)
				bar.wait()
				g := 0.0
				for _, r := range ss.res[:k] {
					if r > g {
						g = r
					}
				}
				rounds++
				lastRes = g
				if g < tol {
					settled = true
				}
			}
			if s == 0 {
				out = outcome{steps: taken, rounds: rounds, settled: settled, residual: lastRes}
			}
		}(s)
	}
	wg.Wait()

	annealT := float64(out.steps) * dt
	st.Res = engine.Result{
		Voltage:   x,
		AnnealNs:  annealT,
		LatencyNs: annealT,
		Settled:   out.settled,
		Switches:  out.rounds,
		Steps:     out.steps,
		Energy:    m.EnergyAt(x),
		Residual:  out.residual,
	}
	return &st.Res, nil
}

// shardResidual evaluates the all-couplings-fresh residual over one
// shard's free rows, mirroring fullResidual's per-row accumulation order
// exactly — intra row from zero first, then each slice's row sum added in
// slice order — so the max over all shards equals fullResidual(x)
// bit-for-bit and a Settled sharded result satisfies the settle-residual
// invariant against ResidualAt unchanged.
func (m *Machine) shardResidual(free []int, x []float64) float64 {
	maxD := 0.0
	for _, i := range free {
		var row float64
		for p := m.intra.RowPtr[i]; p < m.intra.RowPtr[i+1]; p++ {
			row += m.intra.Val[p] * x[m.intra.ColIdx[p]]
		}
		for _, ph := range m.phases {
			var sum float64
			for p := ph.RowPtr[i]; p < ph.RowPtr[i+1]; p++ {
				sum += ph.Val[p] * x[ph.ColIdx[p]]
			}
			row += sum
		}
		d := row + m.params.H[i]*x[i]
		if x[i] >= m.cfg.VRail && d > 0 {
			d = 0
		} else if x[i] <= -m.cfg.VRail && d < 0 {
			d = 0
		}
		if a := math.Abs(d); a > maxD {
			maxD = a
		}
	}
	return maxD
}

// barrier is a reusable cyclic barrier for the shard goroutines. Cond-
// based (no spinning): shard counts routinely exceed GOMAXPROCS, and a
// spinning straggler would starve the very shards it waits for.
type barrier struct {
	mu    sync.Mutex
	cond  *sync.Cond
	n     int
	count int
	gen   uint64
}

func newBarrier(n int) *barrier {
	b := &barrier{n: n}
	b.cond = sync.NewCond(&b.mu)
	return b
}

// wait blocks until all n parties arrive, then releases them together.
// The generation counter makes the barrier reusable across sync rounds.
func (b *barrier) wait() {
	b.mu.Lock()
	gen := b.gen
	b.count++
	if b.count == b.n {
		b.count = 0
		b.gen++
		b.mu.Unlock()
		b.cond.Broadcast()
		return
	}
	for gen == b.gen {
		b.cond.Wait()
	}
	b.mu.Unlock()
}
