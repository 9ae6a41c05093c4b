// Package scalable implements the Scalable DSPU of paper Sec. IV: a 2-D
// mesh of Processing Elements (each a small fully-connected Real-Valued
// DSPU) joined through Coupling Units at the mesh intersections, with
// analog portals of L lanes per PE corner.
//
// The package takes a trained, pattern-masked parameter set together with
// the community-to-PE assignment and compiles it onto the hardware:
//
//   - intra-PE couplings map to each PE's local K x K crossbar;
//   - inter-PE couplings are routed to a Coupling Unit shared by both PEs
//     (adjacent pairs) or to a wormhole over the CU super-connection grid
//     (remote pairs);
//   - every (PE, CU) portal carries at most L distinct nodes concurrently.
//     When a mapping's communication demand D exceeds L, the couplings are
//     packed into time-multiplexed rounds ("slices" switched in turn by the
//     Temporal Scheduler) — the Temporal & Spatial co-annealing of
//     Sec. IV.D. When D <= L a single round suffices and the machine runs
//     pure Spatial co-annealing.
package scalable

import (
	"fmt"
	"math"
	"sort"

	"dsgl/internal/community"
	"dsgl/internal/mat"
	"dsgl/internal/train"
)

// CUID identifies a Coupling Unit at a mesh intersection. For a GridW x
// GridH PE array the CU grid is (GridW+1) x (GridH+1); CU (cx, cy) touches
// the up-to-four PEs whose corners meet there.
type CUID struct{ X, Y int }

// portal identifies one PE's connection to one CU (an exporting portal with
// L analog lanes).
type portal struct {
	PE int
	CU CUID
}

// coupling is one inter-PE coupling routed through the CU fabric.
type coupling struct {
	X, Y     int  // node indices (directed entry pair handled jointly)
	CU       CUID // serving CU for adjacent pairs and wormhole endpoint A
	CU2      CUID // wormhole endpoint B (equal to CU when not a wormhole)
	Wormhole bool
	Mag      float64 // |J_xy| + |J_yx|, scheduling priority
}

// Build compiles a trained system onto the Scalable DSPU. params.J must
// already be confined to the interconnect mask (the fine-tune step does
// this); couplings violating the mask are rejected here as a safety check.
func Build(params *train.Params, assign *community.Assignment, mask *mat.Bool, cfg Config) (*Machine, error) {
	cfg.fillDefaults()
	n := params.Dim()
	if len(assign.PEOf) != n {
		return nil, fmt.Errorf("scalable: assignment covers %d nodes, params have %d", len(assign.PEOf), n)
	}
	if err := params.Validate(); err != nil {
		return nil, err
	}
	if mask != nil && (mask.Rows != n || mask.Cols != n) {
		return nil, fmt.Errorf("scalable: mask is %dx%d, want %dx%d", mask.Rows, mask.Cols, n, n)
	}

	intra := mat.NewBuilder(n, n)
	interByPair := make(map[[2]int][]pairEntry) // PE pair -> node pairs

	for x := 0; x < n; x++ {
		for y := x + 1; y < n; y++ {
			v1, v2 := params.J.At(x, y), params.J.At(y, x)
			if v1 == 0 && v2 == 0 {
				continue
			}
			if mask != nil {
				if v1 != 0 && !mask.At(x, y) {
					return nil, fmt.Errorf("scalable: coupling (%d,%d) violates the interconnect mask", x, y)
				}
				if v2 != 0 && !mask.At(y, x) {
					return nil, fmt.Errorf("scalable: coupling (%d,%d) violates the interconnect mask", y, x)
				}
			}
			px, py := assign.PEOf[x], assign.PEOf[y]
			if px == py {
				if v1 != 0 {
					intra.Add(x, y, v1)
				}
				if v2 != 0 {
					intra.Add(y, x, v2)
				}
				continue
			}
			p, q := px, py
			a, b := x, y
			if p > q {
				p, q = q, p
				a, b = b, a
			}
			mag := math.Abs(v1) + math.Abs(v2)
			interByPair[[2]int{p, q}] = append(interByPair[[2]int{p, q}], pairEntry{a, b, mag})
		}
	}

	m := &Machine{
		N:      n,
		cfg:    cfg,
		assign: assign,
		params: params,
		intra:  intra.Build(),
	}

	// Route each PE-pair's couplings through the CU fabric.
	var all []coupling
	portalLoadHint := make(map[portal]int) // for balanced CU choice
	pairKeys := make([][2]int, 0, len(interByPair))
	for k := range interByPair {
		pairKeys = append(pairKeys, k)
	}
	sort.Slice(pairKeys, func(i, j int) bool {
		if pairKeys[i][0] != pairKeys[j][0] {
			return pairKeys[i][0] < pairKeys[j][0]
		}
		return pairKeys[i][1] < pairKeys[j][1]
	})
	for _, key := range pairKeys {
		entries := interByPair[key]
		p, q := key[0], key[1]
		shared := sharedCUs(assign, p, q)
		if len(shared) > 0 {
			// Adjacent PEs: pick the shared CU with the lightest load.
			best := shared[0]
			bestLoad := portalLoadHint[portal{p, best}] + portalLoadHint[portal{q, best}]
			for _, cu := range shared[1:] {
				if l := portalLoadHint[portal{p, cu}] + portalLoadHint[portal{q, cu}]; l < bestLoad {
					best, bestLoad = cu, l
				}
			}
			for _, e := range entries {
				all = append(all, coupling{X: e.a, Y: e.b, CU: best, CU2: best, Mag: e.mag})
				portalLoadHint[portal{p, best}]++
				portalLoadHint[portal{q, best}]++
			}
			continue
		}
		// Remote PEs: wormhole between each PE's least-loaded corner CU.
		cuA := lightestCorner(assign, p, portalLoadHint)
		cuB := lightestCorner(assign, q, portalLoadHint)
		for _, e := range entries {
			all = append(all, coupling{X: e.a, Y: e.b, CU: cuA, CU2: cuB, Wormhole: true, Mag: e.mag})
			portalLoadHint[portal{p, cuA}]++
			portalLoadHint[portal{q, cuB}]++
			m.stats.WormholeCouplings++
		}
	}
	m.stats.InterCouplings = len(all)
	m.stats.IntraCouplings = m.intra.NNZ()

	// Pack couplings into rounds under the per-portal lane budget.
	rounds, maxDemand := packRounds(all, assign, cfg.Lanes)
	m.stats.MaxPortalDemand = maxDemand
	m.stats.Rounds = len(rounds)
	m.stats.Lanes = cfg.Lanes
	if len(rounds) <= 1 {
		m.stats.Mode = ModeSpatial
	} else {
		m.stats.Mode = ModeTemporalSpatial
	}

	// When temporal co-annealing is disabled (DS-GL-Spatial), keep only
	// the couplings that fit in a single round; the rest are dropped —
	// trading accuracy for latency, exactly the paper's Spatial variant.
	if cfg.TemporalDisabled && len(rounds) > 1 {
		dropped := 0
		for _, r := range rounds[1:] {
			dropped += len(r)
		}
		m.stats.DroppedCouplings = dropped
		rounds = rounds[:1]
		m.stats.Rounds = 1
		m.stats.Mode = ModeSpatial
	}

	// Materialize per-round inter-PE coupling matrices (both directed
	// entries of each pair). While a slice is inactive its CU crossbar
	// holds the last-transmitted voltages (analog sample-and-hold), so
	// every coupling keeps contributing current between its activations —
	// the machine performs iterative partial annealing rather than
	// dropping couplings.
	m.phases = make([]*mat.CSR, len(rounds))
	for k, round := range rounds {
		b := mat.NewBuilder(n, n)
		for _, c := range round {
			if v := params.J.At(c.X, c.Y); v != 0 {
				b.Add(c.X, c.Y, v)
			}
			if v := params.J.At(c.Y, c.X); v != 0 {
				b.Add(c.Y, c.X, v)
			}
		}
		m.phases[k] = b.Build()
	}
	if len(m.phases) == 0 {
		m.phases = []*mat.CSR{mat.NewBuilder(n, n).Build()}
		m.stats.Rounds = 1
	}
	m.cpl = mat.NewCouplings(append([]*mat.CSR{m.intra}, m.phases...)...)
	return m, nil
}

type pairEntry struct {
	a, b int
	mag  float64
}

// cornerCUs returns the four CUs at the corners of PE pe.
func cornerCUs(a *community.Assignment, pe int) [4]CUID {
	x, y := a.PEXY(pe)
	return [4]CUID{{x, y}, {x + 1, y}, {x, y + 1}, {x + 1, y + 1}}
}

// sharedCUs returns the CUs adjacent to both PEs (non-empty only for
// mesh/diagonal-adjacent PEs).
func sharedCUs(a *community.Assignment, p, q int) []CUID {
	cp := cornerCUs(a, p)
	cq := cornerCUs(a, q)
	var out []CUID
	for _, c1 := range cp {
		for _, c2 := range cq {
			if c1 == c2 {
				out = append(out, c1)
			}
		}
	}
	return out
}

// lightestCorner picks the corner CU of pe with the smallest current load.
func lightestCorner(a *community.Assignment, pe int, load map[portal]int) CUID {
	corners := cornerCUs(a, pe)
	best := corners[0]
	bestLoad := load[portal{pe, best}]
	for _, cu := range corners[1:] {
		if l := load[portal{pe, cu}]; l < bestLoad {
			best, bestLoad = cu, l
		}
	}
	return best
}

// packRounds greedily packs couplings (strongest first) into rounds such
// that within one round every (PE, CU) portal exports at most lanes
// distinct nodes. It returns the rounds and the maximum single-portal
// demand (the paper's D) observed across the whole mapping.
func packRounds(all []coupling, assign *community.Assignment, lanes int) ([][]coupling, int) {
	sort.SliceStable(all, func(i, j int) bool { return all[i].Mag > all[j].Mag })

	// Total demand per portal (for the D statistic).
	demand := make(map[portal]map[int]bool)
	note := func(p portal, node int) {
		if demand[p] == nil {
			demand[p] = make(map[int]bool)
		}
		demand[p][node] = true
	}
	for _, c := range all {
		note(portal{assign.PEOf[c.X], c.CU}, c.X)
		note(portal{assign.PEOf[c.Y], c.CU2}, c.Y)
	}
	maxDemand := 0
	for _, nodes := range demand {
		if len(nodes) > maxDemand {
			maxDemand = len(nodes)
		}
	}

	type roundState struct {
		couplings []coupling
		occupancy map[portal]map[int]bool
	}
	var rounds []*roundState
	fits := func(r *roundState, p portal, node int) bool {
		set := r.occupancy[p]
		if set == nil {
			return lanes >= 1
		}
		if set[node] {
			return true
		}
		return len(set) < lanes
	}
	add := func(r *roundState, p portal, node int) {
		if r.occupancy[p] == nil {
			r.occupancy[p] = make(map[int]bool)
		}
		r.occupancy[p][node] = true
	}
	for _, c := range all {
		pa := portal{assign.PEOf[c.X], c.CU}
		pb := portal{assign.PEOf[c.Y], c.CU2}
		placed := false
		for _, r := range rounds {
			if fits(r, pa, c.X) && fits(r, pb, c.Y) {
				add(r, pa, c.X)
				add(r, pb, c.Y)
				r.couplings = append(r.couplings, c)
				placed = true
				break
			}
		}
		if !placed {
			r := &roundState{occupancy: make(map[portal]map[int]bool)}
			add(r, pa, c.X)
			add(r, pb, c.Y)
			r.couplings = append(r.couplings, c)
			rounds = append(rounds, r)
		}
	}
	out := make([][]coupling, len(rounds))
	for i, r := range rounds {
		out[i] = r.couplings
	}
	return out, maxDemand
}
