package scalable

import (
	"math"
	"testing"
	"testing/quick"

	"dsgl/internal/community"
	"dsgl/internal/engine"
	"dsgl/internal/mat"
	"dsgl/internal/pattern"
	"dsgl/internal/rng"
	"dsgl/internal/train"
)

// quickSystem builds a random pattern-legal system for property tests.
func quickSystem(seed uint64) (*train.Params, *community.Assignment, *mat.Bool) {
	r := rng.New(seed)
	gw := 2 + int(seed%2)
	gh := 2
	cap := 3 + int(seed%4)
	n := gw * gh * cap
	a := &community.Assignment{
		PEOf: make([]int, n), NodesOf: make([][]int, gw*gh),
		GridW: gw, GridH: gh, Capacity: cap,
	}
	for i := 0; i < n; i++ {
		pe := i / cap
		a.PEOf[i] = pe
		a.NodesOf[pe] = append(a.NodesOf[pe], i)
	}
	j := mat.NewDense(n, n)
	for x := 0; x < n; x++ {
		for y := 0; y < n; y++ {
			if x != y && r.Float64() < 0.4 {
				j.Set(x, y, r.NormScaled(0, 0.1))
			}
		}
	}
	mask, _ := pattern.BuildMask(a, j, pattern.Config{Kind: pattern.DMesh, Wormholes: 2})
	j.ApplyMask(mask)
	h := make([]float64, n)
	for i := range h {
		h[i] = -1 - r.Float64()
	}
	return &train.Params{J: j, H: h}, a, mask
}

// TestQuickEffectiveJAlwaysPreserved: whatever the lane budget, a
// temporal-capable build realizes exactly the trained coupling matrix.
func TestQuickEffectiveJAlwaysPreserved(t *testing.T) {
	f := func(seed uint64) bool {
		p, a, mask := quickSystem(seed)
		lanes := 1 + int(seed%5)
		m, err := Build(p, a, mask, Config{Lanes: lanes})
		if err != nil {
			return false
		}
		return m.Engine().EffectiveJ().Equal(p.J, 1e-12)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickRoundsConsistentWithDemand: pure spatial mode iff the maximum
// portal demand fits in the lane budget.
func TestQuickRoundsConsistentWithDemand(t *testing.T) {
	f := func(seed uint64) bool {
		p, a, mask := quickSystem(seed)
		lanes := 1 + int(seed%8)
		m, err := Build(p, a, mask, Config{Lanes: lanes})
		if err != nil {
			return false
		}
		st := m.Stats()
		if st.MaxPortalDemand <= lanes && st.Rounds != 1 {
			return false
		}
		if st.Rounds == 1 && st.Mode != ModeSpatial {
			return false
		}
		if st.Rounds > 1 && st.Mode != ModeTemporalSpatial {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickInferenceStaysOnRails: voltages never exceed the rails and
// clamped nodes never move, for random systems and observations.
func TestQuickInferenceStaysOnRails(t *testing.T) {
	f := func(seed uint64) bool {
		p, a, mask := quickSystem(seed)
		m, err := Build(p, a, mask, Config{Lanes: 2, MaxTimeNs: 300, Seed: seed})
		if err != nil {
			return false
		}
		r := rng.New(seed ^ 0x55)
		obs := []engine.Observation{
			{Index: r.Intn(p.Dim()), Value: r.Uniform(-0.9, 0.9)},
		}
		res, err := m.Engine().InferSeeded(obs, m.BaseSeed())
		if err != nil {
			return false
		}
		for i, v := range res.Voltage {
			if math.Abs(v) > 1+1e-12 {
				return false
			}
			if i == obs[0].Index && v != obs[0].Value {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}
