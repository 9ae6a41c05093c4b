// Package gnn implements the three spatial-temporal GNN baselines the paper
// compares DS-GL against: GWN (Graph WaveNet, Wu et al. 2019), MTGNN (Wu et
// al. 2020), and DDGCRN (Weng et al. 2023). The implementations are compact
// CPU reimplementations that preserve each model's architectural signature:
//
//   - GWN: gated graph convolutions over both the given adjacency and a
//     learned adaptive adjacency (node-embedding outer product), with skip
//     connections;
//   - MTGNN: a graph-learning layer (no prior adjacency) feeding mix-hop
//     propagation layers;
//   - DDGCRN: a graph-convolutional GRU unrolled over the history window
//     with a decomposition branch separating a slow "regular" component.
//
// All models map one window — node-feature history X (N x P·F) — to the
// horizon prediction (N x Q·U), and are trained with Adam on MSE, matching
// the paper's per-dataset training setup.
package gnn

import (
	"fmt"

	"dsgl/internal/datasets"
	"dsgl/internal/mat"
	"dsgl/internal/rng"
	"dsgl/internal/tensor"
)

// Geometry describes the prediction problem shape shared by all models.
type Geometry struct {
	N int // graph nodes
	F int // features per node per step
	P int // history steps
	Q int // horizon steps
	U int // predicted features per node per horizon step
}

// GeometryOf derives the geometry from a dataset.
func GeometryOf(d *datasets.Dataset) Geometry {
	u := d.F
	if d.PredictFeature >= 0 {
		u = 1
	}
	return Geometry{N: d.N, F: d.F, P: d.History, Q: d.Horizon, U: u}
}

// InCols returns the input width P·F.
func (g Geometry) InCols() int { return g.P * g.F }

// OutCols returns the output width Q·U.
func (g Geometry) OutCols() int { return g.Q * g.U }

// Model is a trainable window-to-horizon predictor.
type Model interface {
	// Name identifies the model in reports.
	Name() string
	// Forward maps the history matrix (N x P·F) to predictions (N x Q·U).
	Forward(x *tensor.Tensor) *tensor.Tensor
	// Params lists the trainable tensors.
	Params() []*tensor.Tensor
	// FLOPs estimates floating-point operations for one inference, used by
	// the Table III latency/energy model.
	FLOPs() float64
}

// normalizedAdj converts a dataset adjacency to the self-looped
// row-normalized propagation matrix Â = D⁻¹(A + I) used by the graph
// convolutions.
func normalizedAdj(adj *mat.Dense) *tensor.Tensor {
	n := adj.Rows
	t := tensor.New(n, n)
	for i := 0; i < n; i++ {
		var deg float64
		for j := 0; j < n; j++ {
			deg += adj.At(i, j)
		}
		deg += 1 // self loop
		for j := 0; j < n; j++ {
			v := adj.At(i, j)
			if i == j {
				v += 1
			}
			if v != 0 {
				t.Set(i, j, v/deg)
			}
		}
	}
	return t
}

// ---------------------------------------------------------------------------
// GWN
// ---------------------------------------------------------------------------

// GWN is the Graph WaveNet baseline.
type GWN struct {
	geom   Geometry
	hidden int
	adj    *tensor.Tensor // fixed Â from the dataset graph
	e1, e2 *tensor.Tensor // adaptive adjacency embeddings
	wIn    *tensor.Tensor
	bIn    *tensor.Tensor
	layers []*gwnLayer
	wOut   *tensor.Tensor
	bOut   *tensor.Tensor
}

type gwnLayer struct {
	wGate, wFilt, wAdp *tensor.Tensor
}

// NewGWN builds a GWN with the given hidden width and number of gated
// graph-conv layers.
func NewGWN(geom Geometry, adj *mat.Dense, hidden, layers int, r *rng.RNG) *GWN {
	const embed = 8
	g := &GWN{
		geom:   geom,
		hidden: hidden,
		adj:    normalizedAdj(adj),
		e1:     tensor.Param(geom.N, embed, r),
		e2:     tensor.Param(geom.N, embed, r),
		wIn:    tensor.Param(geom.InCols(), hidden, r),
		bIn:    tensor.ZeroParam(1, hidden),
		wOut:   tensor.Param(hidden, geom.OutCols(), r),
		bOut:   tensor.ZeroParam(1, geom.OutCols()),
	}
	for l := 0; l < layers; l++ {
		g.layers = append(g.layers, &gwnLayer{
			wGate: tensor.Param(hidden, hidden, r),
			wFilt: tensor.Param(hidden, hidden, r),
			wAdp:  tensor.Param(hidden, hidden, r),
		})
	}
	return g
}

// Name implements Model.
func (g *GWN) Name() string { return "GWN" }

// adaptiveAdj builds softmax(ReLU(E1 E2ᵀ)).
func (g *GWN) adaptiveAdj() *tensor.Tensor {
	return tensor.SoftmaxRows(tensor.ReLU(tensor.MatMul(g.e1, tensor.Transpose(g.e2))))
}

// Forward implements Model.
func (g *GWN) Forward(x *tensor.Tensor) *tensor.Tensor {
	adp := g.adaptiveAdj()
	h := tensor.Tanh(tensor.Add(tensor.MatMul(x, g.wIn), g.bIn))
	for _, l := range g.layers {
		prop := tensor.MatMul(g.adj, h)
		filt := tensor.Tanh(tensor.MatMul(prop, l.wFilt))
		gate := tensor.Sigmoid(tensor.MatMul(prop, l.wGate))
		adpProp := tensor.Tanh(tensor.MatMul(tensor.MatMul(adp, h), l.wAdp))
		h = tensor.Add(tensor.Add(tensor.Mul(filt, gate), adpProp), h) // residual
	}
	return tensor.Add(tensor.MatMul(h, g.wOut), g.bOut)
}

// Params implements Model.
func (g *GWN) Params() []*tensor.Tensor {
	ps := []*tensor.Tensor{g.e1, g.e2, g.wIn, g.bIn, g.wOut, g.bOut}
	for _, l := range g.layers {
		ps = append(ps, l.wGate, l.wFilt, l.wAdp)
	}
	return ps
}

// FLOPs implements Model.
func (g *GWN) FLOPs() float64 {
	n, hdim := float64(g.geom.N), float64(g.hidden)
	f := 2 * n * float64(g.geom.InCols()) * hdim // input projection
	f += 2 * n * n * 8 * 2                       // adaptive adjacency
	perLayer := 2*n*n*hdim*2 + 2*n*hdim*hdim*3   // two propagations + three weights
	f += float64(len(g.layers)) * perLayer
	f += 2 * n * hdim * float64(g.geom.OutCols())
	return f
}

// ---------------------------------------------------------------------------
// MTGNN
// ---------------------------------------------------------------------------

// MTGNN is the MTGNN baseline: learned graph + mix-hop propagation.
type MTGNN struct {
	geom   Geometry
	hidden int
	hops   int
	e1, e2 *tensor.Tensor
	wIn    *tensor.Tensor
	bIn    *tensor.Tensor
	wHop   [][]*tensor.Tensor // [layer][hop]
	wOut   *tensor.Tensor
	bOut   *tensor.Tensor
}

// NewMTGNN builds an MTGNN with the given hidden width, propagation depth
// (hops per layer), and layer count.
func NewMTGNN(geom Geometry, hidden, hops, layers int, r *rng.RNG) *MTGNN {
	const embed = 8
	m := &MTGNN{
		geom:   geom,
		hidden: hidden,
		hops:   hops,
		e1:     tensor.Param(geom.N, embed, r),
		e2:     tensor.Param(geom.N, embed, r),
		wIn:    tensor.Param(geom.InCols(), hidden, r),
		bIn:    tensor.ZeroParam(1, hidden),
		wOut:   tensor.Param(hidden, geom.OutCols(), r),
		bOut:   tensor.ZeroParam(1, geom.OutCols()),
	}
	for l := 0; l < layers; l++ {
		var hw []*tensor.Tensor
		for k := 0; k <= hops; k++ {
			hw = append(hw, tensor.Param(hidden, hidden, r))
		}
		m.wHop = append(m.wHop, hw)
	}
	return m
}

// Name implements Model.
func (m *MTGNN) Name() string { return "MTGNN" }

// Forward implements Model.
func (m *MTGNN) Forward(x *tensor.Tensor) *tensor.Tensor {
	// Graph learning layer: uni-directional learned adjacency.
	adp := tensor.SoftmaxRows(tensor.ReLU(tensor.Sub(
		tensor.MatMul(m.e1, tensor.Transpose(m.e2)),
		tensor.MatMul(m.e2, tensor.Transpose(m.e1)),
	)))
	h := tensor.Tanh(tensor.Add(tensor.MatMul(x, m.wIn), m.bIn))
	for _, hw := range m.wHop {
		// Mix-hop: out = Σ_k Â^k h W_k, with β-discounted residual mixing.
		hop := h
		var acc *tensor.Tensor
		for k, w := range hw {
			term := tensor.MatMul(hop, w)
			if acc == nil {
				acc = term
			} else {
				acc = tensor.Add(acc, tensor.Scale(term, 0.5))
			}
			if k < len(hw)-1 {
				hop = tensor.MatMul(adp, hop)
			}
		}
		h = tensor.Add(tensor.Tanh(acc), h)
	}
	return tensor.Add(tensor.MatMul(h, m.wOut), m.bOut)
}

// Params implements Model.
func (m *MTGNN) Params() []*tensor.Tensor {
	ps := []*tensor.Tensor{m.e1, m.e2, m.wIn, m.bIn, m.wOut, m.bOut}
	for _, hw := range m.wHop {
		ps = append(ps, hw...)
	}
	return ps
}

// FLOPs implements Model.
func (m *MTGNN) FLOPs() float64 {
	n, hdim := float64(m.geom.N), float64(m.hidden)
	f := 2*n*float64(m.geom.InCols())*hdim + 2*n*n*8*4
	perLayer := float64(m.hops)*2*n*n*hdim + float64(m.hops+1)*2*n*hdim*hdim
	f += float64(len(m.wHop)) * perLayer
	f += 2 * n * hdim * float64(m.geom.OutCols())
	return f
}

// ---------------------------------------------------------------------------
// DDGCRN
// ---------------------------------------------------------------------------

// DDGCRN is the decomposition dynamic graph-convolutional recurrent
// baseline: a GCN-gated GRU unrolled over the history window, with a
// decomposition branch modeling the slow component separately.
type DDGCRN struct {
	geom    Geometry
	hidden  int
	adj     *tensor.Tensor
	wz, wr  *tensor.Tensor // gate weights over [x, h]
	wc      *tensor.Tensor // candidate weights
	bz      *tensor.Tensor
	br      *tensor.Tensor
	bc      *tensor.Tensor
	wTrend  *tensor.Tensor // decomposition branch: slow component
	bTrend  *tensor.Tensor
	wOut    *tensor.Tensor
	bOut    *tensor.Tensor
	wResOut *tensor.Tensor
}

// NewDDGCRN builds a DDGCRN with the given hidden width.
func NewDDGCRN(geom Geometry, adj *mat.Dense, hidden int, r *rng.RNG) *DDGCRN {
	inW := geom.F + hidden
	return &DDGCRN{
		geom:    geom,
		hidden:  hidden,
		adj:     normalizedAdj(adj),
		wz:      tensor.Param(inW, hidden, r),
		wr:      tensor.Param(inW, hidden, r),
		wc:      tensor.Param(inW, hidden, r),
		bz:      tensor.ZeroParam(1, hidden),
		br:      tensor.ZeroParam(1, hidden),
		bc:      tensor.ZeroParam(1, hidden),
		wTrend:  tensor.Param(geom.InCols(), geom.OutCols(), r),
		bTrend:  tensor.ZeroParam(1, geom.OutCols()),
		wOut:    tensor.Param(hidden, geom.OutCols(), r),
		bOut:    tensor.ZeroParam(1, geom.OutCols()),
		wResOut: tensor.Param(geom.F, geom.OutCols(), r),
	}
}

// Name implements Model.
func (d *DDGCRN) Name() string { return "DDGCRN" }

// Forward implements Model.
func (d *DDGCRN) Forward(x *tensor.Tensor) *tensor.Tensor {
	h := tensor.New(d.geom.N, d.hidden) // initial hidden state (constant 0)
	var last *tensor.Tensor
	for s := 0; s < d.geom.P; s++ {
		xt := tensor.SliceCols(x, s*d.geom.F, (s+1)*d.geom.F)
		last = xt
		// Graph-convolved gate inputs: Â [x_t, h].
		cat := tensor.ConcatCols(xt, h)
		prop := tensor.MatMul(d.adj, cat)
		z := tensor.Sigmoid(tensor.Add(tensor.MatMul(prop, d.wz), d.bz))
		rr := tensor.Sigmoid(tensor.Add(tensor.MatMul(prop, d.wr), d.br))
		catR := tensor.ConcatCols(xt, tensor.Mul(rr, h))
		propR := tensor.MatMul(d.adj, catR)
		cand := tensor.Tanh(tensor.Add(tensor.MatMul(propR, d.wc), d.bc))
		// h = (1-z) ⊙ h + z ⊙ cand.
		ones := tensor.New(d.geom.N, d.hidden)
		for i := range ones.Data {
			ones.Data[i] = 1
		}
		h = tensor.Add(tensor.Mul(tensor.Sub(ones, z), h), tensor.Mul(z, cand))
	}
	// Decomposition: slow trend from the raw window plus the recurrent
	// (dynamic) component plus a last-value residual path.
	trend := tensor.Add(tensor.MatMul(x, d.wTrend), d.bTrend)
	dyn := tensor.Add(tensor.MatMul(h, d.wOut), d.bOut)
	res := tensor.MatMul(last, d.wResOut)
	return tensor.Add(tensor.Add(trend, dyn), res)
}

// Params implements Model.
func (d *DDGCRN) Params() []*tensor.Tensor {
	return []*tensor.Tensor{
		d.wz, d.wr, d.wc, d.bz, d.br, d.bc,
		d.wTrend, d.bTrend, d.wOut, d.bOut, d.wResOut,
	}
}

// FLOPs implements Model.
func (d *DDGCRN) FLOPs() float64 {
	n, hdim := float64(d.geom.N), float64(d.hidden)
	inW := float64(d.geom.F) + hdim
	perStep := 2*n*n*inW*2 + 2*n*inW*hdim*3 + 6*n*hdim
	f := float64(d.geom.P) * perStep
	f += 2 * n * float64(d.geom.InCols()) * float64(d.geom.OutCols())
	f += 2 * n * hdim * float64(d.geom.OutCols())
	return f
}

// ---------------------------------------------------------------------------

// NewBaseline constructs one of the three baselines by name with the
// default compact configuration used across the evaluation.
func NewBaseline(name string, d *datasets.Dataset, seed uint64) (Model, error) {
	geom := GeometryOf(d)
	r := rng.New(seed)
	switch name {
	case "GWN":
		return NewGWN(geom, d.Adj, 32, 2, r), nil
	case "MTGNN":
		return NewMTGNN(geom, 32, 2, 2, r), nil
	case "DDGCRN":
		return NewDDGCRN(geom, d.Adj, 24, r), nil
	default:
		return nil, fmt.Errorf("gnn: unknown baseline %q", name)
	}
}

// BaselineNames lists the paper's three baselines in table order.
func BaselineNames() []string { return []string{"GWN", "MTGNN", "DDGCRN"} }
