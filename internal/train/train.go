// Package train implements the DS-GL training algorithm of paper Sec. III.B:
// learning the coupling matrix J and self-reaction vector h so that the
// dynamical system's lowest-energy state reproduces the data distribution.
//
// The loss is the regression residual of Eq. 10 — each variable must equal
// σ_i = -Σ_j J_ij σ_j / h_i given all others — summed over training
// windows, optimized by Adam with h projected negative (the convexity
// condition of the Hamiltonian) and diag(J) held at zero. The same trainer,
// restricted by a coupling mask, performs the pattern-constrained fine-tune
// of the decomposition pipeline (Sec. IV.B step 3).
package train

import (
	"errors"
	"fmt"
	"math"
	"time"

	"dsgl/internal/mat"
	"dsgl/internal/rng"
)

// Params is a trained dynamical system: coupling matrix J (zero diagonal)
// and self-reaction conductances h (all strictly negative).
type Params struct {
	J *mat.Dense
	H []float64
}

// Clone returns a deep copy.
func (p *Params) Clone() *Params {
	return &Params{J: p.J.Clone(), H: mat.CopyVec(p.H)}
}

// Dim returns the system size.
func (p *Params) Dim() int { return len(p.H) }

// Validate checks the structural invariants the hardware requires: square
// J matching h, zero diagonal, finite entries everywhere, and strictly
// negative h. NaN needs the explicit finiteness check — NaN >= 0 is false,
// so the sign test alone would pass it.
func (p *Params) Validate() error {
	n := len(p.H)
	if p.J.Rows != n || p.J.Cols != n {
		return fmt.Errorf("train: J is %dx%d but h has %d entries", p.J.Rows, p.J.Cols, n)
	}
	for k, v := range p.J.Data {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("train: J[%d][%d] = %g not finite", k/n, k%n, v)
		}
	}
	for i := 0; i < n; i++ {
		if p.J.At(i, i) != 0 {
			return fmt.Errorf("train: J diagonal non-zero at %d", i)
		}
		if h := p.H[i]; math.IsNaN(h) || math.IsInf(h, 0) {
			return fmt.Errorf("train: h[%d] = %g not finite", i, h)
		}
		if p.H[i] >= 0 {
			return fmt.Errorf("train: h[%d] = %g not negative", i, p.H[i])
		}
	}
	return nil
}

// Regress evaluates the one-shot regression of Eq. 10 for every variable:
// out_i = -Σ_j J_ij σ_j / h_i. It is the fixed-point target the annealed
// hardware settles to and is used for fast train-time validation.
func (p *Params) Regress(sigma, out []float64) []float64 {
	out = p.J.MulVec(sigma, out)
	for i := range out {
		out[i] = -out[i] / p.H[i]
	}
	return out
}

// Fit's ridge penalty on J, and the ceiling its projection keeps every
// h_i under.
const (
	l2   = 1e-3
	hMax = -0.5
)

// Config controls Fit.
type Config struct {
	// Epochs of full-batch Adam. Default 60.
	Epochs int
	// LR is the Adam learning rate. Default 0.02.
	LR float64
	// Mask, when non-nil, confines J's support: entries where the mask is
	// false stay zero. This is the fine-tuning constraint of Sec. IV.B.
	Mask *mat.Bool
	// RowWeight, when non-nil, weights each variable's residual in the
	// loss. Graph-learning training sets observed (always-clamped) rows to
	// zero so the entire coupling budget serves the predicted variables.
	RowWeight []float64
	// Init, when non-nil, provides starting parameters (fine-tuning).
	Init *Params
	// Seed randomizes J initialization.
	Seed uint64
}

func (c *Config) fillDefaults() {
	if c.Epochs == 0 {
		c.Epochs = 60
	}
	if c.LR == 0 {
		c.LR = 0.02
	}
}

// Fit learns Params from training windows. Each sample is one flattened
// window vector; all samples must share the same length.
func Fit(samples [][]float64, cfg Config) (*Params, error) {
	cfg.fillDefaults()
	if len(samples) == 0 {
		return nil, errors.New("train: no samples")
	}
	n := len(samples[0])
	for i, s := range samples {
		if len(s) != n {
			return nil, fmt.Errorf("train: sample %d has length %d, want %d", i, len(s), n)
		}
	}
	if cfg.Mask != nil && (cfg.Mask.Rows != n || cfg.Mask.Cols != n) {
		return nil, fmt.Errorf("train: mask is %dx%d, want %dx%d", cfg.Mask.Rows, cfg.Mask.Cols, n, n)
	}
	if cfg.RowWeight != nil && len(cfg.RowWeight) != n {
		return nil, fmt.Errorf("train: RowWeight has %d entries, want %d", len(cfg.RowWeight), n)
	}

	m := len(samples)
	// Stack samples into S (m x n) once.
	s := mat.NewDense(m, n)
	for i, smp := range samples {
		copy(s.Row(i), smp)
	}

	var params *Params
	if cfg.Init != nil {
		params = cfg.Init.Clone()
		if params.Dim() != n {
			return nil, fmt.Errorf("train: init params dim %d, want %d", params.Dim(), n)
		}
	} else {
		r := rng.New(cfg.Seed ^ 0x7ea1)
		j := mat.NewDense(n, n)
		r.FillNorm(j.Data, 0, 0.01)
		j.ZeroDiagonal()
		h := make([]float64, n)
		for i := range h {
			h[i] = -1
		}
		params = &Params{J: j, H: h}
	}
	applyConstraints(params, cfg)

	// Rows with zero loss weight receive no residual and therefore no
	// data gradient; restricting the forward and backward passes to the
	// active rows makes graph-learning training (where only the unknown
	// variables carry loss) several times cheaper.
	active := make([]int, 0, n)
	for i := 0; i < n; i++ {
		if cfg.RowWeight == nil || cfg.RowWeight[i] != 0 {
			active = append(active, i)
		}
	}
	na := len(active)

	opt := newAdam(n*n+n, cfg.LR)
	p := mat.NewDense(m, na)   // P[s][a] = Σ_j J_{active[a],j} σ_j
	res := mat.NewDense(m, na) // residuals over active rows
	gradJ := mat.NewDense(n, n)
	gradH := make([]float64, n)

	tm := metrics()
	tm.fits.Inc()

	for epoch := 0; epoch < cfg.Epochs; epoch++ {
		var epochStart time.Time
		if tm.enabled() {
			epochStart = time.Now()
		}
		// Forward over active rows: P[s][a] = σ_s · J_active[a].
		for smp := 0; smp < m; smp++ {
			srow, prow := s.Row(smp), p.Row(smp)
			for a, i := range active {
				jrow := params.J.Row(i)
				var sum float64
				for jj, v := range jrow {
					sum += v * srow[jj]
				}
				prow[a] = sum
			}
		}
		// Residual R[s][a] = w_i (σ_i + P[s][a]/h_i).
		for smp := 0; smp < m; smp++ {
			srow, prow, rrow := s.Row(smp), p.Row(smp), res.Row(smp)
			for a, i := range active {
				rrow[a] = srow[i] + prow[a]/params.H[i]
				if cfg.RowWeight != nil {
					rrow[a] *= cfg.RowWeight[i]
				}
			}
		}
		// gradJ over active rows = (2/m) diag(1/h) Rᵀ S (+ regularizers).
		gradJ.Zero()
		for smp := 0; smp < m; smp++ {
			srow, rrow := s.Row(smp), res.Row(smp)
			for a, i := range active {
				if rrow[a] == 0 {
					continue
				}
				coef := 2 * rrow[a] / (params.H[i] * float64(m))
				grow := gradJ.Row(i)
				for jj := 0; jj < n; jj++ {
					grow[jj] += coef * srow[jj]
				}
			}
		}
		for i, v := range params.J.Data {
			gradJ.Data[i] += 2 * l2 * v
		}
		// gradH_i = -(2/m) Σ_s R[s][i] P[s][i] / h_i².
		for i := range gradH {
			gradH[i] = 0
		}
		for smp := 0; smp < m; smp++ {
			prow, rrow := p.Row(smp), res.Row(smp)
			for a, i := range active {
				gradH[i] -= 2 * rrow[a] * prow[a] / (params.H[i] * params.H[i] * float64(m))
			}
		}
		opt.step(params.J.Data, gradJ.Data, 0)
		opt.step(params.H, gradH, n*n)
		applyConstraints(params, cfg)

		// Per-epoch telemetry: loss over the residuals this epoch computed,
		// gradient norms, wall time. Recorded once per epoch, and the extra
		// reductions run only when observability is enabled.
		if tm.enabled() {
			tm.epochs.Inc()
			var loss float64
			for _, r := range res.Data {
				loss += r * r
			}
			tm.epochLoss.Set(loss / float64(m*na))
			tm.gradNormJ.Set(l2norm(gradJ.Data))
			tm.gradNormH.Set(l2norm(gradH))
			tm.epochSeconds.Observe(time.Since(epochStart).Seconds())
		}
	}
	if err := params.Validate(); err != nil {
		return nil, err
	}
	return params, nil
}

// Loss evaluates the mean squared Eq.-10 residual of params over samples,
// without regularizers. Used by tests and by the decomposition pipeline to
// quantify accuracy loss after sparsification.
func Loss(p *Params, samples [][]float64) float64 {
	if len(samples) == 0 {
		return 0
	}
	n := p.Dim()
	buf := make([]float64, n)
	var total float64
	for _, smp := range samples {
		p.J.MulVec(smp, buf)
		for i := 0; i < n; i++ {
			r := smp[i] + buf[i]/p.H[i]
			total += r * r
		}
	}
	return total / float64(len(samples)*n)
}

// applyConstraints enforces diag(J)=0, the support mask, and h <= hMax.
func applyConstraints(p *Params, cfg Config) {
	p.J.ZeroDiagonal()
	if cfg.Mask != nil {
		p.J.ApplyMask(cfg.Mask)
	}
	for i, v := range p.H {
		if v > hMax {
			p.H[i] = hMax
		}
	}
}

// adam is a flat-parameter Adam optimizer shared between J and h. Offsets
// let both parameter blocks share one moment store.
type adam struct {
	lr, b1, b2, eps float64
	t               int
	mom, vel        []float64
}

func newAdam(dim int, lr float64) *adam {
	return &adam{lr: lr, b1: 0.9, b2: 0.999, eps: 1e-8,
		mom: make([]float64, dim), vel: make([]float64, dim)}
}

// step applies one Adam update to params given grads, using moment slots
// starting at offset. Callers must step all blocks the same number of
// times; t advances when offset == 0.
func (a *adam) step(params, grads []float64, offset int) {
	if offset == 0 {
		a.t++
	}
	c1 := 1 - math.Pow(a.b1, float64(a.t))
	c2 := 1 - math.Pow(a.b2, float64(a.t))
	for i, g := range grads {
		k := offset + i
		a.mom[k] = a.b1*a.mom[k] + (1-a.b1)*g
		a.vel[k] = a.b2*a.vel[k] + (1-a.b2)*g*g
		mhat := a.mom[k] / c1
		vhat := a.vel[k] / c2
		params[i] -= a.lr * mhat / (math.Sqrt(vhat) + a.eps)
	}
}
