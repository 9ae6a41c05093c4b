// Package hetero assigns graph nodes to interaction classes for
// heterogeneous decomposition (ROADMAP item 5). Following the decomp-gnn
// line of work (Allier et al. 2024), a heterogeneous dynamical system is
// decomposed by clustering nodes into K classes from their observable
// behavior and fitting per-class-pair interaction models (see
// train.Moments.Ridge). The class assignment here is unsupervised and fully
// deterministic under a seed: k-means++ over standardized per-node feature
// statistics (mean, standard deviation, lag-1 autocorrelation per feature
// channel), optionally augmented with graph-propagated statistics so
// structurally similar nodes cluster together ("embed" mode).
package hetero

import (
	"fmt"
	"math"

	"dsgl/internal/datasets"
	"dsgl/internal/rng"
)

// Modes for Config.Mode.
const (
	// ModeStats clusters on per-node feature statistics alone.
	ModeStats = "stats"
	// ModeEmbed augments the statistics with 1-hop and 2-hop
	// neighborhood-propagated copies (a cheap spectral embedding), so the
	// clustering also sees what a node's neighborhood looks like.
	ModeEmbed = "embed"
)

// Config controls class assignment.
type Config struct {
	// K is the number of interaction classes (>= 1).
	K int
	// Mode selects the node profile: ModeStats (default) or ModeEmbed.
	Mode string
	// Seed drives the deterministic k-means++ initialization.
	Seed uint64
}

// Classes is a class assignment: K classes, one label per node.
// Labels are canonicalized by first occurrence — node 0 always has class
// 0, the first node with a different class has class 1, and so on — so
// equal clusterings compare equal regardless of centroid initialization
// order.
type Classes struct {
	K         int
	NodeClass []int
}

// Uniform returns the K=1 assignment (every node class 0) for n nodes.
func Uniform(n int) *Classes {
	return &Classes{K: 1, NodeClass: make([]int, n)}
}

// Assign partitions the dataset's nodes into cfg.K interaction classes.
// The result is deterministic: the same dataset, K, mode, and seed always
// produce the same labels.
func Assign(d *datasets.Dataset, cfg Config) (*Classes, error) {
	if cfg.K <= 0 {
		return nil, fmt.Errorf("hetero: K must be >= 1, got %d", cfg.K)
	}
	if cfg.K > d.N {
		return nil, fmt.Errorf("hetero: K=%d exceeds node count %d", cfg.K, d.N)
	}
	mode := cfg.Mode
	if mode == "" {
		mode = ModeStats
	}
	if mode != ModeStats && mode != ModeEmbed {
		return nil, fmt.Errorf("hetero: unknown mode %q (want %q or %q)", cfg.Mode, ModeStats, ModeEmbed)
	}
	if cfg.K == 1 {
		return Uniform(d.N), nil
	}

	prof := profiles(d, mode)
	standardize(prof, d.N)
	// Multi-restart Lloyd: k-means++ is sensitive to its initialization,
	// so run several seeded restarts and keep the lowest-inertia
	// clustering. Restart order is fixed, so the result is deterministic.
	r := rng.New(cfg.Seed ^ 0x68657465726f31) // "hetero1"
	var best []int
	bestInertia := math.Inf(1)
	for restart := 0; restart < 8; restart++ {
		labels := kmeans(prof, d.N, cfg.K, r)
		if in := inertia(prof, d.N, cfg.K, labels); in < bestInertia {
			bestInertia = in
			best = labels
		}
	}
	return &Classes{K: cfg.K, NodeClass: canonicalize(best, cfg.K)}, nil
}

// inertia is the within-cluster sum of squared distances to centroids.
func inertia(prof []float64, n, k int, labels []int) float64 {
	dims := len(prof) / n
	centers := make([][]float64, k)
	counts := make([]int, k)
	for c := range centers {
		centers[c] = make([]float64, dims)
	}
	for i := 0; i < n; i++ {
		c := labels[i]
		counts[c]++
		row := prof[i*dims : (i+1)*dims]
		for d, v := range row {
			centers[c][d] += v
		}
	}
	for c := range centers {
		if counts[c] == 0 {
			continue
		}
		inv := 1 / float64(counts[c])
		for d := range centers[c] {
			centers[c][d] *= inv
		}
	}
	var s float64
	for i := 0; i < n; i++ {
		s += dist2(prof, dims, i, centers[labels[i]])
	}
	return s
}

// statsPerChannel is the number of statistics computed per feature
// channel: mean, std, lag-1 autocorrelation, one-step-change std, and
// one-step-change lag-1 autocorrelation. The change-based pair separates
// dynamical families (oscillatory vs diffusive vs noise-driven) that the
// level statistics alone cannot.
const statsPerChannel = 5

// profiles builds the per-node feature-statistics matrix, row-major
// [node][dim]. Stats mode: statsPerChannel dims per feature channel.
// Embed mode: those plus their 1-hop and 2-hop RowNormalized-propagated
// copies (3 x statsPerChannel dims per channel).
func profiles(d *datasets.Dataset, mode string) []float64 {
	base := statsPerChannel * d.F
	dims := base
	if mode == ModeEmbed {
		dims = 3 * base
	}
	prof := make([]float64, d.N*dims)
	for n := 0; n < d.N; n++ {
		for f := 0; f < d.F; f++ {
			var sum, sumSq float64
			for t := 0; t < d.T; t++ {
				v := d.At(t, n, f)
				sum += v
				sumSq += v * v
			}
			mean := sum / float64(d.T)
			variance := sumSq/float64(d.T) - mean*mean
			if variance < 0 {
				variance = 0
			}
			std := math.Sqrt(variance)
			var ac float64 // lag-1 autocorrelation of the level
			if variance > 0 {
				var cov float64
				for t := 0; t+1 < d.T; t++ {
					cov += (d.At(t, n, f) - mean) * (d.At(t+1, n, f) - mean)
				}
				ac = cov / (variance * float64(d.T-1))
			}
			// One-step changes: their scale and smoothness.
			var dSum, dSumSq float64
			nd := d.T - 1
			for t := 0; t < nd; t++ {
				dv := d.At(t+1, n, f) - d.At(t, n, f)
				dSum += dv
				dSumSq += dv * dv
			}
			dMean := dSum / float64(nd)
			dVar := dSumSq/float64(nd) - dMean*dMean
			if dVar < 0 {
				dVar = 0
			}
			var dAc float64
			if dVar > 0 {
				var dCov float64
				for t := 0; t+1 < nd; t++ {
					a := d.At(t+1, n, f) - d.At(t, n, f)
					b := d.At(t+2, n, f) - d.At(t+1, n, f)
					dCov += (a - dMean) * (b - dMean)
				}
				dAc = dCov / (dVar * float64(nd-1))
			}
			o := n*dims + statsPerChannel*f
			prof[o+0] = mean
			prof[o+1] = std
			prof[o+2] = ac
			prof[o+3] = math.Sqrt(dVar)
			prof[o+4] = dAc
		}
	}
	if mode != ModeEmbed {
		return prof
	}
	// Propagate the base statistics over the normalized adjacency: column
	// block 1 is P·S (neighborhood average), block 2 is P²·S (2-hop).
	p := datasets.RowNormalized(d.Adj)
	col := make([]float64, d.N)
	hop := make([]float64, d.N)
	for dim := 0; dim < base; dim++ {
		for n := 0; n < d.N; n++ {
			col[n] = prof[n*dims+dim]
		}
		p.MulVec(col, hop)
		for n := 0; n < d.N; n++ {
			prof[n*dims+base+dim] = hop[n]
		}
		p.MulVec(hop, col)
		for n := 0; n < d.N; n++ {
			prof[n*dims+2*base+dim] = col[n]
		}
	}
	return prof
}

// standardize z-scores each profile dimension across nodes so no single
// statistic dominates the k-means distances.
func standardize(prof []float64, n int) {
	if n == 0 {
		return
	}
	dims := len(prof) / n
	for dim := 0; dim < dims; dim++ {
		var sum, sumSq float64
		for i := 0; i < n; i++ {
			v := prof[i*dims+dim]
			sum += v
			sumSq += v * v
		}
		mean := sum / float64(n)
		variance := sumSq/float64(n) - mean*mean
		if variance <= 0 {
			for i := 0; i < n; i++ {
				prof[i*dims+dim] = 0
			}
			continue
		}
		inv := 1 / math.Sqrt(variance)
		for i := 0; i < n; i++ {
			prof[i*dims+dim] = (prof[i*dims+dim] - mean) * inv
		}
	}
}

func dist2(prof []float64, dims, node int, center []float64) float64 {
	var s float64
	row := prof[node*dims : (node+1)*dims]
	for i, v := range row {
		dv := v - center[i]
		s += dv * dv
	}
	return s
}

// kmeans runs deterministic k-means++ (seeded centers, Lloyd iterations,
// lowest-index tie-breaking, farthest-point repair for empty clusters).
func kmeans(prof []float64, n, k int, r *rng.RNG) []int {
	dims := len(prof) / n
	centers := make([][]float64, k)
	// k-means++ seeding: first center uniform, the rest sampled
	// proportionally to squared distance from the nearest chosen center.
	first := r.Intn(n)
	centers[0] = append([]float64(nil), prof[first*dims:(first+1)*dims]...)
	d2 := make([]float64, n)
	for i := 0; i < n; i++ {
		d2[i] = dist2(prof, dims, i, centers[0])
	}
	for c := 1; c < k; c++ {
		var total float64
		for _, v := range d2 {
			total += v
		}
		pick := 0
		if total > 0 {
			target := r.Float64() * total
			acc := 0.0
			for i := 0; i < n; i++ {
				acc += d2[i]
				if acc >= target {
					pick = i
					break
				}
			}
		} else {
			pick = r.Intn(n) // all points coincide; any choice is equivalent
		}
		centers[c] = append([]float64(nil), prof[pick*dims:(pick+1)*dims]...)
		for i := 0; i < n; i++ {
			if d := dist2(prof, dims, i, centers[c]); d < d2[i] {
				d2[i] = d
			}
		}
	}

	labels := make([]int, n)
	counts := make([]int, k)
	for iter := 0; iter < 100; iter++ {
		changed := false
		for i := 0; i < n; i++ {
			best, bestD := 0, dist2(prof, dims, i, centers[0])
			for c := 1; c < k; c++ {
				if d := dist2(prof, dims, i, centers[c]); d < bestD {
					best, bestD = c, d
				}
			}
			if labels[i] != best {
				labels[i] = best
				changed = true
			}
		}
		if !changed && iter > 0 {
			break
		}
		// Recompute centers; repair empty clusters with the point farthest
		// from its current center (deterministic: first maximum wins).
		for c := range centers {
			counts[c] = 0
			for d := range centers[c] {
				centers[c][d] = 0
			}
		}
		for i := 0; i < n; i++ {
			c := labels[i]
			counts[c]++
			row := prof[i*dims : (i+1)*dims]
			for d, v := range row {
				centers[c][d] += v
			}
		}
		for c := range centers {
			if counts[c] == 0 {
				continue
			}
			inv := 1 / float64(counts[c])
			for d := range centers[c] {
				centers[c][d] *= inv
			}
		}
		for c := range centers {
			if counts[c] > 0 {
				continue
			}
			far, farD := 0, -1.0
			for i := 0; i < n; i++ {
				if counts[labels[i]] <= 1 {
					continue // don't empty another cluster
				}
				if d := dist2(prof, dims, i, centers[labels[i]]); d > farD {
					far, farD = i, d
				}
			}
			counts[labels[far]]--
			counts[c] = 1
			copy(centers[c], prof[far*dims:(far+1)*dims])
			labels[far] = c
		}
	}
	return labels
}

// canonicalize renumbers labels by first occurrence.
func canonicalize(labels []int, k int) []int {
	remap := make([]int, k)
	for i := range remap {
		remap[i] = -1
	}
	next := 0
	out := make([]int, len(labels))
	for i, l := range labels {
		if remap[l] < 0 {
			remap[l] = next
			next++
		}
		out[i] = remap[l]
	}
	return out
}
