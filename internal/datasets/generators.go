package datasets

import (
	"fmt"
	"math"
	"strings"

	"dsgl/internal/rng"
)

// Config controls generator size. Zero values select per-dataset defaults
// sized so the full evaluation pipeline (DS-GL + three GNN baselines) runs
// on a laptop in minutes.
type Config struct {
	N       int    // graph nodes
	T       int    // timesteps
	Seed    uint64 // generator seed
	History int    // window history length P
	Horizon int    // window horizon length Q
}

func (c Config) withDefaults(n, t, p, q int) Config {
	if c.N == 0 {
		c.N = n
	}
	if c.T == 0 {
		c.T = t
	}
	if c.History == 0 {
		c.History = p
	}
	if c.Horizon == 0 {
		c.Horizon = q
	}
	return c
}

// Names lists the seven single-feature datasets of the main evaluation, in
// the paper's table order.
func Names() []string {
	return []string{"no2", "covid", "o3", "traffic", "pm25", "pm10", "stock"}
}

// MultiNames lists the multi-feature datasets: the two Table IV workloads
// plus the synthetic heterogeneous generators (mixed per-class dynamics on
// one graph) that exercise the decomposition pipeline.
func MultiNames() []string {
	return []string{"housing", "climate", "heteromix", "heterokinetics", "heteroflow"}
}

// New builds and validates the named dataset, returning an error for an
// unknown name, a size no generator can build, or a dataset that fails
// Validate — the entry point for callers fed by external input (CLI
// arguments, serve boot specs), where bad input must surface as an error
// rather than a panic. Use Names() / MultiNames() for the valid set.
func New(name string, cfg Config) (*Dataset, error) {
	gen := generator(name)
	if gen == nil {
		return nil, fmt.Errorf("datasets: unknown dataset %q (valid: %s)",
			name, strings.Join(append(Names(), MultiNames()...), " "))
	}
	if err := cfg.check(); err != nil {
		return nil, fmt.Errorf("datasets: %s: %v", name, err)
	}
	d := gen(cfg)
	if err := d.Validate(); err != nil {
		return nil, err
	}
	return d, nil
}

// generator returns the named dataset's generator, or nil for an unknown
// name. Generators do not validate what they build; New does.
func generator(name string) func(Config) *Dataset {
	switch name {
	case "traffic":
		return GenTraffic
	case "pm25", "pm10", "no2", "o3":
		return func(cfg Config) *Dataset { return GenAir(name, cfg) }
	case "covid":
		return GenCovid
	case "stock":
		return GenStock
	case "housing":
		return GenHousing
	case "climate":
		return GenClimate
	case "heteromix":
		return GenHeteroMix
	case "heterokinetics":
		return GenHeteroKinetics
	case "heteroflow":
		return GenHeteroFlow
	}
	return nil
}

// check rejects sizes no generator can build: a graph needs two nodes, and
// no length can be negative. Zero selects the dataset's default.
func (c Config) check() error {
	if c.N == 1 || c.N < 0 {
		return fmt.Errorf("N = %d: a graph needs at least 2 nodes (0 selects the default)", c.N)
	}
	if c.T < 0 || c.History < 0 || c.Horizon < 0 {
		return fmt.Errorf("T = %d, History = %d, Horizon = %d: lengths cannot be negative (0 selects the default)",
			c.T, c.History, c.Horizon)
	}
	return nil
}

// Generate builds the named dataset. It panics where New returns an error;
// callers holding externally supplied names or sizes should use New.
func Generate(name string, cfg Config) *Dataset {
	d, err := New(name, cfg)
	if err != nil {
		panic(err.Error())
	}
	return d
}

// newBase allocates the Dataset shell shared by all generators.
func newBase(name string, cfg Config, f, predictFeature int, spec GraphSpec, r *rng.RNG) *Dataset {
	adj, labels := CommunityGraph(spec, r)
	return &Dataset{
		Name:           name,
		N:              cfg.N,
		F:              f,
		T:              cfg.T,
		Adj:            adj,
		Community:      labels,
		X:              make([]float64, cfg.T*cfg.N*f),
		History:        cfg.History,
		Horizon:        cfg.Horizon,
		PredictFeature: predictFeature,
		TrainFrac:      0.7,
	}
}

// GenTraffic models the Japanese road-traffic dataset: per-sensor flow with
// a strong daily cycle (period 24 steps), spatial diffusion along the road
// graph, rush-hour asymmetry, and occasional congestion shocks that
// propagate to neighbors.
func GenTraffic(cfg Config) *Dataset {
	cfg = cfg.withDefaults(48, 1920, 6, 2)
	cfg.Seed ^= 0x7a11
	r := rng.New(cfg.Seed)
	d := newBase("traffic", cfg, 1, -1, GraphSpec{N: cfg.N, Communities: 6}, r)
	diff := HiddenTransfer(d.Adj, r)

	base := make([]float64, d.N)  // per-sensor capacity
	amp := make([]float64, d.N)   // daily-cycle amplitude per sensor
	phase := make([]float64, d.N) // rush-hour offset per community
	x := make([]float64, d.N)     // current flow
	shock := make([]float64, d.N) // active congestion shocks
	for i := 0; i < d.N; i++ {
		base[i] = r.Uniform(0.5, 1.5)
		amp[i] = r.Uniform(0.3, 0.8)
		phase[i] = float64(d.Community[i])*0.4 + r.Uniform(-0.1, 0.1)
		x[i] = base[i]
	}
	nbr := make([]float64, d.N)
	for t := 0; t < d.T; t++ {
		diff.MulVec(x, nbr)
		hour := float64(t % 24)
		for i := 0; i < d.N; i++ {
			cyc := amp[i] * math.Sin((hour/24)*2*math.Pi+phase[i])
			shock[i] *= 0.85
			if r.Float64() < 0.008 {
				shock[i] += r.Uniform(0.4, 1.0)
			}
			x[i] = 0.45*x[i] + 0.35*nbr[i] + 0.2*(base[i]+cyc) +
				shock[i]*0.3 + r.NormScaled(0, 0.02)
			d.set(t, i, 0, x[i])
		}
	}
	d.normalize()
	return d
}

// airParams tunes the advection-diffusion generator per pollutant: PM is
// persistent and diffusive, NO2 tracks traffic with a daily cycle, O3 is
// photochemical (driven by the daily cycle, anti-correlated with NO2).
type airParams struct {
	persist, diffuse, seasonAmp, dailyAmp, noise float64
}

var airKinds = map[string]airParams{
	"pm25": {persist: 0.70, diffuse: 0.25, seasonAmp: 0.5, dailyAmp: 0.1, noise: 0.04},
	"pm10": {persist: 0.65, diffuse: 0.28, seasonAmp: 0.45, dailyAmp: 0.15, noise: 0.05},
	"no2":  {persist: 0.55, diffuse: 0.15, seasonAmp: 0.3, dailyAmp: 0.5, noise: 0.06},
	"o3":   {persist: 0.60, diffuse: 0.10, seasonAmp: 0.4, dailyAmp: 0.6, noise: 0.04},
}

// kindSeed hashes a dataset-kind string to a seed mix with FNV-1a, so
// every kind gets a distinct RNG stream. The previous mix —
// len(kind)*0x9e37 + kind[0] — collided for "pm25" and "pm10" (same
// length, same first byte), silently generating the two datasets from the
// identical stream: same graph, same communities, same emission field,
// same noise draws.
func kindSeed(kind string) uint64 {
	h := uint64(0xcbf29ce484222325) // FNV-1a 64-bit offset basis
	for i := 0; i < len(kind); i++ {
		h ^= uint64(kind[i])
		h *= 0x100000001b3 // FNV-1a 64-bit prime
	}
	return h
}

// GenAir models one pollutant from the Chinese air-quality reanalysis:
// station readings following an AR(1) field with graph diffusion, seasonal
// and daily forcing, and emission hot-spots per community. It panics on an
// unknown kind; callers holding externally supplied names should use New.
func GenAir(kind string, cfg Config) *Dataset {
	p, ok := airKinds[kind]
	if !ok {
		panic(fmt.Sprintf("datasets: unknown air-quality kind %q", kind))
	}
	cfg = cfg.withDefaults(48, 1920, 6, 2)
	cfg.Seed ^= kindSeed(kind)
	r := rng.New(cfg.Seed)
	d := newBase(kind, cfg, 1, -1, GraphSpec{N: cfg.N, Communities: 5}, r)
	diff := HiddenTransfer(d.Adj, r)

	emit := make([]float64, d.N)
	x := make([]float64, d.N)
	for i := 0; i < d.N; i++ {
		// Baseline emissions keep concentrations well above zero, so the
		// physical non-negativity clamp below fires only on rare extremes.
		emit[i] = r.Uniform(0.8, 1.5)
		if r.Float64() < 0.2 { // hot-spot stations
			emit[i] += r.Uniform(0.5, 1.0)
		}
		x[i] = emit[i]
	}
	nbr := make([]float64, d.N)
	sign := 1.0
	if kind == "o3" {
		sign = -1.0 // ozone is depressed where NO2-style daily forcing peaks
	}
	for t := 0; t < d.T; t++ {
		diff.MulVec(x, nbr)
		season := math.Sin(2 * math.Pi * float64(t) / 240)
		daily := math.Sin(2 * math.Pi * float64(t%24) / 24)
		for i := 0; i < d.N; i++ {
			drive := emit[i] * (1 + p.seasonAmp*season + sign*p.dailyAmp*daily)
			x[i] = p.persist*x[i] + p.diffuse*nbr[i] +
				(1-p.persist-p.diffuse)*drive + r.NormScaled(0, p.noise)
			if x[i] < 0 {
				x[i] = 0
			}
			d.set(t, i, 0, x[i])
		}
	}
	d.normalize()
	return d
}

// GenCovid models the CDC covid tracker: daily case increments following
// SIR-like epidemic waves on a contact graph, with staggered outbreaks
// seeded in different communities and waning immunity producing multiple
// waves.
func GenCovid(cfg Config) *Dataset {
	cfg = cfg.withDefaults(48, 1920, 6, 2)
	r := rng.New(cfg.Seed ^ 0xc01d)
	d := newBase("covid", cfg, 1, -1, GraphSpec{N: cfg.N, Communities: 5}, r)
	diff := HiddenTransfer(d.Adj, r)

	s := make([]float64, d.N) // susceptible fraction
	inf := make([]float64, d.N)
	nbr := make([]float64, d.N)
	for i := 0; i < d.N; i++ {
		s[i] = 1
		inf[i] = 0
	}
	// Seed an outbreak in community 0.
	for i := 0; i < d.N; i++ {
		if d.Community[i] == 0 {
			inf[i] = 0.002
			break
		}
	}
	beta0, gamma, wane := 0.22, 0.12, 0.01
	for t := 0; t < d.T; t++ {
		diff.MulVec(inf, nbr)
		beta := beta0 * (1 + 0.25*math.Sin(2*math.Pi*float64(t)/160))
		for i := 0; i < d.N; i++ {
			exposure := 0.6*inf[i] + 0.4*nbr[i]
			newCases := beta * s[i] * exposure
			// Occasional imported seeding keeps later waves going.
			if r.Float64() < 0.002 {
				newCases += 0.001
			}
			inf[i] += newCases - gamma*inf[i]
			s[i] += wane*(1-s[i]) - newCases
			if s[i] < 0 {
				s[i] = 0
			}
			if inf[i] < 0 {
				inf[i] = 0
			}
			d.set(t, i, 0, newCases+r.NormScaled(0, 0.0004))
		}
	}
	d.normalize()
	return d
}

// GenStock models NASDAQ daily prices: log-prices driven by a market
// factor, per-community (sector) factors, and idiosyncratic noise, with
// time-varying volatility.
func GenStock(cfg Config) *Dataset {
	cfg = cfg.withDefaults(48, 1920, 6, 2)
	r := rng.New(cfg.Seed ^ 0x570c)
	d := newBase("stock", cfg, 1, -1,
		GraphSpec{N: cfg.N, Communities: 6, IntraProb: 0.8, InterProb: 0.05}, r)

	nSect := 6
	beta := make([]float64, d.N)     // market beta
	sectBeta := make([]float64, d.N) // sector loading
	logp := make([]float64, d.N)
	for i := 0; i < d.N; i++ {
		beta[i] = r.Uniform(0.5, 1.5)
		sectBeta[i] = r.Uniform(0.5, 1.2)
		// Prices start at their factor-implied fair value (zero), avoiding
		// a decaying transient that would distort normalization.
	}
	// Market and sector levels follow slow AR(1) processes; individual
	// prices mean-revert toward their factor-implied fair value — the
	// classic statistical-arbitrage structure that makes related tickers
	// mutually informative.
	market := 0.0
	sector := make([]float64, nSect)
	vol := 0.01
	for t := 0; t < d.T; t++ {
		shock := r.NormScaled(0, vol)
		market = 0.98*market + shock
		for sct := range sector {
			sector[sct] = 0.97*sector[sct] + r.NormScaled(0, vol*0.8)
		}
		// GARCH-ish volatility clustering (contractive: 0.9 + 0.1*0.5*E|shock|/vol < 1).
		vol = 0.9*vol + 0.1*(0.01+0.5*math.Abs(shock))
		for i := 0; i < d.N; i++ {
			fair := beta[i]*market + sectBeta[i]*sector[d.Community[i]%nSect]
			logp[i] = 0.9*logp[i] + 0.1*fair + r.NormScaled(0, 0.004)
			d.set(t, i, 0, logp[i])
		}
	}
	d.normalize()
	return d
}

// GenHousing models the California housing dataset as a graph problem:
// districts on a geographic graph, each with F=6 features (median income,
// rooms, age, population density, coast proximity, school quality) whose
// slow drift produces a time series of market snapshots; the target price
// (feature 0) is a smooth nonlinear function of the features plus spatial
// spillover from neighboring districts.
func GenHousing(cfg Config) *Dataset {
	cfg = cfg.withDefaults(32, 960, 2, 1)
	r := rng.New(cfg.Seed ^ 0x40e5)
	const f = 6
	d := newBase("housing", cfg, f, 0, GraphSpec{N: cfg.N, Communities: 4}, r)
	diff := RowNormalized(d.Adj)

	// Static per-district character plus slow AR drift per feature.
	base := make([][]float64, d.N)
	cur := make([][]float64, d.N)
	for i := 0; i < d.N; i++ {
		base[i] = make([]float64, f)
		cur[i] = make([]float64, f)
		for k := 1; k < f; k++ {
			base[i][k] = r.Uniform(0.2, 1.0)
			cur[i][k] = base[i][k]
		}
	}
	price := make([]float64, d.N)
	nbr := make([]float64, d.N)
	for t := 0; t < d.T; t++ {
		cycle := 0.1 * math.Sin(2*math.Pi*float64(t)/80) // market cycle
		for i := 0; i < d.N; i++ {
			for k := 1; k < f; k++ {
				cur[i][k] = 0.97*cur[i][k] + 0.03*base[i][k] + r.NormScaled(0, 0.01)
			}
		}
		diff.MulVec(price, nbr)
		for i := 0; i < d.N; i++ {
			c := cur[i]
			// Hedonic pricing: a per-district linear blend of the
			// features plus the market cycle and spatial spillover.
			raw := 1.2*c[1] + 0.5*c[2] - 0.3*c[3] + 0.45*c[4] + 0.3*c[5] + cycle
			price[i] = 0.7*raw + 0.25*nbr[i] + r.NormScaled(0, 0.02)
			d.set(t, i, 0, price[i])
			for k := 1; k < f; k++ {
				d.set(t, i, k, c[k])
			}
		}
	}
	d.normalize()
	return d
}

// GenClimate models the world-weather dataset: stations with F=6 coupled
// features (temperature — the target — humidity, wind speed, pressure,
// cloud cover, precipitation) driven by seasonal cycles, latitude bands
// (communities), and cross-feature physics (fronts move pressure, pressure
// moves wind, clouds damp temperature swing).
func GenClimate(cfg Config) *Dataset {
	cfg = cfg.withDefaults(32, 1440, 4, 1)
	r := rng.New(cfg.Seed ^ 0xc11a)
	const f = 6
	d := newBase("climate", cfg, f, 0, GraphSpec{N: cfg.N, Communities: 4}, r)
	diff := RowNormalized(d.Adj)

	lat := make([]float64, d.N) // latitude band per community
	for i := 0; i < d.N; i++ {
		lat[i] = float64(d.Community[i]) / 4
	}
	temp := make([]float64, d.N)
	press := make([]float64, d.N)
	hum := make([]float64, d.N)
	wind := make([]float64, d.N)
	cloud := make([]float64, d.N)
	nbrT := make([]float64, d.N)
	for i := 0; i < d.N; i++ {
		temp[i] = 0.5 - 0.4*lat[i]
		press[i] = r.Uniform(-0.1, 0.1)
		hum[i] = r.Uniform(0.3, 0.7)
	}
	for t := 0; t < d.T; t++ {
		season := math.Sin(2 * math.Pi * float64(t) / 360)
		diff.MulVec(temp, nbrT)
		for i := 0; i < d.N; i++ {
			press[i] = 0.9*press[i] + r.NormScaled(0, 0.05)
			wind[i] = 0.7*wind[i] + 0.5*math.Abs(press[i]) + r.NormScaled(0, 0.03)
			cloud[i] = 0.8*cloud[i] + 0.3*hum[i]*math.Abs(press[i]) + r.NormScaled(0, 0.04)
			forcing := (0.6-0.5*lat[i])*(1+0.5*season) - 0.35*cloud[i]
			temp[i] = 0.75*temp[i] + 0.15*nbrT[i] + 0.1*forcing + r.NormScaled(0, 0.02)
			hum[i] = 0.85*hum[i] + 0.1*cloud[i] + 0.05*math.Max(0, -press[i]) + r.NormScaled(0, 0.02)
			precip := math.Max(0, cloud[i]*hum[i]-0.2) + r.NormScaled(0, 0.01)

			d.set(t, i, 0, temp[i])
			d.set(t, i, 1, hum[i])
			d.set(t, i, 2, wind[i])
			d.set(t, i, 3, press[i])
			d.set(t, i, 4, cloud[i])
			d.set(t, i, 5, precip)
		}
	}
	d.normalize()
	return d
}

// The heterogeneous generators below put MIXED dynamics on one graph:
// every node carries one of three interaction types (tied to its
// community, so types align with graph structure), and each type follows
// its own law. They exist to exercise the decomposition pipeline
// (internal/hetero + per-class ridge blocks), whose class assignment must
// recover the planted types from per-node feature statistics alone.

// heteroType derives the planted interaction type of a node from its
// community label. Communities are type-pure, so the class-refined
// partition the decomposition builds aligns with the graph's natural
// community structure.
func heteroType(community int) int { return community % 3 }

// GenHeteroMix mixes three canonical dynamical families on one graph
// (after the graph-dynamical-systems exemplars): oscillator nodes (damped
// driven second-order dynamics with per-node frequency), diffusive nodes
// (relaxation toward the neighbor field), and mean-reverting nodes
// (Ornstein-Uhlenbeck pull toward a per-node baseline). F=3 features per
// node: the state (the prediction target), the lagged neighbor field
// (diffusion of the previous step's states — spatial context, never the
// node's own next value), and the exogenous per-node drive. The per-type
// state statistics (oscillation, smoothness, noise level) are what the
// class-assignment clustering must recover.
func GenHeteroMix(cfg Config) *Dataset {
	cfg = cfg.withDefaults(36, 960, 3, 1)
	r := rng.New(cfg.Seed ^ kindSeed("heteromix"))
	d := newBase("heteromix", cfg, 3, 0, GraphSpec{N: cfg.N, Communities: 6}, r)
	diff := RowNormalized(d.Adj)

	x := make([]float64, d.N)    // state
	v := make([]float64, d.N)    // oscillator velocity
	base := make([]float64, d.N) // per-node baseline / rest level
	freq := make([]float64, d.N) // oscillator angular frequency
	nbr := make([]float64, d.N)
	for i := 0; i < d.N; i++ {
		base[i] = r.Uniform(-0.4, 0.4)
		freq[i] = r.Uniform(0.35, 0.7)
		x[i] = base[i] + r.Uniform(-0.2, 0.2)
	}
	const dt = 1.0
	for t := 0; t < d.T; t++ {
		// nbr is the diffusion of the PREVIOUS step's states; recording it
		// as a feature is spatial context, not a leak of the target.
		diff.MulVec(x, nbr)
		season := 0.15 * math.Sin(2*math.Pi*float64(t)/120)
		for i := 0; i < d.N; i++ {
			drive := base[i] + season
			switch heteroType(d.Community[i]) {
			case 0: // oscillator: damped, neighbor-driven
				a := -freq[i]*freq[i]*(x[i]-base[i]) - 0.08*v[i] + 0.12*(nbr[i]-x[i])
				v[i] += dt * a
				x[i] += dt*v[i] + r.NormScaled(0, 0.01)
			case 1: // diffusive: relax toward the neighbor field
				x[i] = 0.55*x[i] + 0.35*nbr[i] + 0.1*drive + r.NormScaled(0, 0.015)
			default: // mean-reverting: OU pull with heavier noise
				x[i] += 0.25*(drive-x[i]) + 0.06*(nbr[i]-x[i]) + r.NormScaled(0, 0.05)
			}
			d.set(t, i, 0, x[i])
			d.set(t, i, 1, nbr[i])
			d.set(t, i, 2, drive)
		}
	}
	d.normalize()
	return d
}

// GenHeteroKinetics models a reaction network with three chemical roles:
// activator nodes (logistic self-amplification fed by neighboring
// substrate), inhibitor nodes (tracking neighboring activator activity),
// and substrate nodes (replenishing, consumed by neighboring activators).
// F=3 features: concentration (the target), the node's exogenous forcing
// (rate-scaled seasonal drive), and the incoming neighbor field computed
// from the previous step's concentrations — neither horizon feature
// determines the node's own next concentration.
func GenHeteroKinetics(cfg Config) *Dataset {
	cfg = cfg.withDefaults(36, 960, 3, 1)
	r := rng.New(cfg.Seed ^ kindSeed("heterokinetics"))
	d := newBase("heterokinetics", cfg, 3, 0, GraphSpec{N: cfg.N, Communities: 6}, r)
	diff := RowNormalized(d.Adj)

	c := make([]float64, d.N)    // concentration
	rate := make([]float64, d.N) // growth/decay parameter per node
	nbr := make([]float64, d.N)
	for i := 0; i < d.N; i++ {
		c[i] = r.Uniform(0.2, 0.8)
		rate[i] = r.Uniform(0.8, 1.2)
	}
	for t := 0; t < d.T; t++ {
		diff.MulVec(c, nbr)
		drive := 0.1 * (1 + math.Sin(2*math.Pi*float64(t)/180))
		for i := 0; i < d.N; i++ {
			var dc float64
			switch heteroType(d.Community[i]) {
			case 0: // activator: logistic growth fed by the neighbor field
				dc = 0.22*rate[i]*c[i]*(1-c[i]) + 0.12*nbr[i] - 0.14*c[i]
			case 1: // inhibitor: tracks neighboring activity, decays
				dc = 0.3*nbr[i] - 0.2*rate[i]*c[i]
			default: // substrate: replenished, consumed by neighbors
				dc = 0.18*rate[i]*(1-c[i]) - 0.25*nbr[i]*c[i] + drive
			}
			c[i] += dc + r.NormScaled(0, 0.02)
			if c[i] < 0 {
				c[i] = 0
			}
			if c[i] > 2 {
				c[i] = 2
			}
			d.set(t, i, 0, c[i])
			d.set(t, i, 1, rate[i]*drive)
			d.set(t, i, 2, nbr[i])
		}
	}
	d.normalize()
	return d
}

// GenHeteroFlow models a transport network with three node roles: source
// nodes injecting periodically forced flow, relay nodes passing their
// level downstream with moderate leakage, and sink nodes draining it.
// F=3 features: level (the target), inflow, and outflow.
func GenHeteroFlow(cfg Config) *Dataset {
	cfg = cfg.withDefaults(36, 960, 3, 1)
	r := rng.New(cfg.Seed ^ kindSeed("heteroflow"))
	d := newBase("heteroflow", cfg, 3, 0, GraphSpec{N: cfg.N, Communities: 6}, r)
	diff := RowNormalized(d.Adj)

	level := make([]float64, d.N)
	outRate := make([]float64, d.N) // fraction of the level shipped per step
	phase := make([]float64, d.N)
	out := make([]float64, d.N)
	in := make([]float64, d.N)
	for i := 0; i < d.N; i++ {
		level[i] = r.Uniform(0.3, 0.7)
		phase[i] = r.Uniform(0, 2*math.Pi)
		switch heteroType(d.Community[i]) {
		case 0: // source: slow shipper, fed externally below
			outRate[i] = r.Uniform(0.15, 0.25)
		case 1: // relay: pass-through
			outRate[i] = r.Uniform(0.35, 0.5)
		default: // sink: drains out of the system
			outRate[i] = r.Uniform(0.55, 0.75)
		}
	}
	for t := 0; t < d.T; t++ {
		for i := 0; i < d.N; i++ {
			out[i] = outRate[i] * level[i]
		}
		// Inflow is the neighbor-weighted share of what neighbors ship.
		diff.MulVec(out, in)
		for i := 0; i < d.N; i++ {
			inject := 0.0
			if heteroType(d.Community[i]) == 0 {
				inject = 0.12 * (1 + math.Sin(2*math.Pi*float64(t)/96+phase[i]))
			}
			keep := 1.0 // relays and sources keep what they receive
			if heteroType(d.Community[i]) == 2 {
				keep = 0.5 // sinks absorb half of their outflow out of the system
			}
			level[i] += in[i] + inject - keep*out[i] + r.NormScaled(0, 0.015)
			if level[i] < 0 {
				level[i] = 0
			}
			d.set(t, i, 0, level[i])
			d.set(t, i, 1, in[i]+inject)
			d.set(t, i, 2, out[i])
		}
	}
	d.normalize()
	return d
}
