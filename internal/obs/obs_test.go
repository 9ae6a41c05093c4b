package obs

import (
	"math"
	"sort"
	"strings"
	"sync"
	"testing"

	"dsgl/internal/alloctest"
)

func TestCounterConcurrent(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("test_total", "concurrent counter")
	const goroutines, perG = 16, 10000
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				c.Inc()
			}
		}()
	}
	wg.Wait()
	if got, want := c.Value(), uint64(goroutines*perG); got != want {
		t.Fatalf("counter = %d, want %d", got, want)
	}
}

func TestCounterAddNegativeIgnored(t *testing.T) {
	var c Counter
	c.Add(3)
	if c.Value() != 3 {
		t.Fatalf("counter = %d, want 3", c.Value())
	}
}

func TestGaugeConcurrentAdd(t *testing.T) {
	r := NewRegistry()
	g := r.Gauge("test_gauge", "concurrent gauge")
	const goroutines, perG = 8, 5000
	var wg sync.WaitGroup
	for i := 0; i < goroutines; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < perG; j++ {
				g.Add(1)
			}
		}()
	}
	wg.Wait()
	if got, want := g.Value(), float64(goroutines*perG); got != want {
		t.Fatalf("gauge = %g, want %g", got, want)
	}
	g.Set(-2.5)
	if g.Value() != -2.5 {
		t.Fatalf("gauge after Set = %g, want -2.5", g.Value())
	}
}

func TestHistogramConcurrent(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("test_seconds", "concurrent histogram")
	const goroutines, perG = 8, 4000
	var wg sync.WaitGroup
	for i := 0; i < goroutines; i++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			for j := 0; j < perG; j++ {
				h.Observe(float64(int(1) << (id % 6))) // exact powers of two
			}
		}(i)
	}
	wg.Wait()
	if got, want := h.Count(), uint64(goroutines*perG); got != want {
		t.Fatalf("count = %d, want %d", got, want)
	}
	// Sum of integer-valued observations is exact in float64.
	var want float64
	for i := 0; i < goroutines; i++ {
		want += float64(uint64(1<<(i%6)) * perG)
	}
	if h.Sum() != want {
		t.Fatalf("sum = %g, want %g", h.Sum(), want)
	}
	buckets := h.snapshotBuckets()
	last := buckets[len(buckets)-1]
	if !math.IsInf(last.UpperBound, 1) || last.CumulativeCount != h.Count() {
		t.Fatalf("+Inf bucket = %+v, want cumulative %d", last, h.Count())
	}
}

func TestHistogramBucketIndex(t *testing.T) {
	cases := []struct {
		v     float64
		bound float64 // expected upper bound of the chosen bucket
	}{
		{0, bucketBound(0)},
		{-3, bucketBound(0)},
		{1, 1},               // exact power of two lands on its own bound
		{1.5, 2},             // rounds up to the next power of two
		{2, 2},               //
		{2.1, 4},             //
		{0.5, 0.5},           //
		{0.4, 0.5},           //
		{1e300, math.Inf(1)}, // beyond 2^64 → overflow bucket
	}
	for _, c := range cases {
		idx := bucketIndex(c.v)
		if got := bucketBound(idx); got != c.bound {
			t.Errorf("bucketBound(bucketIndex(%g)) = %g, want %g", c.v, got, c.bound)
		}
		if c.v > 0 && !math.IsInf(c.bound, 1) && c.v > c.bound {
			t.Errorf("observation %g above its bucket bound %g", c.v, c.bound)
		}
	}
}

func TestHistogramIgnoresNaN(t *testing.T) {
	var h Histogram
	h.Observe(math.NaN())
	h.Observe(1)
	if h.Count() != 1 || h.Sum() != 1 {
		t.Fatalf("count=%d sum=%g after NaN observe, want 1/1", h.Count(), h.Sum())
	}
}

func TestSummaryQuantiles(t *testing.T) {
	r := NewRegistry()
	s := r.Summary("test_summary", "quantile summary")
	// Uniform 1..10000 in shuffled-ish order; P² should land close to
	// the true quantiles.
	const n = 10000
	for i := 0; i < n; i++ {
		v := float64((i*7919)%n + 1) // 7919 coprime with 10000 → permutation
		s.Observe(v)
	}
	if s.Count() != n {
		t.Fatalf("count = %d, want %d", s.Count(), n)
	}
	for _, tc := range []struct{ q, want, tol float64 }{
		{0.5, 5000, 250},
		{0.9, 9000, 250},
		{0.99, 9900, 250},
	} {
		got := s.Quantile(tc.q)
		if math.Abs(got-tc.want) > tc.tol {
			t.Errorf("q%g = %g, want %g ± %g", tc.q, got, tc.want, tc.tol)
		}
	}
	if !math.IsNaN(s.Quantile(0.25)) {
		t.Errorf("untracked quantile should be NaN, got %g", s.Quantile(0.25))
	}
}

func TestSummarySmallSampleExact(t *testing.T) {
	var got []float64
	s := newSummary([]float64{0.5})
	for _, v := range []float64{5, 1, 3} {
		s.Observe(v)
		got = append(got, s.Quantile(0.5))
	}
	// Nearest-rank medians of {5}, {1,5}, {1,3,5}.
	want := []float64{5, 1, 3}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("median after %d samples = %g, want %g", i+1, got[i], want[i])
		}
	}
	empty := newSummary([]float64{0.5})
	if !math.IsNaN(empty.Quantile(0.5)) {
		t.Errorf("empty summary quantile should be NaN")
	}
}

func TestSummaryConcurrent(t *testing.T) {
	r := NewRegistry()
	s := r.Summary("test_conc_summary", "concurrent summary")
	const goroutines, perG = 8, 2000
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				s.Observe(float64(i%100) + float64(id))
			}
		}(g)
	}
	wg.Wait()
	if got, want := s.Count(), uint64(goroutines*perG); got != want {
		t.Fatalf("count = %d, want %d", got, want)
	}
	med := s.Quantile(0.5)
	if med < 0 || med > 110 {
		t.Fatalf("median %g outside observed range", med)
	}
}

func TestRegistryIdempotent(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("x_total", "", L("backend", "scalable"))
	b := r.Counter("x_total", "", L("backend", "scalable"))
	if a != b {
		t.Fatal("same (name, labels) should return the same counter")
	}
	c := r.Counter("x_total", "", L("backend", "dense"))
	if a == c {
		t.Fatal("different labels should return distinct counters")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("kind mismatch should panic")
		}
	}()
	r.Gauge("x_total", "", L("backend", "scalable"))
}

func TestNilRegistryAndInstrumentsNoop(t *testing.T) {
	var r *Registry
	c := r.Counter("a", "")
	g := r.Gauge("b", "")
	h := r.Histogram("c", "")
	s := r.Summary("d", "")
	if c != nil || g != nil || h != nil || s != nil {
		t.Fatal("nil registry must hand out nil instruments")
	}
	// All calls below must be safe no-ops.
	c.Inc()
	c.Add(5)
	g.Set(1)
	g.Add(1)
	h.Observe(1)
	s.Observe(1)
	if c.Value() != 0 || g.Value() != 0 || h.Count() != 0 || s.Count() != 0 {
		t.Fatal("nil instruments must read as zero")
	}
	if !math.IsNaN(s.Quantile(0.5)) {
		t.Fatal("nil summary quantile should be NaN")
	}
	if r.Snapshot() != nil {
		t.Fatal("nil registry snapshot should be nil")
	}
	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil || sb.Len() != 0 {
		t.Fatalf("nil registry exposition should write nothing, got %q (%v)", sb.String(), err)
	}
}

// TestRecordZeroAlloc pins the hot-path contract: recording into live
// instruments and the nil no-op path both perform zero allocations.
func TestRecordZeroAlloc(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("alloc_total", "")
	g := r.Gauge("alloc_gauge", "")
	h := r.Histogram("alloc_hist", "")
	alloctest.SkipUnderRace(t)
	if n := alloctest.Count(1000, func() {
		c.Inc()
		g.Set(3)
		g.Add(1)
		h.Observe(2.5)
	}); n != 0 {
		t.Fatalf("live instruments allocated %d times in 1000 records", n)
	}
	var nc *Counter
	var ng *Gauge
	var nh *Histogram
	var ns *Summary
	if n := alloctest.Count(1000, func() {
		nc.Inc()
		ng.Set(3)
		nh.Observe(2.5)
		ns.Observe(2.5)
	}); n != 0 {
		t.Fatalf("nil instruments allocated %d times in 1000 records", n)
	}
}

func TestDefaultRegistryLifecycle(t *testing.T) {
	old := Default()
	defer SetDefault(old)

	SetDefault(nil)
	if Default() != nil {
		t.Fatal("Default should be nil after SetDefault(nil)")
	}
	r1 := Enable()
	if r1 == nil || Default() != r1 {
		t.Fatal("Enable should install and return a registry")
	}
	if r2 := Enable(); r2 != r1 {
		t.Fatal("second Enable should return the same registry")
	}
	Disable()
	if Default() != nil {
		t.Fatal("Disable should clear the default registry")
	}
}

func TestSnapshotJSONSafe(t *testing.T) {
	r := NewRegistry()
	r.Gauge("nan_gauge", "").Set(math.NaN())
	r.Summary("empty_summary", "")
	for _, ms := range r.Snapshot() {
		if ms.Value != nil && (math.IsNaN(*ms.Value) || math.IsInf(*ms.Value, 0)) {
			t.Errorf("%s: non-finite gauge leaked into snapshot", ms.Name)
		}
		for _, q := range ms.Quantiles {
			if math.IsNaN(q.Value) {
				t.Errorf("%s: NaN quantile leaked into snapshot", ms.Name)
			}
		}
	}
}

// TestWritePrometheusGolden locks the exposition format: HELP/TYPE
// headers, sorted labels, cumulative buckets ending in +Inf, summary
// quantile lines, and _sum/_count suffixes.
func TestWritePrometheusGolden(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("dsgl_test_total", "test counter", L("backend", "scalable"))
	c.Add(3)
	c2 := r.Counter("dsgl_test_total", "test counter", L("backend", "dense"))
	c2.Add(1)
	g := r.Gauge("dsgl_test_depth", "test gauge")
	g.Set(2.5)
	h := r.Histogram("dsgl_test_seconds", "test histogram")
	h.Observe(0.5)
	h.Observe(0.75) // → le="1" bucket
	h.Observe(3)    // → le="4" bucket
	s := r.Summary("dsgl_test_residual", "test summary")
	s.Observe(2)

	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	got := sb.String()
	want := strings.Join([]string{
		`# HELP dsgl_test_total test counter`,
		`# TYPE dsgl_test_total counter`,
		`dsgl_test_total{backend="scalable"} 3`,
		`dsgl_test_total{backend="dense"} 1`,
		`# HELP dsgl_test_depth test gauge`,
		`# TYPE dsgl_test_depth gauge`,
		`dsgl_test_depth 2.5`,
		`# HELP dsgl_test_seconds test histogram`,
		`# TYPE dsgl_test_seconds histogram`,
		`dsgl_test_seconds_bucket{le="0.5"} 1`,
		`dsgl_test_seconds_bucket{le="1"} 2`,
		`dsgl_test_seconds_bucket{le="4"} 3`,
		`dsgl_test_seconds_bucket{le="+Inf"} 3`,
		`dsgl_test_seconds_sum 4.25`,
		`dsgl_test_seconds_count 3`,
		`# HELP dsgl_test_residual test summary`,
		`# TYPE dsgl_test_residual summary`,
		`dsgl_test_residual{quantile="0.5"} 2`,
		`dsgl_test_residual{quantile="0.9"} 2`,
		`dsgl_test_residual{quantile="0.99"} 2`,
		`dsgl_test_residual_sum 2`,
		`dsgl_test_residual_count 1`,
	}, "\n") + "\n"
	if got != want {
		t.Errorf("exposition mismatch:\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}

func TestLabelKeyOrderIndependent(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("k_total", "", L("a", "1"), L("b", "2"))
	b := r.Counter("k_total", "", L("b", "2"), L("a", "1"))
	if a != b {
		t.Fatal("label order must not change instrument identity")
	}
}

func TestP2AgainstExactQuantiles(t *testing.T) {
	// Deterministic LCG; compare P² estimates to exact quantiles.
	const n = 50000
	vals := make([]float64, n)
	state := uint64(42)
	s := newSummary([]float64{0.5, 0.9, 0.99})
	for i := range vals {
		state = state*6364136223846793005 + 1442695040888963407
		v := float64(state>>11) / float64(1<<53) // uniform [0,1)
		vals[i] = v
		s.Observe(v)
	}
	sort.Float64s(vals)
	for _, q := range []float64{0.5, 0.9, 0.99} {
		exact := vals[int(q*float64(n))]
		got := s.Quantile(q)
		if math.Abs(got-exact) > 0.02 {
			t.Errorf("q%g = %g, exact %g (|Δ| > 0.02)", q, got, exact)
		}
	}
}
