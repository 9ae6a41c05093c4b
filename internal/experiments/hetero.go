package experiments

import (
	"fmt"
	"io"

	"dsgl"
	"dsgl/internal/datasets"
)

// heteroClasses is the K the decomposed column trains with — matching the
// three planted dynamical families of the heteromix/heterokinetics/
// heteroflow generators (and dsgl.Options' default for Decompose).
const heteroClasses = 3

// Hetero compares monolithic against heterogeneously decomposed training
// (ROADMAP item 5) on every multi-feature workload: the two Table IV
// datasets plus the synthetic heterogeneous generators whose nodes follow
// genuinely different dynamics. For each dataset it trains the standard
// pipeline twice — once monolithic, once with Options.Decompose and K=3
// learned interaction classes — and reports test RMSE and inference
// latency side by side, plus how the class assignment split the nodes.
// The decomposition is a block-diagonal Gram approximation, so it acts as
// a structural regularizer: it should help where the planted classes are
// real (the hetero* generators) and cost little where they are not.
func Hetero(cfg Config, w io.Writer) error {
	cfg.fillDefaults()
	header(w, "Heterogeneous decomposition — monolithic vs per-class blocks")

	fmt.Fprintf(w, "%-15s %-11s %8s %12s %14s   %s\n",
		"dataset", "pipeline", "classes", "RMSE", "latency(us)", "class sizes")
	for _, name := range datasets.MultiNames() {
		ds := cfg.dataset(name)
		models, reps, err := cfg.evaluate(ds, cfg.testWindows(ds), []dsgl.Options{
			{Pattern: dsgl.DMesh, Density: 0.10},
			{Pattern: dsgl.DMesh, Density: 0.10, Decompose: true, Classes: heteroClasses},
		})
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "%-15s %-11s %8s %12.3e %14.3g   %s\n",
			name, "monolithic", "-", reps[0].RMSE, reps[0].MeanLatencyUs, "-")
		fmt.Fprintf(w, "%-15s %-11s %8d %12.3e %14.3g   %s\n",
			name, "decomposed", heteroClasses, reps[1].RMSE, reps[1].MeanLatencyUs, classSizes(models[1].Classes, heteroClasses))
	}
	return nil
}

// classSizes renders the per-class node counts of a learned assignment,
// e.g. "14/10/8".
func classSizes(labels []int, k int) string {
	counts := make([]int, k)
	for _, l := range labels {
		counts[l]++
	}
	out := ""
	for i, c := range counts {
		if i > 0 {
			out += "/"
		}
		out += fmt.Sprintf("%d", c)
	}
	return out
}
