package engine

import (
	"bytes"
	"reflect"
	"sort"
	"strings"
	"testing"

	"dsgl/internal/obs"
)

// TestSharedHelpIndependentOfBindOrder: the regression and optimization
// bindings both register the state-pool families, and a registry keeps
// the help string of whichever registers a family first. The exposition's
// HELP lines must read the same in either bind order. The plan-cache
// families are the regression engine's alone: a solver binding registers
// none, so no solver backend exports plan-cache series stuck at zero.
func TestSharedHelpIndependentOfBindOrder(t *testing.T) {
	help := func(optFirst bool) []string {
		r := obs.NewRegistry()
		if optFirst {
			newOptObs(r, "ising-metropolis")
			newEngineObs(r, "scalable")
		} else {
			newEngineObs(r, "scalable")
			newOptObs(r, "ising-metropolis")
		}
		var buf bytes.Buffer
		if err := r.WritePrometheus(&buf); err != nil {
			t.Fatal(err)
		}
		var lines []string
		for _, l := range strings.Split(buf.String(), "\n") {
			if strings.HasPrefix(l, "# HELP ") {
				lines = append(lines, l)
			}
		}
		sort.Strings(lines)
		return lines
	}
	engineFirst, optFirst := help(false), help(true)
	if !reflect.DeepEqual(engineFirst, optFirst) {
		t.Fatalf("HELP lines depend on bind order:\nengine first:\n%s\nsolver first:\n%s",
			strings.Join(engineFirst, "\n"), strings.Join(optFirst, "\n"))
	}

	r := obs.NewRegistry()
	newOptObs(r, "ising-metropolis")
	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	if out := buf.String(); strings.Contains(out, "dsgl_plan_") || !strings.Contains(out, "dsgl_state_pool_hits_total") {
		t.Fatalf("solver binding should export the state-pool families and no plan-cache family:\n%s", out)
	}
}
