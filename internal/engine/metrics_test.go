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
// bindings both register the plan-cache and state-pool families, and a
// registry keeps the help string of whichever registers a family first.
// The exposition's HELP lines must read the same in either bind order.
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
}
