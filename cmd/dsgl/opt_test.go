package main

import (
	"bytes"
	"strings"
	"testing"
)

// TestOptPrintsScheduleRun: zero -steps and -t1 select the defaults, and
// the schedule line must report the 200 steps down to T1 = 0.05 that the
// solve ran, not the zeros it was given.
func TestOptPrintsScheduleRun(t *testing.T) {
	for _, args := range [][]string{
		{"-nodes", "16", "-steps", "0", "-t1", "0"},
		{"-nodes", "16"},
	} {
		var out bytes.Buffer
		if code := optCmd(args, &out); code != 0 {
			t.Fatalf("%v: exit %d:\n%s", args, code, out.String())
		}
		if want := "geometric schedule (200 steps, T 2 -> 0.05), 4 restarts"; !strings.Contains(out.String(), want) {
			t.Errorf("%v: output lacks %q:\n%s", args, want, out.String())
		}
	}
}
