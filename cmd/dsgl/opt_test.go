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

// TestOptRejectsInfiniteTemperatures: a schedule that would anneal on an
// infinite temperature fails the solve with exit 1 instead of printing a
// cut found on a ladder of +Inf and NaN.
func TestOptRejectsInfiniteTemperatures(t *testing.T) {
	for _, args := range [][]string{
		{"-gen", "gset", "-nodes", "32", "-degree", "4", "-restarts", "2", "-t0", "+Inf", "-steps", "20", "-seed", "1", "-workers", "1"},
		{"-gen", "gset", "-nodes", "32", "-degree", "4", "-restarts", "4", "-schedule", "adaptive", "-t0", "1e300",
			"-reheat", "1e10", "-period", "4", "-steps", "20", "-seed", "1", "-workers", "1"},
	} {
		var out bytes.Buffer
		if code := optCmd(args, &out); code != 1 {
			t.Errorf("%v: exit %d, want 1:\n%s", args, code, out.String())
		}
	}
}
