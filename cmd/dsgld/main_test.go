package main

import (
	"strings"
	"testing"
)

// TestRejectsRateLimitsThatShedAllOrNone: a -rate that is negative or not
// finite, or a -burst below the one token a request costs or not finite,
// exits 2 before any training, instead of serving with a limiter that
// sheds every request or none.
func TestRejectsRateLimitsThatShedAllOrNone(t *testing.T) {
	load := []string{"-train", "traffic", "-n", "8", "-loadtest", "-qps", "50", "-load-duration", "20ms"}
	for _, bad := range []string{
		"-rate 10 -burst 0.5",
		"-rate NaN",
		"-rate 10 -burst NaN",
		"-rate +Inf",
		"-rate -1",
	} {
		t.Run(bad, func(t *testing.T) {
			if code := realMain(append(strings.Fields(bad), load...)); code != 2 {
				t.Fatalf("exit %d, want 2", code)
			}
		})
	}
}
