//go:build race

package alloctest

// raceBuild reports whether the binary was built with -race.
const raceBuild = true
