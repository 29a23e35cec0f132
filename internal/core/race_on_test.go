//go:build race

package core

// raceDetector reports a build under -race, where the weighted DP's inner
// loops run an order of magnitude slower: the single-goroutine oracle
// grids shrink, as they do under -short.
const raceDetector = true
