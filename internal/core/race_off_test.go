//go:build !race

package core

// raceEnabled reports whether the race detector instruments this build.
// Byte-exact allocation bounds are skipped under the detector: there
// sync.Pool drops a quarter of what is put back, by design, so pooled
// buffers are re-allocated at random.
const raceEnabled = false
