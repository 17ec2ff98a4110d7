//go:build race

package engine

// raceEnabled reports that the race detector is on. Under it sync.Pool
// drops a share of its Puts on purpose, so pooled buffers (the KMV
// merge buffers among them) are allocated again and allocation counts
// are not the program's.
const raceEnabled = true
