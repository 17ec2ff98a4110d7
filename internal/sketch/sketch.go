// Package sketch implements the streaming summaries the paper's upper
// bounds consume: (1±ε) distinct-count sketches (KMV, HyperLogLog,
// BJKST) standing in for the optimal F0 sketch of [11] referenced in
// Section 6, a point-frequency sketch (CountSketch), and
// frequency-moment sketches (CountSketch's fast-AMS F2, Indyk
// p-stable F_p for 0 < p ≤ 2). Every sketch is deterministic given its
// seed, mergeable where the algorithm admits it, and
// binary-serializable so the communication experiments of Section 3.3
// can measure message sizes in bytes.
//
// Items are 64-bit fingerprints of patterns (hashing.Fingerprint64);
// the collision probability is negligible against all error budgets.
package sketch

import (
	"errors"
)

// ErrIncompatible is returned by Merge when two sketches were built
// with different parameters or seeds.
var ErrIncompatible = errors.New("sketch: incompatible sketches")

// ErrCorrupt is returned when deserializing malformed bytes.
//
// The codecs share internal/wire's reader/writer; every decoder
// validates claimed element counts against the remaining input before
// allocating, so memory use is proportional to the blob — a corrupt
// header cannot demand more than its own byte count — and any sketch
// a constructor can build round-trips.
var ErrCorrupt = errors.New("sketch: corrupt serialized data")

// mapHint caps pre-size hints for retention maps: the map grows to
// its true size on demand, so a huge capacity parameter must not
// translate into a huge up-front allocation.
func mapHint(k int) int {
	if k > 1<<16 {
		return 1 << 16
	}
	return k
}

// Format tags for serialized sketches.
const (
	tagKMV uint8 = iota + 1
	tagHLL
	tagBJKST
	_ // retired CountMin; its byte stays reserved so later tags keep theirs
	tagCountSketch
	_ // retired AMS; its byte stays reserved so later tags keep theirs
	tagStable
	tagKHLL
)
