package router

import (
	"net/http"
	"testing"
)

// TestHealthCheckerEjectsAndReadmits pins the state machine: ejection
// needs `threshold` consecutive failures, any success re-admits
// immediately, and pick always orders healthy aggregators first while
// keeping ejected ones reachable as a last resort.
func TestHealthCheckerEjectsAndReadmits(t *testing.T) {
	h := newHealthChecker([]string{"http://a", "http://b"}, 3, http.DefaultClient)

	// Two failures: below threshold, still healthy.
	h.report("http://a", false, nil)
	h.report("http://a", false, nil)
	if st := h.snapshot(); !st[0].Healthy || st[0].ConsecFailures != 2 {
		t.Fatalf("below threshold: %+v", st[0])
	}
	// Third consecutive failure ejects.
	h.report("http://a", false, nil)
	if st := h.snapshot(); st[0].Healthy || st[0].Ejections != 1 {
		t.Fatalf("at threshold: %+v", st[0])
	}
	// Ejected nodes sort last but are never dropped.
	for i := 0; i < 4; i++ {
		order := h.pick()
		if len(order) != 2 || order[0] != "http://b" || order[1] != "http://a" {
			t.Fatalf("pick with a ejected: %v", order)
		}
	}
	// One success re-admits; further failures need a fresh streak.
	h.report("http://a", true, nil)
	if st := h.snapshot(); !st[0].Healthy || st[0].ConsecFailures != 0 {
		t.Fatalf("after re-admission: %+v", st[0])
	}
	h.report("http://a", false, nil)
	h.report("http://a", false, nil)
	if st := h.snapshot(); !st[0].Healthy {
		t.Fatalf("streak did not reset: %+v", st[0])
	}
}
