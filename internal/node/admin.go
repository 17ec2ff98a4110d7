package node

// Cluster-membership admin endpoints: slice hand-off on ingest nodes
// and dynamic pull-source management on aggregators. Both exist for
// one invariant — across a membership change, every accepted row stays
// in exactly one live summary:
//
//   - /v1/admin/handoff makes this daemon pull a departing peer's
//     /v1/summary once and absorb it as a source (absorbSource, replace
//     semantics, logged on a durable daemon), so the peer's slice of
//     the stream survives inside this daemon's own export. Re-issuing
//     the hand-off is safe: a re-pull replaces the previous one.
//   - /v1/admin/sources adds and removes anti-entropy sources on an
//     aggregator, dropping the removed peers' absorbed state in the
//     same step — once a successor's export carries the departed
//     peer's rows, keeping the aggregator's direct copy would count
//     them twice.
//
// The router's /v1/admin/membership endpoint drives both in order
// (hand-off first, then source updates) when its -ingest list changes.

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strings"
	"time"

	"repro/internal/cluster"
)

// HandoffRequest is the POST /v1/admin/handoff body: the base URL of
// the departing peer whose summary this daemon should absorb.
type HandoffRequest struct {
	// Source is the departing peer's base URL; the absorbed source is
	// named by it (trailing slashes trimmed).
	Source string `json:"source"`
}

// HandoffResponse reports one completed hand-off.
type HandoffResponse struct {
	// Source is the absorbed source's name, the peer's URL.
	Source string `json:"source"`
	// Rows is the installed source's row count: every row of the
	// handed-off blob, the peer's own sources included.
	Rows int64 `json:"rows"`
	// ETag is the validator of the absorbed blob.
	ETag string `json:"etag,omitempty"`
}

// handleAdminHandoff absorbs a departing peer's summary: one
// conditional-GET pull of the peer's /v1/summary applied through the
// same Applier path the aggregator role uses. The absorbed state is
// keyed by the peer's URL, so a repeated hand-off (an orchestrator
// retry) replaces rather than accumulates. On a durable daemon the
// 200 comes after the WAL record, so the slice survives a crash of
// this daemon once the peer is gone; /v1/stats lists it among the
// sources.
func (n *Node) handleAdminHandoff(w http.ResponseWriter, r *http.Request) {
	var req HandoffRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		BodyError(w, fmt.Errorf("decoding handoff request: %w", err))
		return
	}
	src := strings.TrimRight(strings.TrimSpace(req.Source), "/")
	if src == "" {
		HTTPError(w, http.StatusBadRequest, errors.New("handoff needs a source URL"))
		return
	}
	// A one-shot puller reuses the anti-entropy machinery (conditional
	// GET, apply-before-ETag-advance) for a single round against a
	// single source.
	to := n.cfg.PullTimeout
	if to <= 0 {
		to = 30 * time.Second
	}
	p, err := cluster.NewPuller([]string{src}, n, to)
	if err != nil {
		HTTPError(w, http.StatusBadRequest, err)
		return
	}
	ctx, cancel := context.WithTimeout(r.Context(), to)
	defer cancel()
	if err := p.PullOnce(ctx); err != nil {
		// The peer is unreachable or its blob did not apply: nothing was
		// absorbed (the ETag never advances past a failed apply), so the
		// orchestrator can retry the identical request.
		HTTPError(w, http.StatusBadGateway, fmt.Errorf("handoff from %s: %w", src, err))
		return
	}
	st := p.Stats()[0]
	_, rows := n.servedRows(st.URL)
	WriteJSON(w, http.StatusOK, HandoffResponse{Source: st.URL, Rows: rows, ETag: st.ETag})
}

// SourcesRequest is the POST /v1/admin/sources body: pull sources to
// add and to remove. Removal also drops the source's absorbed state
// from the engine.
type SourcesRequest struct {
	// Add lists peer base URLs to start pulling.
	Add []string `json:"add,omitempty"`
	// Remove lists peer base URLs to stop pulling and drop.
	Remove []string `json:"remove,omitempty"`
}

// SourcesResponse reports the aggregator's source list after the
// update.
type SourcesResponse struct {
	// Sources is the pull list after the update, sorted.
	Sources []string `json:"sources"`
	// Removed lists the removed URLs whose absorbed engine state was
	// actually dropped (a URL never pulled has no state to drop).
	Removed []string `json:"removed,omitempty"`
}

// handleAdminSources updates an aggregator's pull membership at
// runtime — the aggregator half of a cluster membership change. Only
// aggregators have a puller; on any other daemon the endpoint answers
// 409 so a misdirected membership update fails loudly instead of
// silently doing nothing.
func (n *Node) handleAdminSources(w http.ResponseWriter, r *http.Request) {
	if n.puller == nil {
		HTTPError(w, http.StatusConflict, errors.New("not an aggregator: no -pull-from sources to update"))
		return
	}
	var req SourcesRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		BodyError(w, fmt.Errorf("decoding sources update: %w", err))
		return
	}
	if len(req.Add) == 0 && len(req.Remove) == 0 {
		HTTPError(w, http.StatusBadRequest, errors.New("empty sources update"))
		return
	}
	for _, u := range req.Add {
		if err := n.puller.Add(u); err != nil {
			HTTPError(w, http.StatusBadRequest, fmt.Errorf("adding %q: %w", u, err))
			return
		}
	}
	resp := SourcesResponse{}
	for _, u := range req.Remove {
		u = strings.TrimRight(strings.TrimSpace(u), "/")
		n.puller.Remove(u)
		// Drop the absorbed state too: from this update on, the removed
		// peer's rows must reach this aggregator only through whichever
		// successor absorbed them.
		if n.eng.RemoveSource(u) {
			resp.Removed = append(resp.Removed, u)
		}
	}
	resp.Sources = n.puller.Sources()
	WriteJSON(w, http.StatusOK, resp)
}
