package main

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	neturl "net/url"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/node"
	"repro/internal/registry"
	"repro/internal/words"
)

// pushConflictBody is the typed 409 envelope handlePush emits for a
// structural subspace mismatch.
type pushConflictBody struct {
	Error          string  `json:"error"`
	Code           string  `json:"code"`
	LocalSubspaces [][]int `json:"local_subspaces"`
	DonorSubspaces [][]int `json:"donor_subspaces"`
	BareDonor      string  `json:"bare_donor"`
}

func pushBlob(t *testing.T, url string, blob []byte) (*http.Response, []byte) {
	t.Helper()
	return pushAs(t, url, "writer", blob)
}

// pushAs posts blob to /v1/push as the named source ("" sends no
// source parameter).
func pushAs(t *testing.T, url, source string, blob []byte) (*http.Response, []byte) {
	t.Helper()
	if source != "" {
		source = "?source=" + neturl.QueryEscape(source)
	}
	resp, err := http.Post(url+"/v1/push"+source, "application/octet-stream", bytes.NewReader(blob))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, out
}

// TestPushSubspaceMismatchTypedError pins the /v1/push 409 contract: a
// donor whose subspace structure disagrees with the daemon's gets a
// machine-readable body naming both sides' column sets, not just
// prose.
func TestPushSubspaceMismatchTypedError(t *testing.T) {
	const d, q, seed = 6, 3, 11
	ts := startDaemon(t, "exact", d, q, seed)
	if resp, body := postJSON(t, ts.URL+"/v1/subspaces", node.RegisterSubspaceRequest{Cols: []int{0, 1}}); resp.StatusCode != http.StatusOK {
		t.Fatalf("register: %d %s", resp.StatusCode, body)
	}

	// A bare donor — a plain summary with no subspace registry around
	// it — names itself in bare_donor.
	bare, err := core.NewExact(d, q)
	if err != nil {
		t.Fatal(err)
	}
	bare.Observe(make(words.Word, d))
	blob, err := core.MarshalSummary(bare)
	if err != nil {
		t.Fatal(err)
	}
	resp, body := pushBlob(t, ts.URL, blob)
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("bare push: %d %s", resp.StatusCode, body)
	}
	var pc pushConflictBody
	if err := json.Unmarshal(body, &pc); err != nil {
		t.Fatalf("decoding 409 body %s: %v", body, err)
	}
	if pc.Code != "subspace_mismatch" {
		t.Fatalf("code %q, want subspace_mismatch (%s)", pc.Code, body)
	}
	if len(pc.LocalSubspaces) != 1 || len(pc.LocalSubspaces[0]) != 2 ||
		pc.LocalSubspaces[0][0] != 0 || pc.LocalSubspaces[0][1] != 1 {
		t.Fatalf("local_subspaces %v, want [[0 1]]", pc.LocalSubspaces)
	}
	if pc.BareDonor == "" || len(pc.DonorSubspaces) != 0 {
		t.Fatalf("bare donor body: %s", body)
	}

	// A registry donor carrying a different subspace reports both
	// lists.
	base, err := core.NewExact(d, q)
	if err != nil {
		t.Fatal(err)
	}
	reg, err := registry.New(base)
	if err != nil {
		t.Fatal(err)
	}
	sub, err := core.NewExact(d, q)
	if err != nil {
		t.Fatal(err)
	}
	if err := reg.RegisterSubspace(words.MustColumnSet(d, 2, 3), sub); err != nil {
		t.Fatal(err)
	}
	blob, err = core.MarshalSummary(reg)
	if err != nil {
		t.Fatal(err)
	}
	resp, body = pushBlob(t, ts.URL, blob)
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("mismatched registry push: %d %s", resp.StatusCode, body)
	}
	pc = pushConflictBody{}
	if err := json.Unmarshal(body, &pc); err != nil {
		t.Fatalf("decoding 409 body %s: %v", body, err)
	}
	if pc.Code != "subspace_mismatch" || pc.BareDonor != "" {
		t.Fatalf("registry-donor body: %s", body)
	}
	if len(pc.DonorSubspaces) != 1 || len(pc.DonorSubspaces[0]) != 2 ||
		pc.DonorSubspaces[0][0] != 2 || pc.DonorSubspaces[0][1] != 3 {
		t.Fatalf("donor_subspaces %v, want [[2 3]]", pc.DonorSubspaces)
	}

	// A shape conflict that is not a subspace mismatch keeps the plain
	// envelope: 409 with an error string and no mismatch code. This
	// needs a subspace-free daemon — with subspaces registered, the
	// structural refusal fires before any shape check.
	tsPlain := startDaemon(t, "exact", d, q, seed)
	wrongDim, err := core.NewExact(d+1, q)
	if err != nil {
		t.Fatal(err)
	}
	blob, err = core.MarshalSummary(wrongDim)
	if err != nil {
		t.Fatal(err)
	}
	resp, body = pushBlob(t, tsPlain.URL, blob)
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("wrong-dim push: %d %s", resp.StatusCode, body)
	}
	pc = pushConflictBody{}
	if err := json.Unmarshal(body, &pc); err != nil {
		t.Fatalf("decoding 409 body %s: %v", body, err)
	}
	if pc.Code != "" {
		t.Fatalf("wrong-dim conflict should not claim subspace_mismatch: %s", body)
	}
}

// TestPushReplacesPerSource: a push is named by ?source=, and the
// daemon serves each source's latest push once. The same blob pushed
// twice (a retry after a lost ack) counts once, two sources are both
// served, a re-push carrying more rows replaces the earlier one, and a
// push without a name is refused with nothing changed.
func TestPushReplacesPerSource(t *testing.T) {
	const d, q, seed = 5, 2, 3
	ts := startDaemon(t, "exact", d, q, seed)
	adminObserveRows(t, ts.URL, [][]uint16{make([]uint16, d)})
	push := func(source string, rows int, want int64) {
		t.Helper()
		blob, _ := remoteWriter(t, "exact", d, q, rows, seed, 1)
		if resp, body := pushAs(t, ts.URL, source, blob); resp.StatusCode != http.StatusOK {
			t.Fatalf("push of %d rows as %q: %d %s", rows, source, resp.StatusCode, body)
		}
		if _, _, snap := condGet(t, ts.URL, ""); blobRows(t, snap) != want {
			t.Fatalf("after pushing %d rows as %q the daemon serves %d rows, want %d", rows, source, blobRows(t, snap), want)
		}
	}
	push("h:/data/a.csv", 40, 41)
	push("h:/data/a.csv", 40, 41) // the retry
	push("h:demo", 7, 48)
	push("h:/data/a.csv", 60, 68)

	blob, _ := remoteWriter(t, "exact", d, q, 5, seed, 1)
	resp, body := pushAs(t, ts.URL, "", blob)
	if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(body), "source") {
		t.Fatalf("unnamed push: %d %s, want 400 naming the source parameter", resp.StatusCode, body)
	}
	if _, _, snap := condGet(t, ts.URL, ""); blobRows(t, snap) != 68 {
		t.Fatalf("a refused push changed the served rows to %d", blobRows(t, snap))
	}
}
