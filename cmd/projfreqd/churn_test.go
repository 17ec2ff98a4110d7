package main

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"sync"
	"testing"

	"repro/internal/core"
)

// condGet does a conditional GET of /v1/summary and returns status,
// ETag, and body.
func condGet(t *testing.T, url, inm string) (int, string, []byte) {
	t.Helper()
	req, err := http.NewRequest(http.MethodGet, url+"/v1/summary", nil)
	if err != nil {
		t.Fatal(err)
	}
	if inm != "" {
		req.Header.Set("If-None-Match", inm)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, resp.Header.Get("ETag"), body
}

// blobRows decodes a summary blob and returns its row count.
func blobRows(t *testing.T, blob []byte) int64 {
	t.Helper()
	sum, err := core.UnmarshalSummary(blob)
	if err != nil {
		t.Fatalf("decoding exported blob: %v", err)
	}
	return sum.Rows()
}

// TestSummaryETagChurnsOnPushAbsorb pins the absorb half of the ETag
// contract: the tag must change after an absorbed /v1/push exactly as
// it does after local observes, and a client revalidating a pre-push
// tag must get the post-absorb blob, never a 304 for state that no
// longer matches its cache.
func TestSummaryETagChurnsOnPushAbsorb(t *testing.T) {
	const d, q, seed = 6, 3, 11
	ts := startDaemon(t, "exact", d, q, seed)
	observeRows(t, ts.URL, d, q, 20, 0)

	status, tag, blob := condGet(t, ts.URL, "")
	if status != http.StatusOK || tag == "" {
		t.Fatalf("baseline export: %d, tag %q", status, tag)
	}
	if got := blobRows(t, blob); got != 20 {
		t.Fatalf("baseline blob has %d rows, want 20", got)
	}

	// Sanity: the tag validates before the push.
	if status, _, _ := condGet(t, ts.URL, tag); status != http.StatusNotModified {
		t.Fatalf("pre-push revalidation: %d, want 304", status)
	}

	pushRemote(t, ts.URL, d, q, seed)

	// The pre-push tag must now miss, and the served blob must carry
	// the absorbed rows.
	status, tag2, blob2 := condGet(t, ts.URL, tag)
	if status == http.StatusNotModified {
		t.Fatal("post-push revalidation answered 304: a client would keep serving the pre-absorb blob")
	}
	if status != http.StatusOK {
		t.Fatalf("post-push revalidation: %d", status)
	}
	if tag2 == tag {
		t.Fatal("push absorbed but the summary ETag did not change")
	}
	if got := blobRows(t, blob2); got != 320 {
		t.Fatalf("post-push blob has %d rows, want 320", got)
	}
}

// TestSummaryETagPushUnderStalenessBudget pins the sharper variant
// under the one read rule, whose staleness budget is zero: local rows
// churn the tag as soon as they are accepted, a push on top churns it
// again, and the export after the push carries every local and pushed
// row, with X-Epoch-* headers naming a cut that nothing is behind.
func TestSummaryETagPushUnderStalenessBudget(t *testing.T) {
	const d, q, seed = 6, 3, 11
	ts := startDaemon(t, "exact", d, q, seed)
	observeRows(t, ts.URL, d, q, 20, 0)
	status, tag, _ := condGet(t, ts.URL, "")
	if status != http.StatusOK {
		t.Fatalf("baseline export: %d", status)
	}

	// Local rows churn the tag: every read serves a cut covering them.
	observeRows(t, ts.URL, d, q, 30, 3)
	status, tag, _ = condGet(t, ts.URL, tag)
	if status != http.StatusOK {
		t.Fatalf("revalidation after local rows: %d, want 200 with a new tag", status)
	}
	if status, _, _ := condGet(t, ts.URL, tag); status != http.StatusNotModified {
		t.Fatalf("revalidation of the post-observe tag: %d, want 304", status)
	}

	pushRemote(t, ts.URL, d, q, seed)

	req, _ := http.NewRequest(http.MethodGet, ts.URL+"/v1/summary", nil)
	req.Header.Set("If-None-Match", tag)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	blob, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("post-push revalidation: %d, want 200", resp.StatusCode)
	}
	if resp.Header.Get("ETag") == tag {
		t.Fatal("push after local rows did not churn the ETag")
	}
	if got := blobRows(t, blob); got != 350 {
		t.Fatalf("post-push blob has %d rows, want 350 (20+30 local, 300 pushed)", got)
	}
	// The row clock counts the 50 local rows only (a push is a source,
	// served on top of them), and nothing is behind the cut.
	if r, s := resp.Header.Get("X-Epoch-Rows"), resp.Header.Get("X-Epoch-Staleness-Rows"); r != "50" || s != "0" {
		t.Fatalf("X-Epoch-Rows = %q, X-Epoch-Staleness-Rows = %q, want 50 and 0", r, s)
	}
}

// pushRemote posts a 300-row remote exact summary to /v1/push.
func pushRemote(t *testing.T, url string, d, q int, seed uint64) {
	t.Helper()
	remote, _ := remoteWriter(t, "exact", d, q, 300, seed, 5)
	resp, err := http.Post(url+"/v1/push?source=remote", "application/octet-stream", bytes.NewReader(remote))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("push: %d", resp.StatusCode)
	}
}

// TestConcurrentPushObserveRead hammers one daemon with concurrent
// /v1/observe batches, /v1/push absorbs (each pusher re-sending its
// snapshot under its own source name), and readers (summary exports).
// It asserts only invariants that hold under any interleaving —
// handler status codes, the final row clock, and each source's rows
// served once — and exists chiefly as a -race target for the absorb ↔
// epoch-publish ↔ conditional-GET interplay (CI runs this package
// under the race detector).
func TestConcurrentPushObserveRead(t *testing.T) {
	const d, q, seed = 6, 3, 11
	const (
		observers     = 2
		obsBatches    = 25
		rowsPerBatch  = 20
		pushers       = 2
		pushesEach    = 10
		rowsPerPush   = 30
		readersEach   = 40
		readerThreads = 2
	)
	ts := startDaemon(t, "exact", d, q, seed)

	blob, _ := remoteWriter(t, "exact", d, q, rowsPerPush, seed, 5)
	var wg sync.WaitGroup
	fail := make(chan string, observers+pushers+readerThreads)
	for g := 0; g < observers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < obsBatches; i++ {
				observeRows(t, ts.URL, d, q, rowsPerBatch, g*1000+i)
			}
		}(g)
	}
	for g := 0; g < pushers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < pushesEach; i++ {
				resp, err := http.Post(fmt.Sprintf("%s/v1/push?source=pusher-%d", ts.URL, g), "application/octet-stream", bytes.NewReader(blob))
				if err != nil {
					fail <- err.Error()
					return
				}
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					fail <- resp.Status
					return
				}
			}
		}(g)
	}
	for g := 0; g < readerThreads; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			tag := ""
			for i := 0; i < readersEach; i++ {
				req, _ := http.NewRequest(http.MethodGet, ts.URL+"/v1/summary", nil)
				if tag != "" {
					req.Header.Set("If-None-Match", tag)
				}
				resp, err := http.DefaultClient.Do(req)
				if err != nil {
					fail <- err.Error()
					return
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusNotModified {
					fail <- resp.Status
					return
				}
				tag = resp.Header.Get("ETag")
			}
		}()
	}
	wg.Wait()
	close(fail)
	for msg := range fail {
		t.Fatalf("concurrent handler failed: %s", msg)
	}

	// Check the row clock and the export that covers it: every
	// observed row and each pusher's latest snapshot is accounted for
	// exactly once.
	local := int64(observers * obsBatches * rowsPerBatch)
	want := local + pushers*rowsPerPush
	if rows := daemonStats(t, ts.URL).Rows; rows != local {
		t.Fatalf("final row clock %d, want %d", rows, local)
	}
	if _, _, blob := condGet(t, ts.URL, ""); blobRows(t, blob) != want {
		t.Fatalf("final export has %d rows, want %d", blobRows(t, blob), want)
	}
}
