package server

import (
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strconv"
	"testing"

	"domd/internal/faultinject"
	"domd/internal/index"
	"domd/internal/navsim"
	"domd/internal/statusq"
	"domd/internal/wal"
)

// TestChaosKillMidIngest kills the process (simulated: the armed hook
// panics inside the crash window between WAL append and in-memory apply),
// proves the middleware turned the kill into a 500 without taking the
// server down, then "restarts" by reopening the WAL directory and proves
// no acknowledged RCC was lost.
func TestChaosKillMidIngest(t *testing.T) {
	defer faultinject.Reset()
	dir := t.TempDir()
	srv, ds, dc := newDurableServer(t, dir, Options{})
	a := ongoingAvail(t, ds)

	// Three acknowledged ingests before the crash.
	for i := 0; i < 3; i++ {
		status, _, _ := postJSON(t, srv.URL+"/rccs", rccBody(930001+i, a), nil)
		if status != http.StatusCreated {
			t.Fatalf("ingest %d = %d, want 201", i, status)
		}
	}

	// The fourth dies mid-ingest: durable on the log, never applied,
	// never acknowledged.
	faultinject.Arm(statusq.FailDurableApply, func() error { panic("chaos: kill -9 mid-ingest") })
	status, _, _ := postJSON(t, srv.URL+"/rccs", rccBody(930010, a), nil)
	if status != http.StatusInternalServerError {
		t.Fatalf("killed ingest = %d, want 500", status)
	}
	faultinject.Reset()

	// The process survived the panic and keeps serving.
	get(t, srv.URL+"/healthz", http.StatusOK, nil)
	if n := dc.IngestedCount(); n != 3 {
		t.Fatalf("unacknowledged RCC became visible: count = %d, want 3", n)
	}

	// Restart: reopen the same WAL directory.
	if err := dc.Close(); err != nil {
		t.Fatal(err)
	}
	dc2, info, err := statusq.OpenDurable(dir, ds.Avails, ds.RCCs, index.KindAVL,
		statusq.DurableOptions{WAL: wal.Options{Policy: wal.SyncNever}})
	if err != nil {
		t.Fatal(err)
	}
	defer dc2.Close()
	// All three acknowledged records survive. The killed fourth reached
	// the log before the crash, so replay surfaces it too (at-least-once);
	// what matters is that nothing acknowledged is missing.
	if info.Restored < 3 {
		t.Fatalf("restored %d records, want >= 3 (info %+v)", info.Restored, info)
	}

	// Retrying the acknowledged ingests against the restarted server
	// dedups: the acks were durable.
	srv2 := httptest.NewServer(New(newTestRegistry(t), dc2.Catalog, Options{Ingester: dc2}))
	defer srv2.Close()
	for i := 0; i < 3; i++ {
		status, _, out := postJSON(t, srv2.URL+"/rccs", rccBody(930001+i, a), nil)
		if status != http.StatusOK || out["duplicate"] != true {
			t.Fatalf("retry of acked rcc %d = %d %v, want 200 duplicate", 930001+i, status, out)
		}
	}
}

// TestChaosKillMidDeltaApply is the kill-mid-ingest scenario aimed at the
// O(delta) path: the armed hook panics inside Catalog.AddRCC after the WAL
// append but before the history append and the in-place engine fold. The
// panic must unwind without mutating any in-memory state (the warm engine
// keeps serving fresh answers), and a restart must replay the killed record
// — no acknowledged loss, at-least-once for the unacknowledged one.
func TestChaosKillMidDeltaApply(t *testing.T) {
	defer faultinject.Reset()
	dir := t.TempDir()
	srv, ds, dc := newDurableServer(t, dir, Options{})
	a := ongoingAvail(t, ds)
	base := len(ds.RCCsByAvail()[a.ID])
	url := fmt.Sprintf("%s/query?avail=%d&date=%s", srv.URL, a.ID, a.PhysicalTime(60))

	// Warm the engine, then one acknowledged ingest that folds into it in
	// place: still one build, asOf advanced, answer fresh.
	var view struct {
		Stale bool  `json:"stale"`
		AsOf  int64 `json:"asOf"`
	}
	get(t, url, http.StatusOK, &view)
	if status, _, _ := postJSON(t, srv.URL+"/rccs", rccBody(970001, a), nil); status != http.StatusCreated {
		t.Fatalf("warm ingest = %d, want 201", status)
	}
	if n := dc.Catalog.DeltaApplies(); n != 1 {
		t.Fatalf("warm ingest did not delta-apply: applies = %d, want 1", n)
	}
	get(t, url, http.StatusOK, &view)
	if view.Stale || view.AsOf != int64(base+1) {
		t.Fatalf("post-ingest answer stale=%v asOf=%d, want false/%d", view.Stale, view.AsOf, base+1)
	}
	if n := dc.Catalog.EngineBuilds(); n != 1 {
		t.Fatalf("delta-applied ingest triggered a rebuild: builds = %d, want 1", n)
	}

	// The kill: durable on the log, never applied, never acknowledged.
	faultinject.Arm(statusq.FailDeltaApply, func() error { panic("chaos: kill -9 mid delta apply") })
	status, _, _ := postJSON(t, srv.URL+"/rccs", rccBody(970002, a), nil)
	if status != http.StatusInternalServerError {
		t.Fatalf("killed ingest = %d, want 500", status)
	}
	faultinject.Reset()

	// The panic unwound before any in-memory mutation: the killed record is
	// invisible and the same warm engine keeps answering fresh.
	get(t, srv.URL+"/healthz", http.StatusOK, nil)
	if n := dc.IngestedCount(); n != 1 {
		t.Fatalf("unacknowledged RCC became visible: count = %d, want 1", n)
	}
	get(t, url, http.StatusOK, &view)
	if view.Stale || view.AsOf != int64(base+1) {
		t.Fatalf("post-kill answer stale=%v asOf=%d, want false/%d", view.Stale, view.AsOf, base+1)
	}

	// Restart: the acked record and the killed one both reached the log, so
	// replay restores both (at-least-once; nothing acknowledged missing).
	if err := dc.Close(); err != nil {
		t.Fatal(err)
	}
	dc2, info, err := statusq.OpenDurable(dir, ds.Avails, ds.RCCs, index.KindAVL,
		statusq.DurableOptions{WAL: wal.Options{Policy: wal.SyncNever}})
	if err != nil {
		t.Fatal(err)
	}
	defer dc2.Close()
	if info.Restored < 2 {
		t.Fatalf("restored %d records, want >= 2 (info %+v)", info.Restored, info)
	}
	srv2 := httptest.NewServer(New(newTestRegistry(t), dc2.Catalog, Options{Ingester: dc2}))
	defer srv2.Close()
	for _, id := range []int{970001, 970002} {
		status, _, out := postJSON(t, srv2.URL+"/rccs", rccBody(id, a), nil)
		if status != http.StatusOK || out["duplicate"] != true {
			t.Fatalf("retry of rcc %d = %d %v, want 200 duplicate", id, status, out)
		}
	}
}

// TestChaosDiskFaultSheds: an injected WAL write error answers 503 with
// Retry-After, acknowledges nothing, and leaves the process serving; the
// retry after the fault clears succeeds as a fresh (non-duplicate) ingest.
func TestChaosDiskFaultSheds(t *testing.T) {
	defer faultinject.Reset()
	srv, ds, dc := newDurableServer(t, t.TempDir(), Options{})
	a := ongoingAvail(t, ds)

	faultinject.EnableTimes(wal.FailAppendWrite, errors.New("chaos: disk gone"), 1)
	status, hdr, _ := postJSON(t, srv.URL+"/rccs", rccBody(940001, a), nil)
	if status != http.StatusServiceUnavailable {
		t.Fatalf("faulted ingest = %d, want 503", status)
	}
	if hdr.Get("Retry-After") == "" {
		t.Error("503 without Retry-After")
	}
	if n := dc.IngestedCount(); n != 0 {
		t.Fatalf("faulted ingest acknowledged: count = %d", n)
	}
	get(t, srv.URL+"/healthz", http.StatusOK, nil)
	get(t, srv.URL+"/readyz", http.StatusOK, nil)

	// The fault was transient (EnableTimes budget 1): the client retry
	// with the same key lands as a new acknowledgment, not a duplicate.
	status, _, out := postJSON(t, srv.URL+"/rccs", rccBody(940001, a), nil)
	if status != http.StatusCreated || out["duplicate"] != false {
		t.Fatalf("retry after fault = %d %v, want 201 fresh", status, out)
	}
}

// TestChaosEngineBuildFaultServesStale: when the engine rebuild after an
// ingest fails, /query keeps answering 200 from the last good engine with
// "stale": true, and recovers (fresh answer, bumped asOf) once the fault
// clears.
func TestChaosEngineBuildFaultServesStale(t *testing.T) {
	defer faultinject.Reset()
	srv, ds, _ := newDurableServer(t, t.TempDir(), Options{})
	a := ongoingAvail(t, ds)
	base := len(ds.RCCsByAvail()[a.ID])
	url := fmt.Sprintf("%s/query?avail=%d&date=%s", srv.URL, a.ID, a.PhysicalTime(60))

	var view struct {
		Stale bool    `json:"stale"`
		AsOf  int64   `json:"asOf"`
		Final float64 `json:"estimated_delay_days"`
	}
	get(t, url, http.StatusOK, &view)
	if view.Stale || view.AsOf != int64(base) {
		t.Fatalf("baseline stale=%v asOf=%d, want false/%d", view.Stale, view.AsOf, base)
	}

	// The armed delta failpoint forces the ingest down the invalidation
	// path (instead of folding into the live engine in place); the second
	// fault then makes the rebuild fail on the next query.
	faultinject.EnableTimes(statusq.FailDeltaApply, errors.New("chaos: force rebuild path"), 1)
	status, _, _ := postJSON(t, srv.URL+"/rccs", rccBody(950001, a), nil)
	if status != http.StatusCreated {
		t.Fatalf("ingest = %d", status)
	}
	faultinject.Enable(statusq.FailEngineBuild, errors.New("chaos: engine build down"))
	get(t, url, http.StatusOK, &view)
	if !view.Stale || view.AsOf != int64(base) {
		t.Fatalf("degraded answer stale=%v asOf=%d, want true/%d", view.Stale, view.AsOf, base)
	}

	// Fault cleared: the next query rebuilds and the answer is fresh.
	faultinject.Reset()
	get(t, url, http.StatusOK, &view)
	if view.Stale || view.AsOf != int64(base+1) {
		t.Fatalf("recovered answer stale=%v asOf=%d, want false/%d", view.Stale, view.AsOf, base+1)
	}
}

// TestChaosLoadShedding: with one in-flight slot occupied, the limiter
// sheds the next request with 503 + Retry-After while probes bypass the
// limiter, and normal service resumes once the slot frees.
func TestChaosLoadShedding(t *testing.T) {
	defer faultinject.Reset()
	ds, err := navsim.Generate(navsim.Config{NumClosed: 40, NumOngoing: 3, MeanRCCsPerAvail: 40, Seed: 12})
	if err != nil {
		t.Fatal(err)
	}
	catalog, err := statusq.NewCatalog(ds.Avails, ds.RCCs, index.KindAVL)
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(New(newTestRegistry(t), catalog, Options{MaxInFlight: 1}))
	defer srv.Close()
	a := ongoingAvail(t, ds)

	// Park one request inside the engine build: the armed hook blocks
	// until released, holding the single in-flight slot.
	entered := make(chan struct{})
	release := make(chan struct{})
	faultinject.Arm(statusq.FailEngineBuild, func() error {
		close(entered)
		<-release
		return nil
	})
	done := make(chan int, 1)
	go func() {
		resp, err := http.Get(fmt.Sprintf("%s/query?avail=%d&date=%s", srv.URL, a.ID, a.PhysicalTime(60)))
		if err != nil {
			done <- -1
			return
		}
		resp.Body.Close()
		done <- resp.StatusCode
	}()
	<-entered

	// The slot is taken: the next request is shed.
	resp, err := http.Get(srv.URL + "/avails")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("second request = %d, want 503", resp.StatusCode)
	}
	if ra, err := strconv.Atoi(resp.Header.Get("Retry-After")); err != nil || ra < 1 || ra > 60 {
		t.Errorf("shed Retry-After = %q, want an integer in [1, 60]", resp.Header.Get("Retry-After"))
	}
	// Probes bypass the limiter even at capacity.
	get(t, srv.URL+"/healthz", http.StatusOK, nil)
	get(t, srv.URL+"/readyz", http.StatusOK, nil)

	close(release)
	if code := <-done; code != http.StatusOK {
		t.Fatalf("parked request = %d, want 200", code)
	}
	// Capacity restored.
	get(t, srv.URL+"/avails", http.StatusOK, nil)
}

// TestChaosPanicRecovery: a handler panic answers 500 and the process
// keeps serving — including the same route that just panicked.
func TestChaosPanicRecovery(t *testing.T) {
	defer faultinject.Reset()
	srv, ds, _ := newDurableServer(t, t.TempDir(), Options{})
	a := ongoingAvail(t, ds)

	faultinject.Arm(statusq.FailDurableApply, func() error { panic("chaos: handler panic") })
	status, _, out := postJSON(t, srv.URL+"/rccs", rccBody(960001, a), nil)
	if status != http.StatusInternalServerError {
		t.Fatalf("panicking ingest = %d %v, want 500", status, out)
	}
	if out["error"] == "" {
		t.Error("500 without JSON error body")
	}
	faultinject.Reset()

	// Same route, same record: the server recovered and the retry lands.
	status, _, _ = postJSON(t, srv.URL+"/rccs", rccBody(960001, a), nil)
	if status != http.StatusCreated {
		t.Fatalf("retry after panic = %d, want 201", status)
	}
	get(t, srv.URL+"/query?avail="+fmt.Sprint(a.ID)+"&date="+a.PhysicalTime(60).String(), http.StatusOK, nil)
}
