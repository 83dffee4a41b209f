package server

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"domd/internal/domain"
	"domd/internal/index"
	"domd/internal/navsim"
	"domd/internal/statusq"
	"domd/internal/wal"
)

// newDurableServer serves the standard test fleet through a WAL-backed
// DurableCatalog rooted at dir, so tests can "restart" by reopening dir.
func newDurableServer(t *testing.T, dir string, opts Options) (*httptest.Server, *navsim.Dataset, *statusq.DurableCatalog) {
	t.Helper()
	ds, err := navsim.Generate(navsim.Config{NumClosed: 40, NumOngoing: 3, MeanRCCsPerAvail: 40, Seed: 12})
	if err != nil {
		t.Fatal(err)
	}
	dc, _, err := statusq.OpenDurable(dir, ds.Avails, ds.RCCs, index.KindAVL,
		statusq.DurableOptions{WAL: wal.Options{Policy: wal.SyncNever}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { dc.Close() })
	opts.Ingester = dc
	srv := httptest.NewServer(New(newTestRegistry(t), dc.Catalog, opts))
	t.Cleanup(srv.Close)
	return srv, ds, dc
}

// ongoingAvail picks one ongoing avail from the dataset.
func ongoingAvail(t *testing.T, ds *navsim.Dataset) domain.Avail {
	t.Helper()
	for i := range ds.Avails {
		if ds.Avails[i].Status == domain.StatusOngoing {
			return ds.Avails[i]
		}
	}
	t.Fatal("dataset has no ongoing avail")
	return domain.Avail{}
}

// rccBody builds a well-formed POST /rccs payload for the given avail.
func rccBody(id int, a domain.Avail) string {
	created := a.PhysicalTime(30)
	settled := a.PhysicalTime(50)
	return fmt.Sprintf(
		`{"id":%d,"avail_id":%d,"type":"G","swlin":"434-11-001","created":%q,"settled":%q,"amount":1234.5}`,
		id, a.ID, created.String(), settled.String())
}

// postJSON posts body to url with optional headers and decodes the reply.
func postJSON(t *testing.T, url, body string, hdr map[string]string) (int, http.Header, map[string]any) {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, url, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatalf("POST %s: decode reply: %v", url, err)
	}
	return resp.StatusCode, resp.Header, out
}

func TestIngestHappyPathAndIdempotency(t *testing.T) {
	srv, ds, dc := newDurableServer(t, t.TempDir(), Options{})
	a := ongoingAvail(t, ds)
	body := rccBody(900001, a)

	status, _, out := postJSON(t, srv.URL+"/rccs", body, nil)
	if status != http.StatusCreated {
		t.Fatalf("first ingest = %d (%v), want 201", status, out)
	}
	if out["duplicate"] != false || out["idempotency_key"] != "rcc:900001" {
		t.Fatalf("ack = %v", out)
	}
	if n := dc.IngestedCount(); n != 1 {
		t.Fatalf("ingested count = %d, want 1", n)
	}

	// Same record, same (default) key: acknowledged as a duplicate, not
	// re-applied.
	status, _, out = postJSON(t, srv.URL+"/rccs", body, nil)
	if status != http.StatusOK || out["duplicate"] != true {
		t.Fatalf("replayed ingest = %d %v, want 200 duplicate", status, out)
	}
	if n := dc.IngestedCount(); n != 1 {
		t.Fatalf("count after duplicate = %d, want 1", n)
	}

	// An explicit distinct Idempotency-Key is a new ingest.
	status, _, _ = postJSON(t, srv.URL+"/rccs", rccBody(900002, a),
		map[string]string{"Idempotency-Key": "client-retry-42"})
	if status != http.StatusCreated {
		t.Fatalf("keyed ingest = %d, want 201", status)
	}
	status, _, out = postJSON(t, srv.URL+"/rccs", rccBody(900002, a),
		map[string]string{"Idempotency-Key": "client-retry-42"})
	if status != http.StatusOK || out["duplicate"] != true {
		t.Fatalf("keyed replay = %d %v, want 200 duplicate", status, out)
	}
}

// TestIngestValidation pins the endpoint's status contract for bad input:
// 400 malformed body, 422 semantically invalid fields, 404 unknown avail.
func TestIngestValidation(t *testing.T) {
	srv, ds, dc := newDurableServer(t, t.TempDir(), Options{})
	a := ongoingAvail(t, ds)
	created, settled := a.PhysicalTime(30), a.PhysicalTime(50)
	mk := func(field, val string) string {
		m := map[string]any{
			"id": 900100, "avail_id": a.ID, "type": "G", "swlin": "434-11-001",
			"created": created.String(), "settled": settled.String(), "amount": 10.0,
		}
		var v any = val
		if err := json.Unmarshal([]byte(val), &v); err != nil {
			v = val
		}
		m[field] = v
		b, err := json.Marshal(m)
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}
	cases := []struct {
		name, body string
		want       int
	}{
		{"malformed json", `{"id": 1,`, http.StatusBadRequest},
		{"unknown field", mk("bogus_field", `1`), http.StatusBadRequest},
		{"wrong field type", mk("id", `"one"`), http.StatusBadRequest},
		{"zero id", mk("id", `0`), http.StatusUnprocessableEntity},
		{"negative id", mk("id", `-3`), http.StatusUnprocessableEntity},
		{"bad type", mk("type", `"XX"`), http.StatusUnprocessableEntity},
		{"bad swlin chars", mk("swlin", `"43x-11-001"`), http.StatusUnprocessableEntity},
		{"short swlin", mk("swlin", `"434-11"`), http.StatusUnprocessableEntity},
		{"bad created", mk("created", `"not-a-date"`), http.StatusUnprocessableEntity},
		{"bad settled", mk("settled", `"2024-13-99"`), http.StatusUnprocessableEntity},
		{"settled before created", mk("settled", fmt.Sprintf("%q", (created-10).String())), http.StatusUnprocessableEntity},
		{"negative amount", mk("amount", `-5`), http.StatusUnprocessableEntity},
		{"unknown avail", mk("avail_id", `999999`), http.StatusNotFound},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			status, _, out := postJSON(t, srv.URL+"/rccs", tc.body, nil)
			if status != tc.want {
				t.Errorf("status = %d (%v), want %d", status, out, tc.want)
			}
			if out["error"] == "" {
				t.Error("error body missing")
			}
		})
	}
	// None of the rejected ingests may have been acknowledged or logged.
	if n := dc.IngestedCount(); n != 0 {
		t.Fatalf("rejected ingests leaked: count = %d", n)
	}
}

func TestIngestBodyCap(t *testing.T) {
	srv, ds, _ := newDurableServer(t, t.TempDir(), Options{MaxBodyBytes: 128})
	a := ongoingAvail(t, ds)
	big := strings.Replace(rccBody(900200, a), `"amount":1234.5`,
		`"amount":1234.5,"pad":"`+strings.Repeat("x", 4096)+`"`, 1)
	status, _, _ := postJSON(t, srv.URL+"/rccs", big, nil)
	if status != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized body = %d, want 413", status)
	}
	// A normal-sized record still fits under the same cap.
	status, _, _ = postJSON(t, srv.URL+"/rccs", rccBody(900201, a), nil)
	if status != http.StatusCreated {
		t.Fatalf("normal body under cap = %d, want 201", status)
	}
}

// TestIngestNonDurableFallback: without a configured Ingester the endpoint
// still works (straight into the in-memory catalog) with the same
// idempotency and status semantics.
func TestIngestNonDurableFallback(t *testing.T) {
	srv, ds, catalog := newTestServer(t)
	a := ongoingAvail(t, ds)
	body := rccBody(910001, a)
	status, _, _ := postJSON(t, srv.URL+"/rccs", body, nil)
	if status != http.StatusCreated {
		t.Fatalf("ingest = %d, want 201", status)
	}
	status, _, out := postJSON(t, srv.URL+"/rccs", body, nil)
	if status != http.StatusOK || out["duplicate"] != true {
		t.Fatalf("replay = %d %v, want 200 duplicate", status, out)
	}
	status, _, _ = postJSON(t, srv.URL+"/rccs",
		strings.Replace(body, fmt.Sprintf(`"avail_id":%d`, a.ID), `"avail_id":999999`, 1), nil)
	if status != http.StatusNotFound {
		t.Fatalf("unknown avail = %d, want 404", status)
	}
	_ = catalog
}

func TestReadyz(t *testing.T) {
	srv, _, dc := newDurableServer(t, t.TempDir(), Options{})
	var body map[string]string
	get(t, srv.URL+"/readyz", http.StatusOK, &body)
	if body["status"] != "ready" {
		t.Fatalf("readyz = %v", body)
	}
	// Closing the WAL flips readiness; liveness is untouched.
	if err := dc.Close(); err != nil {
		t.Fatal(err)
	}
	get(t, srv.URL+"/readyz", http.StatusServiceUnavailable, new(map[string]string))
	get(t, srv.URL+"/healthz", http.StatusOK, nil)
	// Ingestion now sheds with 503 rather than silently dropping.
	status, hdr, _ := postJSON(t, srv.URL+"/rccs", `{"id":1}`, nil)
	if status != http.StatusUnprocessableEntity && status != http.StatusServiceUnavailable {
		t.Fatalf("ingest on closed catalog = %d", status)
	}
	_ = hdr

	// A server without a WAL is always ready.
	srv2, _, _ := newTestServer(t)
	get(t, srv2.URL+"/readyz", http.StatusOK, &body)
}

// TestQueryStaleAsOf pins the degraded-answer markers: a fresh engine
// answers stale=false with asOf equal to the avail's RCC count, and an
// ingest bumps asOf on the next (rebuilt) answer.
func TestQueryStaleAsOf(t *testing.T) {
	srv, ds, _ := newDurableServer(t, t.TempDir(), Options{})
	a := ongoingAvail(t, ds)
	base := len(ds.RCCsByAvail()[a.ID])
	url := fmt.Sprintf("%s/query?avail=%d&date=%s", srv.URL, a.ID, a.PhysicalTime(60))

	var view struct {
		Stale bool  `json:"stale"`
		AsOf  int64 `json:"asOf"`
	}
	get(t, url, http.StatusOK, &view)
	if view.Stale || view.AsOf != int64(base) {
		t.Fatalf("fresh answer stale=%v asOf=%d, want false/%d", view.Stale, view.AsOf, base)
	}

	status, _, _ := postJSON(t, srv.URL+"/rccs", rccBody(920001, a), nil)
	if status != http.StatusCreated {
		t.Fatalf("ingest = %d", status)
	}
	get(t, url, http.StatusOK, &view)
	if view.Stale || view.AsOf != int64(base+1) {
		t.Fatalf("post-ingest answer stale=%v asOf=%d, want false/%d", view.Stale, view.AsOf, base+1)
	}
}
