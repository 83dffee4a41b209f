package server

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"domd/internal/domain"
	"domd/internal/features"
	"domd/internal/index"
	"domd/internal/modelserve"
	"domd/internal/navsim"
	"domd/internal/statusq"
)

// postDecode POSTs a JSON body and decodes a 200 answer into out.
func postDecode(t *testing.T, url string, body any, out any) {
	t.Helper()
	raw, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST %s: status %d, want 200", url, resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		t.Fatalf("decode %s: %v", url, err)
	}
}

// TestOnePathDifferential is the one-model-path proof: on a single
// catalog and on a 4-shard catalog, for every ongoing avail at t* of 25,
// 50, 75 and 90 percent plus a past-plan date that falls back to the
// nearest window, GET /query, the matching POST /query/batch row, the
// /fleet row's result and predicted delay, and GET and POST /predict all
// serve the same delay, bit for bit.
func TestOnePathDifferential(t *testing.T) {
	for _, tc := range []struct {
		name  string
		start func(t *testing.T) (*httptest.Server, *navsim.Dataset)
	}{
		{"single", func(t *testing.T) (*httptest.Server, *navsim.Dataset) {
			srv, ds, _ := newPredictServer(t)
			return srv, ds
		}},
		{"sharded4", func(t *testing.T) (*httptest.Server, *navsim.Dataset) {
			srv, ds, _ := newShardedPredictServer(t)
			return srv, ds
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			srv, ds := tc.start(t)
			checked := 0
			for i := range ds.Avails {
				a := &ds.Avails[i]
				if a.Status != domain.StatusOngoing {
					continue
				}
				for _, ts := range []float64{25, 50, 75, 90, 130} {
					checkOnePath(t, srv.URL, a, a.PhysicalTime(ts), ts > 100)
					checked++
				}
			}
			if checked == 0 {
				t.Fatal("fixture has no ongoing avail")
			}
		})
	}
}

func checkOnePath(t *testing.T, base string, a *domain.Avail, at domain.Day, pastPlan bool) {
	t.Helper()
	where := fmt.Sprintf("avail %d at %s", a.ID, at)

	var q queryView
	get(t, fmt.Sprintf("%s/query?avail=%d&date=%s", base, a.ID, at), http.StatusOK, &q)
	if q.FinalDays == nil || len(q.Estimates) == 0 || q.ModelVersion == "" || q.Window == nil {
		t.Fatalf("%s: /query = %+v, want a model answer", where, q)
	}
	if q.WindowFallback != pastPlan {
		t.Fatalf("%s: /query window_fallback = %v, want %v", where, q.WindowFallback, pastPlan)
	}
	want := *q.FinalDays
	delays := map[string]float64{
		"/query last fused estimate": q.Estimates[len(q.Estimates)-1].Fused,
	}

	in := batchIn{Queries: []batchQueryIn{{Avail: a.ID, Date: at.String()}}}
	var batch []batchRow
	postDecode(t, base+"/query/batch", in, &batch)
	if len(batch) != 1 || batch[0].Result == nil || batch[0].Result.FinalDays == nil {
		t.Fatalf("%s: /query/batch = %+v", where, batch)
	}
	delays["POST /query/batch"] = *batch[0].Result.FinalDays

	var fleet []fleetRow
	get(t, fmt.Sprintf("%s/fleet?date=%s", base, at), http.StatusOK, &fleet)
	var row *fleetRow
	for i := range fleet {
		if fleet[i].AvailID == a.ID {
			row = &fleet[i]
		}
	}
	if row == nil || row.Result == nil || row.Result.FinalDays == nil || row.PredictedDelay == nil {
		t.Fatalf("%s: /fleet row = %+v", where, row)
	}
	delays["/fleet result"] = *row.Result.FinalDays
	delays["/fleet predicted_delay"] = *row.PredictedDelay

	var p predictRow
	get(t, fmt.Sprintf("%s/predict?avail=%d&date=%s", base, a.ID, at), http.StatusOK, &p)
	if p.PredictedDelay == nil || p.WindowFallback != pastPlan {
		t.Fatalf("%s: GET /predict = %+v", where, p)
	}
	delays["GET /predict"] = *p.PredictedDelay

	var pb []predictBatchRow
	postDecode(t, base+"/predict", predictBatchIn{Queries: in.Queries}, &pb)
	if len(pb) != 1 || pb[0].Result == nil || pb[0].Result.PredictedDelay == nil {
		t.Fatalf("%s: POST /predict = %+v", where, pb)
	}
	delays["POST /predict"] = *pb[0].Result.PredictedDelay

	for name, got := range delays {
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Errorf("%s: %s = %v, GET /query = %v", where, name, got, want)
		}
	}
}

// TestSchemaMismatchDegradesReads serves from a registry whose only
// version was trained on a foreign feature schema (re-stamped and
// re-digested, so only the schema check can catch it): GET /models
// reports the load_error and every read degrades to
// prediction_unavailable instead of feeding the model the wrong columns.
func TestSchemaMismatchDegradesReads(t *testing.T) {
	tv, err := trainTestVersion()
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if _, err := tv.WriteTo(dir, true); err != nil {
		t.Fatal(err)
	}
	man, err := modelserve.ReadManifest(dir)
	if err != nil {
		t.Fatal(err)
	}
	mv, _ := man.Version(man.Active)
	art := &mv.Artifacts[0]
	path := filepath.Join(dir, filepath.FromSlash(art.File))
	var body map[string]any
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(raw, &body); err != nil {
		t.Fatal(err)
	}
	body["schema"] = features.SchemaDigest([]string{"SOME_OTHER_COLUMN"})
	if raw, err = json.Marshal(body); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(raw)
	art.SHA256 = hex.EncodeToString(sum[:])
	if err := man.Write(dir); err != nil {
		t.Fatal(err)
	}

	ds, err := navsim.Generate(navsim.Config{NumClosed: 40, NumOngoing: 3, MeanRCCsPerAvail: 40, Seed: 12})
	if err != nil {
		t.Fatal(err)
	}
	catalog, err := statusq.NewCatalog(ds.Avails, ds.RCCs, index.KindAVL)
	if err != nil {
		t.Fatal(err)
	}
	reg, err := modelserve.Open(dir)
	if err == nil {
		t.Fatal("Open accepted a version trained on a foreign feature schema")
	}
	srv := httptest.NewServer(New(reg, catalog, Options{}))
	defer srv.Close()

	var models modelserve.Status
	get(t, srv.URL+"/models", http.StatusOK, &models)
	if !strings.Contains(models.LoadError, "feature schema") || models.Active != "" {
		t.Fatalf("/models = %+v, want a feature-schema load_error", models)
	}
	a := &ds.Avails[firstOngoing(t, ds)]
	date := a.PhysicalTime(60)
	var q queryView
	get(t, fmt.Sprintf("%s/query?avail=%d&date=%s", srv.URL, a.ID, date), http.StatusOK, &q)
	if !q.PredictionUnavailable || q.FinalDays != nil {
		t.Errorf("/query = %+v, want prediction_unavailable", q)
	}
	var p predictRow
	get(t, fmt.Sprintf("%s/predict?avail=%d&date=%s", srv.URL, a.ID, date), http.StatusOK, &p)
	if !p.PredictionUnavailable || p.PredictedDelay != nil {
		t.Errorf("/predict = %+v, want prediction_unavailable", p)
	}
}
