package modelserve

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"domd/internal/domain"
	"domd/internal/features"
	"domd/internal/index"
	"domd/internal/statusq"
)

// referencePredict is the prediction loop Registry.Predict ran before it
// shared core.WalkEngine with the query path, kept verbatim as the
// reference the shared walk must reproduce bit for bit.
func referencePredict(r *Registry, eng *statusq.Engine, at domain.Day, alpha float64) (*Prediction, error) {
	v := r.snap.Load().active
	ts, err := eng.LogicalTime(at)
	if err != nil {
		return nil, err
	}
	m, fallback := v.route(ts)
	if alpha <= 0 {
		alpha = v.alpha
	}
	grid := m.pipe.Timestamps()
	upto := 0
	for k, g := range grid {
		if g <= ts {
			upto = k
		}
	}
	ext := features.NewExtractor()
	fulls := make([][]float64, upto+1)
	for k := 0; k <= upto; k++ {
		fulls[k], err = ext.Vector(eng, grid[k])
		if err != nil {
			return nil, err
		}
	}
	raw, _, err := m.pipe.Trajectory(fulls, upto)
	if err != nil {
		return nil, err
	}
	lo, mid, hi, err := m.conf.Interval(raw, upto, alpha)
	if err != nil {
		return nil, err
	}
	return &Prediction{
		Delay: mid, Lo: lo, Hi: hi, Alpha: alpha,
		Version: v.name, Window: m.window, WindowFallback: fallback,
		AsOf: int64(eng.NumRCCs()),
	}, nil
}

func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// TestPredictMatchesReferenceLoop proves the shared walk changed no
// served number: Predict and Explain answer bitwise what the pre-change
// loop answers, at every ongoing avail, across both windows, a shared
// boundary, a past-plan fallback, and two miscoverage levels. Explain's
// trajectory ends on the predicted delay.
func TestPredictMatchesReferenceLoop(t *testing.T) {
	fx := mustFixture(t)
	tv := trainTestVersion(t, 1, "v001")
	dir := t.TempDir()
	if _, err := tv.WriteTo(dir, true); err != nil {
		t.Fatal(err)
	}
	reg, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	checked := 0
	for i := range fx.ds.Avails {
		a := &fx.ds.Avails[i]
		if a.Status != domain.StatusOngoing {
			continue
		}
		eng := engineFor(t, fx, a)
		for _, ts := range []float64{0, 10, 25, 50, 60, 75, 90, 100, 130} {
			for _, alpha := range []float64{0, 0.05} {
				at := a.PhysicalTime(ts)
				want, err := referencePredict(reg, eng, at, alpha)
				if err != nil {
					t.Fatal(err)
				}
				got, err := reg.Predict(eng, at, alpha)
				if err != nil {
					t.Fatal(err)
				}
				if !sameBits(got.Delay, want.Delay) || !sameBits(got.Lo, want.Lo) || !sameBits(got.Hi, want.Hi) || *got != *want {
					t.Fatalf("avail %d t*=%g alpha=%g: Predict %+v, reference %+v", a.ID, ts, alpha, got, want)
				}
				pred, expl, err := reg.Explain(eng, at, alpha)
				if err != nil {
					t.Fatal(err)
				}
				if *pred != *want {
					t.Fatalf("avail %d t*=%g: Explain %+v, reference %+v", a.ID, ts, pred, want)
				}
				last := expl.Estimates[len(expl.Estimates)-1]
				if !sameBits(last.Fused, want.Delay) || !want.Window.Contains(expl.Estimates[0].Timestamp) {
					t.Fatalf("avail %d t*=%g: trajectory %+v does not end on %g inside %v", a.ID, ts, expl.Estimates, want.Delay, want.Window)
				}
				if len(expl.TopDrivers) == 0 {
					t.Fatalf("avail %d t*=%g: no top drivers", a.ID, ts)
				}
				checked++
			}
		}
	}
	if checked == 0 {
		t.Fatal("no ongoing avail checked")
	}
}

// TestPredictMatchesReferenceLoopUnderIngest is the trajectory-cache
// proof at the model layer: one live engine takes a random ingest stream
// through ApplyRCC (in order, back-dated, and created and settled on one
// grid day), and after every ingest Predict and Explain in both windows,
// on their shared boundary and past plan answer bitwise what the
// reference loop answers over an engine freshly built from the same
// history, with AsOf naming that history's length.
func TestPredictMatchesReferenceLoopUnderIngest(t *testing.T) {
	fx := mustFixture(t)
	tv := trainTestVersion(t, 1, "v001")
	dir := t.TempDir()
	if _, err := tv.WriteTo(dir, true); err != nil {
		t.Fatal(err)
	}
	reg, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	a := ongoingAvail(t, fx)
	hist := append([]domain.RCC(nil), fx.ds.RCCsByAvail()[a.ID]...)
	eng, err := statusq.NewEngine(a, append([]domain.RCC(nil), hist...), index.KindAVL)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(5))
	plan := a.PlannedDuration()
	latest := a.ActStart
	for _, r := range hist {
		if r.Created > latest {
			latest = r.Created
		}
	}
	for i := 0; i <= 30; i++ {
		if i > 0 {
			var created, settled domain.Day
			switch i % 3 {
			case 0: // in order
				latest += domain.Day(rng.Intn(5))
				created, settled = latest, latest+domain.Day(rng.Intn(60))
			case 1: // back-dated
				created = a.ActStart + domain.Day(rng.Intn(plan))
				settled = created + domain.Day(rng.Intn(60))
			case 2: // same day, on a grid day
				created = a.PhysicalTime(float64(25 * rng.Intn(5)))
				settled = created
			}
			r := domain.RCC{ID: 1_000_000 + i, AvailID: a.ID,
				Type: domain.RCCType(rng.Intn(domain.NumRCCTypes)), SWLIN: rng.Intn(100_000_000),
				Created: created, Settled: settled, Amount: math.Trunc(rng.Float64()*1e6) / 100}
			if err := eng.ApplyRCC(r); err != nil {
				t.Fatal(err)
			}
			hist = append(hist, r)
		}
		fresh, err := statusq.NewEngine(a, hist, index.KindAVL)
		if err != nil {
			t.Fatal(err)
		}
		for _, ts := range []float64{10, 50, 75, 130} {
			at := a.PhysicalTime(ts)
			want, err := referencePredict(reg, fresh, at, 0)
			if err != nil {
				t.Fatal(err)
			}
			got, err := reg.Predict(eng, at, 0)
			if err != nil {
				t.Fatal(err)
			}
			pred, _, err := reg.Explain(eng, at, 0)
			if err != nil {
				t.Fatal(err)
			}
			if *got != *want || *pred != *want || got.AsOf != int64(len(hist)) {
				t.Fatalf("ingest %d t*=%g: Predict %+v, Explain %+v, reference %+v", i, ts, got, pred, want)
			}
		}
	}
}

// TestSchemaDigestMismatchRefused re-stamps one artifact with a foreign
// feature-schema digest and re-digests it so the content check passes:
// the load must still refuse the version, report why, and serve nothing.
func TestSchemaDigestMismatchRefused(t *testing.T) {
	fx := mustFixture(t)
	tv := trainTestVersion(t, 1, "v001")
	dir := t.TempDir()
	if _, err := tv.WriteTo(dir, true); err != nil {
		t.Fatal(err)
	}
	rel := "v001/window-001.json"
	path := filepath.Join(dir, filepath.FromSlash(rel))
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var art map[string]json.RawMessage
	if err := json.Unmarshal(data, &art); err != nil {
		t.Fatal(err)
	}
	var schema string
	if err := json.Unmarshal(art["schema"], &schema); err != nil {
		t.Fatal(err)
	}
	if want := features.SchemaDigest(features.NewExtractor().Names()); schema != want {
		t.Fatalf("artifact schema %q, binary %q", schema, want)
	}
	foreign := features.SchemaDigest(append([]string{"EXTRA_COLUMN"}, features.NewExtractor().Names()...))
	art["schema"] = json.RawMessage(fmt.Sprintf("%q", foreign))
	if data, err = json.Marshal(art); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	man, err := ReadManifest(dir)
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(data)
	mv, _ := man.Version("v001")
	for i := range mv.Artifacts {
		if mv.Artifacts[i].File == rel {
			mv.Artifacts[i].SHA256 = hex.EncodeToString(sum[:])
		}
	}
	if err := man.Write(dir); err != nil {
		t.Fatal(err)
	}

	reg, err := Open(dir)
	if err == nil || !strings.Contains(err.Error(), "feature schema") {
		t.Fatalf("Open with a foreign schema: err = %v", err)
	}
	if st := reg.RegistryStatus(); !strings.Contains(st.LoadError, "feature schema") || st.Active != "" {
		t.Fatalf("status = %+v, want a schema load_error and no active version", st)
	}
	a := ongoingAvail(t, fx)
	if _, err := reg.Predict(engineFor(t, fx, a), a.PhysicalTime(60), 0); !errors.Is(err, ErrNoModel) {
		t.Fatalf("predict on a refused version: err = %v, want ErrNoModel", err)
	}
}

// TestConcurrentManifestWrite races writers of one manifest against a
// reader: every write must land whole (no rename error, never an
// unparseable manifest) and leave no temp file behind.
func TestConcurrentManifestWrite(t *testing.T) {
	dir := t.TempDir()
	const writers, rounds = 4, 200
	errs := make(chan error, writers+1)
	stop := make(chan struct{})
	var reader sync.WaitGroup
	reader.Add(1)
	go func() {
		defer reader.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if _, err := ReadManifest(dir); err != nil {
				errs <- fmt.Errorf("reader: %w", err)
				return
			}
		}
	}()
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				m := &Manifest{Active: fmt.Sprintf("w%d-r%d", w, r)}
				for v := 0; v <= w; v++ {
					m.Versions = append(m.Versions, ManifestVersion{Version: fmt.Sprintf("v%d", v), Alpha: 0.1})
				}
				if err := m.Write(dir); err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	wg.Wait()
	close(stop)
	reader.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	man, err := ReadManifest(dir)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(man.Active, "-r") {
		t.Fatalf("final manifest = %+v", man)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || entries[0].Name() != ManifestName {
		names := make([]string, len(entries))
		for i, e := range entries {
			names[i] = e.Name()
		}
		t.Fatalf("directory holds %v, want only %s", names, ManifestName)
	}
}
