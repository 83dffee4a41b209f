package server

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"domd/internal/domain"
	"domd/internal/index"
	"domd/internal/navsim"
	"domd/internal/statusq"
)

// provenanceSample is one read answered while the writer ran.
type provenanceSample struct {
	route string // "query" or "predict"
	at    domain.Day
	asOf  int64
	// delay, lo, hi for /predict; delay and the trajectory for /query.
	delay, lo, hi float64
	estimates     []estimateView
}

// getOK GETs url and decodes a 200 answer into out; safe off the test
// goroutine.
func getOK(url string, out any) error {
	resp, err := http.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("status %d", resp.StatusCode)
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

// TestConcurrentIngestProvenance proves asOf names the history an answer
// came from: readers hit /query and /predict on one avail while a writer
// ingests into it (in order, back-dated, and same-day RCCs), and every
// answer must be bitwise the registry's answer over an engine freshly
// built from the first asOf RCCs of the avail's history.
func TestConcurrentIngestProvenance(t *testing.T) {
	ds, err := navsim.Generate(navsim.Config{NumClosed: 40, NumOngoing: 3, MeanRCCsPerAvail: 40, Seed: 12})
	if err != nil {
		t.Fatal(err)
	}
	catalog, err := statusq.NewCatalog(ds.Avails, ds.RCCs, index.KindAVL)
	if err != nil {
		t.Fatal(err)
	}
	reg := newTestRegistry(t)
	srv := httptest.NewServer(New(reg, catalog, Options{}))
	t.Cleanup(srv.Close)
	a := ds.Avails[firstOngoing(t, ds)]

	const readers, ingests = 4, 24
	done := make(chan struct{})
	samples := make([][]provenanceSample, readers)
	var answered atomic.Int64
	// waitReads blocks until the readers have answered n more reads, so
	// the run samples the first and the last revision too.
	waitReads := func(n int64) {
		for want := answered.Load() + n; answered.Load() < want && !t.Failed(); {
			time.Sleep(time.Millisecond)
		}
	}
	var wg sync.WaitGroup
	for g := 0; g < readers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			for {
				select {
				case <-done:
					return
				default:
				}
				at := a.PhysicalTime([]float64{10, 40, 50, 75, 95, 130}[rng.Intn(6)])
				s := provenanceSample{at: at}
				if rng.Intn(2) == 0 {
					var q queryView
					if err := getOK(fmt.Sprintf("%s/query?avail=%d&date=%s", srv.URL, a.ID, at), &q); err != nil || q.FinalDays == nil {
						t.Errorf("/query at %s: %v, no estimate in %+v", at, err, q)
						return
					}
					s.route, s.asOf, s.delay, s.estimates = "query", q.AsOf, *q.FinalDays, q.Estimates
				} else {
					var p predictRow
					if err := getOK(fmt.Sprintf("%s/predict?avail=%d&date=%s", srv.URL, a.ID, at), &p); err != nil || p.PredictedDelay == nil {
						t.Errorf("/predict at %s: %v, no estimate in %+v", at, err, p)
						return
					}
					s.route, s.asOf, s.delay, s.lo, s.hi = "predict", p.AsOf, *p.PredictedDelay, *p.BandLo, *p.BandHi
				}
				samples[g] = append(samples[g], s)
				answered.Add(1)
			}
		}(g)
	}

	waitReads(readers)
	rng := rand.New(rand.NewSource(99))
	plan := a.PlannedDuration()
	for i := 0; i < ingests; i++ {
		var created, settled domain.Day
		switch i % 3 {
		case 0: // in order, at the avail's recent edge
			created = a.PhysicalTime(90) + domain.Day(i)
			settled = created + 20
		case 1: // back-dated into the walked grid
			created = a.ActStart + domain.Day(rng.Intn(plan))
			settled = created + domain.Day(rng.Intn(60))
		case 2: // created and settled on one grid day
			created = a.PhysicalTime(float64(25 * rng.Intn(5)))
			settled = created
		}
		body := fmt.Sprintf(`{"id":%d,"avail_id":%d,"type":"NW","swlin":"%08d","created":%q,"settled":%q,"amount":%d}`,
			920000+i, a.ID, rng.Intn(100_000_000), created.String(), settled.String(), 100+rng.Intn(10_000))
		if status, _, out := postJSON(t, srv.URL+"/rccs", body, nil); status != http.StatusCreated {
			t.Fatalf("ingest %d: status %d %v", i, status, out)
		}
	}
	waitReads(readers)
	close(done)
	wg.Wait()
	if t.Failed() {
		return
	}

	eng, err := catalog.Engine(a.ID)
	if err != nil {
		t.Fatal(err)
	}
	hist := eng.History()
	fresh := map[int64]*statusq.Engine{}
	revs := map[int64]bool{}
	checked := 0
	for _, list := range samples {
		for _, s := range list {
			if s.asOf < 1 || s.asOf > int64(len(hist)) {
				t.Fatalf("%s at %s: asOf %d outside [1,%d]", s.route, s.at, s.asOf, len(hist))
			}
			ref := fresh[s.asOf]
			if ref == nil {
				if ref, err = statusq.NewEngine(&a, hist[:s.asOf], index.KindAVL); err != nil {
					t.Fatal(err)
				}
				fresh[s.asOf] = ref
			}
			pred, expl, err := reg.Explain(ref, s.at, 0)
			if err != nil {
				t.Fatal(err)
			}
			where := fmt.Sprintf("%s at %s asOf %d", s.route, s.at, s.asOf)
			if math.Float64bits(s.delay) != math.Float64bits(pred.Delay) {
				t.Fatalf("%s: delay %v, fresh engine %v", where, s.delay, pred.Delay)
			}
			if s.route == "predict" && (math.Float64bits(s.lo) != math.Float64bits(pred.Lo) || math.Float64bits(s.hi) != math.Float64bits(pred.Hi)) {
				t.Fatalf("%s: band [%v,%v], fresh engine [%v,%v]", where, s.lo, s.hi, pred.Lo, pred.Hi)
			}
			if s.route == "query" {
				if len(s.estimates) != len(expl.Estimates) {
					t.Fatalf("%s: %d estimates, fresh engine %d", where, len(s.estimates), len(expl.Estimates))
				}
				for k, e := range expl.Estimates {
					got := s.estimates[k]
					if math.Float64bits(got.Raw) != math.Float64bits(e.Raw) || math.Float64bits(got.Fused) != math.Float64bits(e.Fused) {
						t.Fatalf("%s: estimate %d %+v, fresh engine %+v", where, k, got, e)
					}
				}
			}
			revs[s.asOf] = true
			checked++
		}
	}
	if !revs[int64(len(hist)-ingests)] || !revs[int64(len(hist))] {
		t.Fatalf("%d answers over revisions %v: want the first and the last", checked, revs)
	}
}
