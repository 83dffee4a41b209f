package main

import (
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/url"
	"sync"
	"time"

	"domd/internal/domain"
	"domd/internal/swlin"
)

// versionSet is the set of model versions the benchmark published; an
// answer naming any other version fails its check. Writers add a version
// before asking the server to serve it.
type versionSet struct {
	mu sync.RWMutex
	m  map[string]bool
}

func (v *versionSet) add(name string) {
	v.mu.Lock()
	defer v.mu.Unlock()
	if v.m == nil {
		v.m = map[string]bool{}
	}
	v.m[name] = true
}

func (v *versionSet) has(name string) bool {
	v.mu.RLock()
	defer v.mu.RUnlock()
	return v.m[name]
}

// expect carries what a response must satisfy beyond its own shape.
type expect struct {
	versions *versionSet
	ongoing  []int
	// strictFresh: a /query must not be stale and must count at least
	// minAsOf RCCs (the live-mix writer's read-your-acks check).
	strictFresh bool
	minAsOf     int64
	// allowStale admits stale=true on reads racing a live writer.
	allowStale bool
}

type queryBody struct {
	AvailID   int               `json:"avail_id"`
	FinalDays float64           `json:"estimated_delay_days"`
	Stale     bool              `json:"stale"`
	AsOf      int64             `json:"asOf"`
	Estimates []json.RawMessage `json:"estimates"`
}

type predictBody struct {
	AvailID               int      `json:"avail_id"`
	PredictedDelay        *float64 `json:"predicted_delay"`
	BandLo                *float64 `json:"band_lo"`
	BandHi                *float64 `json:"band_hi"`
	ModelVersion          string   `json:"model_version"`
	PredictionUnavailable bool     `json:"prediction_unavailable"`
	UnavailableReason     string   `json:"unavailable_reason"`
	Stale                 bool     `json:"stale"`
	AsOf                  int64    `json:"asOf"`
}

type fleetRowBody struct {
	AvailID               int        `json:"avail_id"`
	PredictedDelay        *float64   `json:"predicted_delay"`
	BandLo                *float64   `json:"band_lo"`
	BandHi                *float64   `json:"band_hi"`
	ModelVersion          string     `json:"model_version"`
	PredictionUnavailable bool       `json:"prediction_unavailable"`
	Result                *queryBody `json:"result"`
	Error                 string     `json:"error"`
}

type ingestBody struct {
	ID        int  `json:"id"`
	AvailID   int  `json:"avail_id"`
	Duplicate bool `json:"duplicate"`
}

// checkBand checks a prediction's band and provenance.
func checkBand(mid, lo, hi *float64, version string, ex *expect) error {
	if mid == nil || lo == nil || hi == nil {
		return fmt.Errorf("prediction fields missing")
	}
	if !(*lo <= *mid && *mid <= *hi) || math.IsNaN(*mid) {
		return fmt.Errorf("band [%g, %g] does not hold prediction %g", *lo, *hi, *mid)
	}
	if !ex.versions.has(version) {
		return fmt.Errorf("model_version %q was never published", version)
	}
	return nil
}

func checkQuery(body []byte, o *op, ex *expect) error {
	var q queryBody
	if err := json.Unmarshal(body, &q); err != nil {
		return err
	}
	switch {
	case q.AvailID != o.avail:
		return fmt.Errorf("answer for avail %d, asked %d", q.AvailID, o.avail)
	case len(q.Estimates) == 0 || math.IsNaN(q.FinalDays):
		return fmt.Errorf("no estimate")
	case q.Stale && !ex.allowStale:
		return fmt.Errorf("stale answer (asOf %d)", q.AsOf)
	case ex.strictFresh && q.AsOf < ex.minAsOf:
		return fmt.Errorf("asOf %d below the %d RCCs acknowledged", q.AsOf, ex.minAsOf)
	}
	return nil
}

func checkPredict(body []byte, o *op, ex *expect) (*predictBody, error) {
	var p predictBody
	if err := json.Unmarshal(body, &p); err != nil {
		return nil, err
	}
	if p.AvailID != o.avail {
		return nil, fmt.Errorf("answer for avail %d, asked %d", p.AvailID, o.avail)
	}
	if p.PredictionUnavailable {
		return nil, fmt.Errorf("prediction unavailable: %s", p.UnavailableReason)
	}
	if p.Stale && !ex.allowStale {
		return nil, fmt.Errorf("stale prediction (asOf %d)", p.AsOf)
	}
	return &p, checkBand(p.PredictedDelay, p.BandLo, p.BandHi, p.ModelVersion, ex)
}

func checkFleet(body []byte, ex *expect) error {
	var rows []fleetRowBody
	if err := json.Unmarshal(body, &rows); err != nil {
		return err
	}
	if len(rows) != len(ex.ongoing) {
		return fmt.Errorf("%d fleet rows, want one per ongoing avail (%d)", len(rows), len(ex.ongoing))
	}
	for i, r := range rows {
		switch {
		case r.AvailID != ex.ongoing[i]:
			return fmt.Errorf("fleet row %d is avail %d, want %d", i, r.AvailID, ex.ongoing[i])
		case r.Error != "" || r.Result == nil:
			return fmt.Errorf("fleet row for avail %d failed: %s", r.AvailID, r.Error)
		case r.Result.Stale && !ex.allowStale:
			return fmt.Errorf("fleet row for avail %d is stale", r.AvailID)
		case r.PredictionUnavailable:
			return fmt.Errorf("fleet row for avail %d has no prediction", r.AvailID)
		}
		if err := checkBand(r.PredictedDelay, r.BandLo, r.BandHi, r.ModelVersion, ex); err != nil {
			return fmt.Errorf("fleet row for avail %d: %w", r.AvailID, err)
		}
	}
	return nil
}

func checkIngest(status int, body []byte, o *op) error {
	want := http.StatusCreated
	if o.dup {
		want = http.StatusOK
	}
	if status != want {
		return fmt.Errorf("status %d, want %d: %.200s", status, want, body)
	}
	var b ingestBody
	if err := json.Unmarshal(body, &b); err != nil {
		return err
	}
	if b.ID != o.rcc.ID || b.Duplicate != o.dup {
		return fmt.Errorf("ack %+v for rcc %d (re-send %v)", b, o.rcc.ID, o.dup)
	}
	return nil
}

// rccJSON is the POST /rccs wire form of a record.
func rccJSON(r domain.RCC) ([]byte, error) {
	return json.Marshal(map[string]any{
		"id": r.ID, "avail_id": r.AvailID, "type": r.Type.String(),
		"swlin": swlin.Code(r.SWLIN).String(), "created": r.Created.String(),
		"settled": r.Settled.String(), "amount": r.Amount,
	})
}

func readPath(o *op) string {
	v := url.Values{}
	if o.route != "fleet" {
		v.Set("avail", fmt.Sprint(o.avail))
	}
	v.Set("date", o.date.String())
	return "/" + o.route + "?" + v.Encode()
}

// routeStats accumulates one route's outcomes on one client.
type routeStats struct {
	sent, ok, failed int
	lat              []float64 // ms, successful requests only
	bytes            int64
}

// recorder is one client's outcome log; clients never share one.
type recorder struct {
	routes   map[string]*routeStats
	failures []string // the first few failure reasons, for the run record
}

func newRecorder() *recorder { return &recorder{routes: map[string]*routeStats{}} }

func (r *recorder) route(name string) *routeStats {
	s := r.routes[name]
	if s == nil {
		s = &routeStats{}
		r.routes[name] = s
	}
	return s
}

func (r *recorder) fail(route string, err error) {
	r.route(route).failed++
	if len(r.failures) < 5 {
		r.failures = append(r.failures, fmt.Sprintf("%s: %v", route, err))
	}
}

func (r *recorder) merge(o *recorder) {
	for name, s := range o.routes {
		d := r.route(name)
		d.sent += s.sent
		d.ok += s.ok
		d.failed += s.failed
		d.lat = append(d.lat, s.lat...)
		d.bytes += s.bytes
	}
	for _, f := range o.failures {
		if len(r.failures) < 5 {
			r.failures = append(r.failures, f)
		}
	}
}

// send issues one op, checks the answer and records it. from is the
// instant latency is measured from: the send itself for closed loops,
// the due time for the open-loop writer. It reports whether the op
// succeeded.
func send(c *client, o *op, ex *expect, rec *recorder, from time.Time) bool {
	s := rec.route(o.route)
	s.sent++
	var (
		status int
		body   []byte
		err    error
	)
	if o.route == "ingest" {
		var payload []byte
		if payload, err = rccJSON(o.rcc); err == nil {
			status, body, err = c.do(http.MethodPost, "/rccs", o.key(), payload)
		}
	} else {
		status, body, err = c.do(http.MethodGet, readPath(o), "", nil)
	}
	elapsed := time.Since(from)
	if err == nil {
		switch {
		case o.route == "ingest":
			err = checkIngest(status, body, o)
		case status != http.StatusOK:
			err = fmt.Errorf("status %d: %.200s", status, body)
		case o.route == "query":
			err = checkQuery(body, o, ex)
		case o.route == "predict":
			_, err = checkPredict(body, o, ex)
		case o.route == "fleet":
			err = checkFleet(body, ex)
		}
	}
	if err != nil {
		rec.fail(o.route, err)
		return false
	}
	s.ok++
	s.lat = append(s.lat, float64(elapsed.Nanoseconds())/1e6)
	s.bytes += int64(len(body))
	return true
}
