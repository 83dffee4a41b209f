package server

import (
	"domd/internal/obs"
)

// Endpoint is one row of the API surface table: the single source of
// truth shared by the route mux (New registers exactly these patterns),
// the `domd serve -h` usage text (UsageText), and docs/OPERATIONS.md
// (whose cross-check script and the cmd/domd usage test both verify
// against this table, so the three cannot drift).
type Endpoint struct {
	// Method and Path form the mux pattern ("GET /query").
	Method string
	Path   string
	// Params documents the query parameters ("" when none).
	Params string
	// Doc is the one-line operator description.
	Doc string
}

// Endpoints returns the served API surface in presentation order.
func Endpoints() []Endpoint {
	return []Endpoint{
		{"GET", "/healthz", "", "liveness probe: 200 while the process is up (bypasses load shedding)"},
		{"GET", "/readyz", "", "readiness probe: per-shard health + replication lag JSON; 503 when unready or any shard is failed with no promotable replica (bypasses load shedding)"},
		{"GET", "/avails", "", "list every avail: id, ship, status, planned/actual dates, realized delay"},
		{"GET", "/query", "avail=ID&date=YYYY-MM-DD", "DoMD estimate for one avail from the active model version (routed window, trajectory, top drivers), with stale/asOf degraded-answer markers"},
		{"GET", "/fleet", "date=YYYY-MM-DD", "DoMD estimates for every ongoing avail, bounded-parallel, per-avail error isolation"},
		{"POST", "/query/batch", "", "many DoMD queries in one JSON body; one engine lookup per distinct avail, bounded-parallel, per-row error isolation"},
		{"GET", "/predict", "avail=ID&date=YYYY-MM-DD&alpha=0.1", "predicted delay with conformal band and model version; degraded answers carry prediction_unavailable, never a 5xx"},
		{"POST", "/predict", "", "many predictions in one JSON body; one engine lookup per distinct avail, bounded-parallel, per-row error isolation"},
		{"GET", "/models", "", "model registry listing: every manifest version with window coverage and artifact digests, plus the active version and any load error"},
		{"POST", "/models/reload", "", "hot-swap the model registry from -model-dir: atomic snapshot swap, in-flight requests finish on the old version, a failed load keeps the old version serving"},
		{"POST", "/rccs", "", "ingest one RCC JSON body; WAL-backed acknowledgment when serving durably (Idempotency-Key dedups retries)"},
		{"GET", "/metrics", "", "Prometheus text-format metrics; the full catalog is docs/OPERATIONS.md (bypasses load shedding)"},
	}
}

// UsageText renders the endpoint table for `domd serve -h` and other
// operator-facing help output.
func UsageText() string {
	out := "endpoints:\n"
	for _, e := range Endpoints() {
		pattern := e.Method + " " + e.Path
		if e.Params != "" {
			pattern += "?" + e.Params
		}
		out += "  " + pattern + "\n        " + e.Doc + "\n"
	}
	return out
}

// knownRoutes bounds the route label cardinality: every served path maps
// to itself, anything else (scans, typos) collapses to "other" so a URL
// fuzzer cannot mint unbounded metric series.
var knownRoutes = func() map[string]bool {
	m := make(map[string]bool, len(Endpoints()))
	for _, e := range Endpoints() {
		m[e.Path] = true
	}
	return m
}()

// routeLabel maps a request path to its bounded metric/trace label.
func routeLabel(path string) string {
	if knownRoutes[path] {
		return path
	}
	return "other"
}

// probeBypass reports whether the path must skip load shedding: a
// saturated server still answers its probes honestly and stays
// scrapeable, or operators lose exactly the signal that explains the
// saturation.
func probeBypass(path string) bool {
	return path == "/healthz" || path == "/readyz" || path == "/metrics"
}

// HTTP serving metrics (full catalog: docs/OPERATIONS.md).
var (
	mRequests = obs.NewCounterVec("domd_http_requests_total",
		"HTTP requests completed, by route, method, and status code.",
		"route", "method", "code")
	mLatency = obs.NewHistogramVec("domd_http_request_duration_seconds",
		"End-to-end request handling latency, by route.",
		obs.DefBuckets, "route")
	mInFlight = obs.NewGauge("domd_http_in_flight_requests",
		"Requests currently inside the handler stack.")
	mShed = obs.NewCounter("domd_http_shed_total",
		"Requests shed with 503 by the concurrency limiter.")
	mPanics = obs.NewCounter("domd_http_panics_total",
		"Handler panics recovered by the middleware (process kept serving).")
	mPredictUnavailable = obs.NewCounter("domd_predict_unavailable_total",
		"Estimates (/query, /query/batch and /predict answers, /fleet rows) answered prediction_unavailable (empty registry, failed load, or model failure) instead of a 5xx.")
)
