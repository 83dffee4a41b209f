package server

import (
	"fmt"
	"net/http"
	"strconv"

	"domd/internal/obs"
)

// The /predict rendering and the POST /predict, /models, and
// /models/reload handlers: the serving face of internal/modelserve. Read-path degradation mirrors /query and /fleet —
// an empty or broken model registry annotates answers instead of failing
// them; only the admin write path (/models/reload) may 5xx.

// windowView is the trained logical-time window a prediction came from.
type windowView struct {
	Lo float64 `json:"lo"`
	Hi float64 `json:"hi"`
}

// predictRow is the /predict response (and one POST /predict row). The
// prediction fields are pointers so an unavailable answer omits them
// instead of serving zeros; Stale and AsOf are the same engine
// provenance markers as /query.
type predictRow struct {
	AvailID               int         `json:"avail_id"`
	At                    string      `json:"at"`
	LogicalTime           float64     `json:"t_star"`
	PredictedDelay        *float64    `json:"predicted_delay,omitempty"`
	BandLo                *float64    `json:"band_lo,omitempty"`
	BandHi                *float64    `json:"band_hi,omitempty"`
	Alpha                 float64     `json:"alpha,omitempty"`
	ModelVersion          string      `json:"model_version,omitempty"`
	Window                *windowView `json:"window,omitempty"`
	WindowFallback        bool        `json:"window_fallback,omitempty"`
	PredictionUnavailable bool        `json:"prediction_unavailable,omitempty"`
	UnavailableReason     string      `json:"unavailable_reason,omitempty"`
	Stale                 bool        `json:"stale"`
	AsOf                  int64       `json:"asOf"`
}

// predictRow shapes an answer as a /predict row.
func (ans *answer) predictRow() *predictRow {
	row := &predictRow{AvailID: ans.availID, At: ans.at.String(), LogicalTime: ans.ts, Stale: ans.stale, AsOf: ans.asOf}
	p := ans.pred
	if p == nil {
		row.PredictionUnavailable = true
		row.UnavailableReason = ans.reason
		return row
	}
	row.PredictedDelay = &p.Delay
	row.BandLo = &p.Lo
	row.BandHi = &p.Hi
	row.Alpha = p.Alpha
	row.ModelVersion = p.Version
	row.Window = &windowView{Lo: p.Window.Lo, Hi: p.Window.Hi}
	row.WindowFallback = p.WindowFallback
	return row
}

// parseAlpha reads an optional ?alpha= parameter; absent defers to the
// server default (Options.PredictAlpha, else the model version's level).
func (s *Server) parseAlpha(r *http.Request) (float64, error) {
	raw := r.URL.Query().Get("alpha")
	if raw == "" {
		return s.alpha, nil
	}
	alpha, err := strconv.ParseFloat(raw, 64)
	if err != nil || alpha <= 0 || alpha >= 1 {
		return 0, fmt.Errorf("alpha must be a number in (0,1), got %q", raw)
	}
	return alpha, nil
}

// predictBatchIn is the POST /predict request body; Alpha <= 0 defers to
// the server default.
type predictBatchIn struct {
	Queries []batchQueryIn `json:"queries"`
	Alpha   float64        `json:"alpha,omitempty"`
}

// predictBatchRow is one POST /predict result, request order; failures
// carry an error message so one bad entry doesn't fail the batch.
type predictBatchRow struct {
	AvailID int         `json:"avail_id"`
	Result  *predictRow `json:"result,omitempty"`
	Error   string      `json:"error,omitempty"`
}

// handlePredictBatch is POST /predict: many predictions in one request,
// with the /query/batch amortization (see answerBatch) and status
// contract — 400 malformed or empty body, 413 oversized, 422 over
// MaxBatchQueries or bad alpha, 200 with per-row errors inline.
func (s *Server) handlePredictBatch(w http.ResponseWriter, r *http.Request) {
	var in predictBatchIn
	if !s.decodeBody(w, r, &in) || !s.checkBatchSize(w, r, len(in.Queries)) {
		return
	}
	alpha := in.Alpha
	if alpha == 0 { //lint:ignore floateq exactly zero is the JSON omitted-field sentinel
		alpha = s.alpha
	}
	if alpha < 0 || alpha >= 1 {
		s.writeErr(w, r, http.StatusUnprocessableEntity, fmt.Errorf("alpha must lie in (0,1), got %g", in.Alpha))
		return
	}
	answers, errs := s.answerBatch(r.Context(), in.Queries, alpha, false)
	rows := make([]predictBatchRow, len(in.Queries))
	for i, q := range in.Queries {
		rows[i] = predictBatchRow{AvailID: q.Avail, Error: errs[i]}
		if answers[i] != nil {
			rows[i].Result = answers[i].predictRow()
		}
	}
	s.writeJSON(w, r, http.StatusOK, rows)
}

// handleModels is GET /models: the registry listing operators check
// before and after a rollout. Always 200 — an empty or degraded registry
// is a fact to report (no active version, load_error), not a failure.
func (s *Server) handleModels(w http.ResponseWriter, r *http.Request) {
	s.writeJSON(w, r, http.StatusOK, s.models.RegistryStatus())
}

// reloadView is the POST /models/reload acknowledgment.
type reloadView struct {
	Active   string `json:"active,omitempty"`
	Swapped  bool   `json:"swapped"`
	Versions int    `json:"versions"`
	Windows  int    `json:"windows"`
	Error    string `json:"error,omitempty"`
}

// handleModelsReload is POST /models/reload, the hot-swap trigger: 200
// with the swap report on success (swapped:false when the manifest still
// names the serving version), 503 when the reload failed — the previous
// version keeps serving, so a bad rollout degrades the admin path, never
// the read path.
func (s *Server) handleModelsReload(w http.ResponseWriter, r *http.Request) {
	rep, err := s.models.Reload()
	view := reloadView{Active: rep.Active, Swapped: rep.Swapped, Versions: rep.Versions, Windows: rep.Windows}
	if sp := obs.FromContext(r.Context()); sp != nil {
		sp.SetBool("swapped", rep.Swapped)
		if rep.Active != "" {
			sp.Set("model", rep.Active)
		}
	}
	if err != nil {
		view.Error = err.Error()
		s.writeJSON(w, r, http.StatusServiceUnavailable, view)
		return
	}
	s.writeJSON(w, r, http.StatusOK, view)
}
