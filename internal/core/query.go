package core

import (
	"fmt"

	"domd/internal/domain"
	"domd/internal/features"
	"domd/internal/index"
	"domd/internal/statusq"
)

// QueryService answers DoMD Queries (Problem 1) against a trained Pipeline:
// given an avail (ongoing or future), its RCC history, and a physical
// timestamp t, it produces delay estimates at every grid point of planned
// duration from 0% up to the avail's current logical time.
type QueryService struct {
	pipeline *Pipeline
	ext      *features.Extractor
	kind     index.Kind
}

// NewQueryService wires a trained pipeline to the feature extractor it was
// trained with. kind selects the Status Query index backend.
func NewQueryService(p *Pipeline, ext *features.Extractor, kind index.Kind) *QueryService {
	return &QueryService{pipeline: p, ext: ext, kind: kind}
}

// Estimate is one point of the DoMD trajectory.
type Estimate struct {
	// Timestamp is the logical time t* (percent of planned duration).
	Timestamp float64
	// Raw is the per-timestamp model's estimate; Fused folds in all
	// estimates up to this timestamp with the pipeline's fusion method.
	Raw, Fused float64
}

// Result is the answer to one DoMD query.
type Result struct {
	AvailID int
	// At is the physical query date; LogicalTime its t* (may exceed 100
	// when the avail is running past plan — estimates stop at 100).
	At          domain.Day
	LogicalTime float64
	// Estimates cover grid points 0 … min(t*, 100).
	Estimates []Estimate
	// TopDrivers are the §5.2.5 top-5 contributing features at the most
	// recent grid point.
	TopDrivers []Attribution
}

// Final returns the latest fused estimate.
func (r *Result) Final() float64 {
	if len(r.Estimates) == 0 {
		return 0
	}
	return r.Estimates[len(r.Estimates)-1].Fused
}

// Query answers a DoMD query at physical time at, building a throwaway
// engine over the given RCC history — the one-shot CLI/example path. The
// avail must have started (t* >= 0); only RCC history up to the query time
// influences the estimates (later RCCs are invisible to earlier grid
// points by construction of the Status Query predicates).
//
// Serving tiers answering repeated queries should not pay this per-call
// re-index: build (or cache) the engine once — e.g. via statusq.Catalog —
// and call QueryEngine.
func (s *QueryService) Query(a *domain.Avail, rccs []domain.RCC, at domain.Day) (*Result, error) {
	eng, err := statusq.NewEngine(a, rccs, s.kind)
	if err != nil {
		return nil, err
	}
	return s.QueryEngine(eng, at)
}

// QueryEngine answers a DoMD query against a prebuilt Status Query engine.
// The engine is read-only here, so one engine may be shared by any number
// of concurrent QueryEngine calls (see the index.TimeIndex concurrency
// contract).
func (s *QueryService) QueryEngine(eng *statusq.Engine, at domain.Day) (*Result, error) {
	a := eng.Avail()
	ts, err := a.LogicalTime(at)
	if err != nil {
		return nil, err
	}
	if ts < 0 {
		return nil, fmt.Errorf("core: avail %d has not started at %v (t* = %.1f%%)", a.ID, at, ts)
	}
	w, err := WalkEngine(s.pipeline, s.ext, eng, ts)
	if err != nil {
		return nil, err
	}
	res := &Result{AvailID: a.ID, At: at, LogicalTime: ts, Estimates: w.Estimates()}
	if res.TopDrivers, err = w.TopDrivers(NumTopDrivers); err != nil {
		return nil, err
	}
	return res, nil
}

// NumTopDrivers is how many §5.2.5 contributing features a query answer
// lists.
const NumTopDrivers = 5

// Walk is one avail's estimate trajectory under a pipeline: the grid slots
// up to t*, the full feature vector observed at each, and the raw and
// fused estimates. Every estimate the framework serves is computed by
// WalkEngine, so a query answer and a prediction at the same (engine, t*)
// and pipeline share one feature extraction and agree bit for bit.
type Walk struct {
	pipe *Pipeline
	// Upto indexes the last slot walked: the latest grid timestamp at or
	// before t*, or slot 0 when t* precedes the whole grid.
	Upto int
	// Grid holds the walked timestamps, Fulls the feature vector at each
	// (shared with the engine's trajectory cache: read-only), and Raw and
	// Fused the estimates (see Pipeline.Trajectory); all have Upto+1
	// entries.
	Grid       []float64
	Fulls      [][]float64
	Raw, Fused []float64
	// AsOf is the engine revision (RCCs folded in) every vector of the
	// walk was computed at: one revision, even when ingests land
	// mid-walk.
	AsOf int64
}

// WalkEngine walks pipeline p's grid over a Status Query engine up to
// logical time ts: it reads the feature vector at every slot up to ts
// from the engine's cached trajectory (features.Extractor.Trajectory)
// and runs the trajectory through them. The engine is only read.
func WalkEngine(p *Pipeline, ext *features.Extractor, eng *statusq.Engine, ts float64) (*Walk, error) {
	grid := p.Timestamps()
	upto := 0
	for k, g := range grid {
		if g <= ts {
			upto = k
		}
	}
	w := &Walk{pipe: p, Upto: upto, Grid: grid[:upto+1]}
	var err error
	if w.Fulls, w.AsOf, err = ext.Trajectory(eng, w.Grid); err != nil {
		return nil, err
	}
	if w.Raw, w.Fused, err = p.Trajectory(w.Fulls, upto); err != nil {
		return nil, err
	}
	return w, nil
}

// Estimates lists the walk's trajectory points in grid order.
func (w *Walk) Estimates() []Estimate {
	out := make([]Estimate, len(w.Grid))
	for k, ts := range w.Grid {
		out[k] = Estimate{Timestamp: ts, Raw: w.Raw[k], Fused: w.Fused[k]}
	}
	return out
}

// TopDrivers explains the walk's latest estimate: the n features with the
// highest importance × |z| scores at the last walked slot.
func (w *Walk) TopDrivers(n int) ([]Attribution, error) {
	return w.pipe.TopFeatures(w.Upto, w.Fulls[w.Upto], n)
}
