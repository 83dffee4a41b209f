package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"domd/internal/core"
	"domd/internal/domain"
	"domd/internal/features"
	"domd/internal/index"
	"domd/internal/modelserve"
	"domd/internal/server"
	"domd/internal/split"
	"domd/internal/statusq"
	"domd/internal/wal"
)

// The traced replay re-runs a workload's op sequence in one process by
// calling the serving packages' public functions — the ones the HTTP
// handlers call — with spans recorded around each layer. Fixed sizes keep
// its counts repeatable per seed.
const (
	replayReadOps   = 1300 // per closed-loop reader: 100 blocks of the read mix
	allocsPassOps   = 200  // per route in the allocation pass (fleet: a quarter)
	walAppendCount  = 1024 // appends timed on the benchmark's own log
	walPayloadBytes = 52   // a packed ingest record under a perfbench key
	reopenRounds    = 3
	// queryGap and queryTopN are `domd serve`'s grid gap (-gap default)
	// and the number of top drivers /query renders.
	queryGap  = 10
	queryTopN = 5
)

// span is one recorded interval. Shadow spans re-time work that happens
// inside a call the benchmark cannot open up (the feature vectors inside
// Registry.Predict); they run after the request's own timing has ended
// and are attributed to the call that did the work.
type span struct {
	Name   string `json:"name"`
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Req    int64  `json:"req"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Shadow bool   `json:"shadow,omitempty"`
}

// tracer keeps spans in memory until the run ends. A disabled tracer
// records nothing; wrapped calls still run.
type tracer struct {
	on    bool
	t0    time.Time
	ids   atomic.Int64
	mu    sync.Mutex
	spans []span
}

func (t *tracer) newID() int64 { return t.ids.Add(1) }

// do runs f inside a span named name and returns f's error.
func (t *tracer) do(name string, parent, req int64, f func(id int64) error) error {
	if !t.on {
		return f(0)
	}
	id := t.newID()
	start := time.Since(t.t0).Nanoseconds()
	err := f(id)
	end := time.Since(t.t0).Nanoseconds()
	t.add(span{Name: name, ID: id, Parent: parent, Req: req, Start: start, End: end})
	return err
}

func (t *tracer) add(s span) {
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// replayCatalog is the part of the serving catalog the handlers use.
type replayCatalog interface {
	EngineAsOf(id int) (*statusq.Engine, int64, bool, error)
}

// pass is one replay of the op sequence against a freshly opened catalog.
type pass struct {
	cat     replayCatalog
	ingest  func(key string, r domain.RCC) (bool, error)
	closeFn func() error
	tr      *tracer
	reqMs   map[string][]float64 // request durations by route
	mu      sync.Mutex
	errs    []string
}

type replay struct {
	r      *runner
	ext    *features.Extractor
	pipe   *core.Pipeline
	reg    *modelserve.Registry
	dir    string // scratch for the replay's WALs
	spans  string // where the traced pass's spans are written
	passes int
}

func newReplay(ctx context.Context, r *runner, spanDir string) (*replay, error) {
	rp := &replay{r: r, ext: features.NewExtractor(), dir: filepath.Join(r.work, "replay"), spans: spanDir}
	var err error
	if rp.reg, err = modelserve.Open(r.modelDir); err != nil {
		return nil, err
	}
	// The /query pipeline, trained the way `domd serve -trials 0` does.
	tensor, err := features.BuildTensor(rp.ext, r.data.avails, r.data.byAvail, queryGap, index.KindAVL)
	if err != nil {
		return nil, err
	}
	sp, err := split.Make(split.DefaultConfig(), tensor.Avails)
	if err != nil {
		return nil, err
	}
	cfg := core.DefaultConfig()
	cfg.HPTTrials = 0
	cfg.Seed = 1
	cfg.Workers = 1
	if rp.pipe, err = core.Train(cfg, tensor, sp.Train, sp.Val); err != nil {
		return nil, err
	}
	return rp, ctx.Err()
}

// durableOptions mirrors `domd serve`'s defaults for the workload's flags.
func (rp *replay) durableOptions() statusq.DurableOptions {
	return statusq.DurableOptions{
		WAL:          wal.Options{Policy: wal.SyncAlways, Every: 64},
		CompactEvery: 1024,
		Replicas:     rp.r.w.replicas,
		ReplMaxLag:   wal.DefaultReplMaxLag,
	}
}

// openCatalog opens the catalog type the workload's serve flags select.
func (rp *replay) openCatalog(dir string) (*pass, error) {
	d := rp.r.data
	p := &pass{reqMs: map[string][]float64{}}
	switch {
	case !rp.r.w.durable():
		cat, err := statusq.NewCatalog(d.avails, d.rccs, index.KindAVL)
		if err != nil {
			return nil, err
		}
		var mu sync.Mutex
		seen := map[string]bool{}
		p.cat, p.closeFn = cat, func() error { return nil }
		p.ingest = func(key string, r domain.RCC) (bool, error) { // as server.memIngester
			mu.Lock()
			defer mu.Unlock()
			if seen[key] {
				return true, nil
			}
			if err := cat.AddRCC(r); err != nil {
				return false, err
			}
			seen[key] = true
			return false, nil
		}
	default:
		sc, _, err := statusq.OpenSharded(dir, rp.r.w.shards, d.avails, d.rccs, index.KindAVL, rp.durableOptions())
		if err != nil {
			return nil, err
		}
		p.cat, p.ingest, p.closeFn = sc, sc.Ingest, sc.Close
	}
	return p, nil
}

// run performs the untraced and the traced pass, the allocation pass, the
// WAL append and reopen timings, and returns every per-layer metric.
func (rp *replay) run(ctx context.Context) (map[string]metricValue, error) {
	plain, err := rp.replayPass(ctx, false)
	if err != nil {
		return nil, err
	}
	traced, err := rp.replayPass(ctx, true)
	if err != nil {
		return nil, err
	}
	allocs, err := rp.allocsPass(ctx)
	if err != nil {
		return nil, err
	}
	appends, err := rp.walAppends(ctx)
	if err != nil {
		return nil, err
	}
	reopen, err := rp.reopen()
	if err != nil {
		return nil, err
	}
	if err := rp.writeSpans(traced.tr.spans); err != nil {
		return nil, err
	}
	for _, e := range append(plain.errs, traced.errs...) {
		rp.r.checks.fail("replay", errors.New(e))
	}
	vals := rp.layerValues(plain, traced, allocs, appends, reopen)
	out := map[string]metricValue{}
	for _, m := range perLayer {
		v, ok := vals[m.name]
		if !ok {
			return nil, fmt.Errorf("per-layer metric %s not computed", m.name)
		}
		out[m.name] = metricValue{v, m.unit}
	}
	return out, nil
}

// replayPass replays the workload's op sequence once against a fresh
// catalog, with spans on or off.
func (rp *replay) replayPass(ctx context.Context, traced bool) (*pass, error) {
	rp.passes++
	p, err := rp.openCatalog(filepath.Join(rp.dir, fmt.Sprintf("wal-%d", rp.passes)))
	if err != nil {
		return nil, err
	}
	defer func() {
		if err := p.closeFn(); err != nil {
			p.fail(err)
		}
	}()
	p.tr = &tracer{t0: time.Now()}
	rp.warmUp(p) // untraced, like the e2e warm-up
	p.tr.on = traced
	d := rp.r.data
	var wg sync.WaitGroup
	switch rp.r.w.name {
	case "dashboard":
		for i := 0; i < clients; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				s := newOpStream(d, rp.r.seed, i)
				for k := 0; k < replayReadOps && ctx.Err() == nil; k++ {
					o := s.nextRead()
					rp.request(p, &o)
				}
			}()
		}
	case "live-mix":
		var done atomic.Bool
		wg.Add(2)
		go func() {
			defer wg.Done()
			defer done.Store(true)
			s := newOpStream(d, rp.r.seed, 0)
			// The replay reads faster than the served run, so its
			// rollouts are spaced by reads, not by rolloutEvery.
			for k := 0; k < replayReadOps && ctx.Err() == nil; k++ {
				if k > 0 && k%(replayReadOps/4) == 0 {
					rp.rollout(p, k/(replayReadOps/4))
				}
				o := s.nextRead()
				rp.request(p, &o)
			}
		}()
		go func() {
			defer wg.Done()
			s := newOpStream(d, rp.r.seed, laneWriter)
			start := time.Now()
			for k := 0; !done.Load() && ctx.Err() == nil; k++ {
				time.Sleep(time.Until(start.Add(time.Duration(k) * time.Second / liveIngestRate)))
				o := s.nextIngestMix(k)
				rp.request(p, &o)
			}
		}()
	}
	wg.Wait()
	return p, ctx.Err()
}

func (p *pass) fail(err error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if len(p.errs) < 5 {
		p.errs = append(p.errs, err.Error())
	}
}

func (rp *replay) warmUp(p *pass) {
	d := rp.r.data
	rp.request(p, &op{route: "fleet", date: d.avail(d.fleetRef).PhysicalTime(50)})
	for _, id := range d.ongoing {
		at := d.avail(id).PhysicalTime(50)
		rp.request(p, &op{route: "query", avail: id, date: at})
		rp.request(p, &op{route: "predict", avail: id, date: at})
	}
}

// reqCtx is one replayed request: its id, and the shadow timings to run
// once its own timing has ended.
type reqCtx struct {
	id      int64
	mu      sync.Mutex
	shadows []func()
}

func (rc *reqCtx) after(f func()) {
	rc.mu.Lock()
	rc.shadows = append(rc.shadows, f)
	rc.mu.Unlock()
}

// request replays one op as the handler would serve it, timing it and,
// when tracing, recording its spans.
func (rp *replay) request(p *pass, o *op) {
	rc := &reqCtx{}
	if p.tr.on {
		rc.id = p.tr.newID()
	}
	start := time.Now()
	err := p.tr.do("req."+o.route, 0, rc.id, func(id int64) error {
		switch o.route {
		case "query":
			return rp.query(p, id, rc, o.avail, o.date)
		case "predict":
			return rp.predict(p, id, rc, o.avail, o.date)
		case "fleet":
			return rp.fleet(p, id, rc, o.date)
		case "ingest":
			return p.tr.do("statusq.ingest", id, rc.id, func(int64) error {
				dup, err := p.ingest(o.key(), o.rcc)
				if err == nil && dup != o.dup {
					err = fmt.Errorf("rcc %d: duplicate=%v, want %v", o.rcc.ID, dup, o.dup)
				}
				return err
			})
		}
		return fmt.Errorf("unknown route %q", o.route)
	})
	elapsed := ms(time.Since(start))
	for _, f := range rc.shadows {
		f()
	}
	if err != nil {
		p.fail(fmt.Errorf("%s: %w", o.route, err))
		return
	}
	p.mu.Lock()
	p.reqMs[o.route] = append(p.reqMs[o.route], elapsed)
	p.mu.Unlock()
}

func (rp *replay) engine(p *pass, parent int64, rc *reqCtx, id int) (eng *statusq.Engine, err error) {
	err = p.tr.do("statusq.engine", parent, rc.id, func(int64) error {
		eng, _, _, err = p.cat.EngineAsOf(id)
		return err
	})
	return eng, err
}

// query is GET /query: the calls core.QueryService.QueryEngine makes,
// each in its own span.
func (rp *replay) query(p *pass, parent int64, rc *reqCtx, id int, at domain.Day) error {
	eng, err := rp.engine(p, parent, rc, id)
	if err != nil {
		return err
	}
	return rp.renderQuery(p, parent, rc, eng, at)
}

func (rp *replay) renderQuery(p *pass, parent int64, rc *reqCtx, eng *statusq.Engine, at domain.Day) error {
	ts, err := eng.Avail().LogicalTime(at)
	if err != nil {
		return err
	}
	grid := rp.pipe.Timestamps()
	upto := 0
	for k, g := range grid {
		if g <= ts {
			upto = k
		}
	}
	fulls := make([][]float64, upto+1)
	for k := 0; k <= upto; k++ {
		if err := p.tr.do("features.vector", parent, rc.id, func(int64) error {
			fulls[k], err = rp.ext.Vector(eng, grid[k])
			return err
		}); err != nil {
			return err
		}
	}
	if err := p.tr.do("core.trajectory", parent, rc.id, func(int64) error {
		_, _, err := rp.pipe.Trajectory(fulls, upto)
		return err
	}); err != nil {
		return err
	}
	return p.tr.do("core.top_features", parent, rc.id, func(int64) error {
		drivers, err := rp.pipe.TopFeatures(upto, fulls[upto], queryTopN)
		for _, d := range drivers {
			_, _ = features.Describe(d.Name) //lint:ignore droppederr the server renders an empty description on error, as here
		}
		return err
	})
}

// predict is GET /predict.
func (rp *replay) predict(p *pass, parent int64, rc *reqCtx, id int, at domain.Day) error {
	eng, err := rp.engine(p, parent, rc, id)
	if err != nil {
		return err
	}
	return rp.predictEngine(p, parent, rc, eng, at)
}

// predictEngine is Registry.Predict on a resolved engine, for /predict
// and each /fleet row. The feature vectors Predict computes inside itself
// are re-timed afterwards as shadow spans.
func (rp *replay) predictEngine(p *pass, parent int64, rc *reqCtx, eng *statusq.Engine, at domain.Day) error {
	var pred *modelserve.Prediction
	var predID int64
	err := p.tr.do("modelserve.predict", parent, rc.id, func(id int64) error {
		predID = id
		var err error
		pred, err = rp.reg.Predict(eng, at, 0)
		return err
	})
	if err != nil || !p.tr.on {
		return err
	}
	ts, err := eng.Avail().LogicalTime(at)
	if err != nil {
		return err
	}
	var grid []float64
	for _, g := range rp.pipe.Timestamps() {
		if pred.Window.Contains(g) {
			grid = append(grid, g)
		}
	}
	upto := 0
	for k, g := range grid {
		if g <= ts {
			upto = k
		}
	}
	rc.after(func() {
		for k := 0; k <= upto; k++ {
			start := time.Since(p.tr.t0).Nanoseconds()
			if _, err := rp.ext.Vector(eng, grid[k]); err != nil {
				p.fail(err)
				return
			}
			p.tr.add(span{Name: "features.vector", ID: p.tr.newID(), Parent: predID, Req: rc.id,
				Start: start, End: time.Since(p.tr.t0).Nanoseconds(), Shadow: true})
		}
	})
	return nil
}

// fleet is GET /fleet: every ongoing avail, fanned out as wide as the
// server's default, each row a query render plus a prediction on the
// same engine.
func (rp *replay) fleet(p *pass, parent int64, rc *reqCtx, at domain.Day) error {
	ids := rp.r.data.ongoing
	sem := make(chan struct{}, server.DefaultFleetParallelism)
	errs := make([]error, len(ids))
	var wg sync.WaitGroup
	for i, id := range ids {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			eng, err := rp.engine(p, parent, rc, id)
			if err == nil {
				err = rp.renderQuery(p, parent, rc, eng, at)
			}
			if err == nil {
				err = rp.predictEngine(p, parent, rc, eng, at)
			}
			errs[i] = err
		}()
	}
	wg.Wait()
	return errors.Join(errs...)
}

// rollout is the in-process model rollout: clone the active version in
// the manifest and Registry.Reload.
func (rp *replay) rollout(p *pass, n int) {
	req := int64(0)
	if p.tr.on {
		req = p.tr.newID()
	}
	err := p.tr.do("req.reload", 0, req, func(id int64) error {
		man, err := modelserve.ReadManifest(rp.r.modelDir)
		if err != nil {
			return err
		}
		src, ok := man.Version(man.Active)
		if !ok {
			return fmt.Errorf("active version %q not listed", man.Active)
		}
		clone := *src
		clone.Version = fmt.Sprintf("%s-replay%d-%d", man.Versions[0].Version, rp.passes, n)
		man.Versions = append(man.Versions, clone)
		man.Active = clone.Version
		if err := man.Write(rp.r.modelDir); err != nil {
			return err
		}
		return p.tr.do("modelserve.reload", id, req, func(int64) error {
			rep, err := rp.reg.Reload()
			if err == nil && !rep.Swapped {
				err = fmt.Errorf("reload to %s did not swap", clone.Version)
			}
			return err
		})
	})
	if err != nil {
		p.fail(fmt.Errorf("reload: %w", err))
	}
}

// allocsPass counts heap allocations per op of each route, one route at
// a time on one goroutine, with spans off.
func (rp *replay) allocsPass(ctx context.Context) (map[string]float64, error) {
	rp.passes++
	p, err := rp.openCatalog(filepath.Join(rp.dir, fmt.Sprintf("wal-%d", rp.passes)))
	if err != nil {
		return nil, err
	}
	defer func() {
		if err := p.closeFn(); err != nil {
			p.fail(err)
		}
	}()
	p.tr = &tracer{}
	rp.warmUp(p)
	out := map[string]float64{}
	for _, route := range []string{"query", "predict", "fleet", "ingest"} {
		n := allocsPassOps
		if route == "fleet" {
			n /= 4
		}
		s := newOpStream(rp.r.data, rp.r.seed, laneAllocsPass)
		ops := make([]op, n)
		for i := range ops {
			ops[i] = s.nextRoute(route)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := range ops {
			rp.request(p, &ops[i])
		}
		runtime.ReadMemStats(&after)
		out[route] = float64(after.Mallocs-before.Mallocs) / float64(n)
	}
	if len(p.errs) > 0 {
		return nil, fmt.Errorf("allocation pass: %s", strings.Join(p.errs, "; "))
	}
	return out, ctx.Err()
}

// walAppends times walAppendCount appends, one writer as in live-mix, on a
// replicated log the benchmark opens itself with the workload's policy
// and replica count.
func (rp *replay) walAppends(ctx context.Context) ([]float64, error) {
	w := rp.r.w
	if !w.durable() {
		return nil, nil
	}
	dirs := wal.ReplicaDirs(filepath.Join(rp.dir, "wal-append"), w.replicas)
	l, _, _, err := wal.OpenReplicated(dirs, wal.ReplicatedOptions{Log: wal.Options{Policy: wal.SyncAlways, Every: 64}})
	if err != nil {
		return nil, err
	}
	payload := []byte("B" + strings.Repeat("A", walPayloadBytes-1))
	var lat []float64
	for k := 0; k < walAppendCount && ctx.Err() == nil; k++ {
		start := time.Now()
		if _, err := l.Append(payload); err != nil {
			l.Close() //lint:ignore droppederr best-effort close; the append failure is returned
			return nil, fmt.Errorf("wal append: %w", err)
		}
		lat = append(lat, ms(time.Since(start)))
	}
	if err := l.Close(); err != nil {
		return nil, err
	}
	return lat, ctx.Err()
}

// reopen times opening the end-to-end run's WAL root (a copy of it) the
// way `domd serve` does at restart; the median of reopenRounds.
func (rp *replay) reopen() (float64, error) {
	w := rp.r.w
	if !w.durable() {
		return 0, nil
	}
	d := rp.r.data
	var times []float64
	for i := 0; i < reopenRounds; i++ {
		dst := filepath.Join(rp.dir, fmt.Sprintf("reopen-%d", i))
		if err := copyDir(dst, rp.r.walRoot); err != nil {
			return 0, err
		}
		start := time.Now()
		sc, _, err := statusq.OpenSharded(dst, w.shards, d.avails, d.rccs, index.KindAVL, rp.durableOptions())
		if err != nil {
			return 0, err
		}
		times = append(times, ms(time.Since(start)))
		if err := sc.Close(); err != nil {
			return 0, err
		}
		if err := os.RemoveAll(dst); err != nil {
			return 0, err
		}
	}
	return median(times), nil
}

func (rp *replay) writeSpans(spans []span) error {
	if err := os.MkdirAll(rp.spans, 0o755); err != nil {
		return err
	}
	path := filepath.Join(rp.spans, fmt.Sprintf("%s-seed%d.jsonl", rp.r.w.name, rp.r.seed))
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for i := range spans {
		if err := enc.Encode(&spans[i]); err != nil {
			f.Close() //lint:ignore droppederr best-effort close; the encode failure is returned
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close() //lint:ignore droppederr best-effort close; the flush failure is returned
		return err
	}
	return f.Close()
}

// layerValues folds the passes, the e2e run's scrapes and the WAL timings
// into the per-layer metrics.
func (rp *replay) layerValues(plain, traced *pass, allocs map[string]float64, appends []float64, reopen float64) map[string]float64 {
	r := rp.r
	vals := map[string]float64{}
	a := summarize(traced.tr.spans)

	all := r.measured
	for _, route := range []string{"query", "predict", "fleet", "ingest"} {
		e2eMean := 0.0
		if s := all.routes[route]; s != nil {
			e2eMean = mean(s.lat)
		}
		vals["server.self_ms."+route] = e2eMean - mean(plain.reqMs[route])
		vals["runtime.allocs_per_op."+route] = allocs[route]
	}
	for _, route := range []string{"query", "predict", "fleet"} {
		if s := all.routes[route]; s != nil && s.ok > 0 {
			vals["server.resp_bytes."+route] = float64(s.bytes) / float64(s.ok)
		}
		vals["features.vectors_per_op."+route] = a.perReq("req."+route, "features.vector")
		vals["features.share."+route] = a.share("req."+route, "features.vector")
	}
	delta := func(family string) float64 { return counterDelta(r.before, r.after, family) }
	vals["server.shed"] = delta("domd_http_shed_total")
	builds, hits := delta("domd_engine_builds_total"), delta("domd_engine_cache_hits_total")
	vals["statusq.engine_builds"] = builds
	vals["statusq.delta_applies"] = delta("domd_engine_delta_applies_total")
	vals["statusq.delta_fallbacks"] = delta("domd_engine_delta_fallbacks_total")
	vals["statusq.stale_serves"] = delta("domd_engine_stale_serves_total")
	if hits+builds > 0 {
		vals["statusq.engine_hit_ratio"] = hits / (hits + builds)
	}
	vals["modelserve.swaps"] = delta("domd_model_swaps_total")

	vals["statusq.engine_ms"], vals["statusq.engine_p99_ms"] = a.meanP99("statusq.engine")
	vals["statusq.ingest_ms"], vals["statusq.ingest_p99_ms"] = a.meanP99("statusq.ingest")
	vals["statusq.reopen_ms"] = reopen
	vecMs, _ := a.meanP99("features.vector")
	vals["features.vector_us"] = vecMs * 1000
	trajMs, _ := a.meanP99("core.trajectory")
	topMs, _ := a.meanP99("core.top_features")
	vals["core.trajectory_us"], vals["core.top_features_us"] = trajMs*1000, topMs*1000
	vals["core.share.query"] = a.share("req.query", "core.trajectory", "core.top_features")
	vals["modelserve.predict_ms"], vals["modelserve.predict_p99_ms"] = a.meanP99("modelserve.predict")
	vals["modelserve.reload_ms"], _ = a.meanP99("modelserve.reload")

	sort.Float64s(appends)
	vals["wal.append_ms"] = mean(appends)
	vals["wal.append_p99_ms"], _ = percentile(appends, 0.99)
	vals["wal.bytes_per_rcc"] = 0
	if r.w.durable() {
		acked := int64(0)
		for _, n := range r.acks {
			acked += n.Load()
		}
		if acked > 0 {
			vals["wal.bytes_per_rcc"] = float64(dirBytes(r.walRoot)) / float64(acked)
		}
	}
	vals["loadgen.late_p99_ms"], vals["loadgen.late_max_ms"] = r.lateness()
	var plainTotal, tracedTotal float64
	for route, xs := range plain.reqMs {
		if ys := traced.reqMs[route]; len(xs) > 0 && len(ys) > 0 {
			w := float64(len(xs))
			plainTotal += mean(xs) * w
			tracedTotal += mean(ys) * w
		}
	}
	if plainTotal > 0 {
		vals["trace.overhead_pct"] = (tracedTotal/plainTotal - 1) * 100
	}
	for _, m := range perLayer {
		if _, ok := vals[m.name]; !ok {
			vals[m.name] = 0
		}
	}
	return vals
}

// copyDir copies a directory tree of regular files.
func copyDir(dst, src string) error {
	return filepath.WalkDir(src, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		target := filepath.Join(dst, rel)
		if d.IsDir() {
			return os.MkdirAll(target, 0o755)
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return os.WriteFile(target, b, 0o644)
	})
}

func dirBytes(root string) int64 {
	var total int64
	//lint:ignore droppederr a file that vanishes mid-walk simply adds nothing
	_ = filepath.WalkDir(root, func(_ string, d os.DirEntry, err error) error {
		if err == nil && !d.IsDir() {
			if info, err := d.Info(); err == nil {
				total += info.Size()
			}
		}
		return nil
	})
	return total
}

// spanSummary indexes a traced pass's spans for the per-layer folds.
type spanSummary struct {
	byName   map[string][]span
	children map[int64][]span  // non-shadow children by parent id
	shadows  map[int64][]span  // shadow spans by request id
	reqs     map[string][]span // request roots by name
}

func summarize(spans []span) *spanSummary {
	a := &spanSummary{byName: map[string][]span{}, children: map[int64][]span{},
		shadows: map[int64][]span{}, reqs: map[string][]span{}}
	for _, s := range spans {
		a.byName[s.Name] = append(a.byName[s.Name], s)
		switch {
		case s.Shadow:
			a.shadows[s.Req] = append(a.shadows[s.Req], s)
		case s.Parent == 0:
			a.reqs[s.Name] = append(a.reqs[s.Name], s)
		default:
			a.children[s.Parent] = append(a.children[s.Parent], s)
		}
	}
	return a
}

// meanP99 is the mean and p99 duration of every span named name, in ms.
func (a *spanSummary) meanP99(name string) (float64, float64) {
	var d []float64
	for _, s := range a.byName[name] {
		d = append(d, float64(s.End-s.Start)/1e6)
	}
	sort.Float64s(d)
	p99, _ := percentile(d, 0.99)
	return mean(d), p99
}

// work is the busy time of one request tree: the sum of every span's
// self time. With the /fleet fan-out this exceeds the wall time.
func (a *spanSummary) work(s span) int64 {
	kids := a.children[s.ID]
	ivs := make([]interval, len(kids))
	for i, k := range kids {
		ivs[i] = interval{k.Start, k.End}
	}
	total := selfTime(interval{s.Start, s.End}, ivs)
	for _, k := range kids {
		total += a.work(k)
	}
	return total
}

// layerTime sums the durations of named spans in one request tree,
// shadow spans included.
func (a *spanSummary) layerTime(s span, names ...string) int64 {
	var total int64
	match := func(n string) bool {
		for _, x := range names {
			if n == x {
				return true
			}
		}
		return false
	}
	var walk func(s span)
	walk = func(s span) {
		for _, k := range a.children[s.ID] {
			if match(k.Name) {
				total += k.End - k.Start
			}
			walk(k)
		}
	}
	walk(s)
	for _, sh := range a.shadows[s.Req] {
		if match(sh.Name) {
			total += sh.End - sh.Start
		}
	}
	return total
}

// share is the fraction of a route's busy time spent in the named spans.
func (a *spanSummary) share(req string, names ...string) float64 {
	var layer, work int64
	for _, s := range a.reqs[req] {
		layer += a.layerTime(s, names...)
		work += a.work(s)
	}
	if work == 0 {
		return 0
	}
	return float64(layer) / float64(work)
}

// perReq counts named spans per request of a route.
func (a *spanSummary) perReq(req, name string) float64 {
	roots := a.reqs[req]
	if len(roots) == 0 {
		return 0
	}
	n := 0
	for _, s := range roots {
		var walk func(s span)
		walk = func(s span) {
			for _, k := range a.children[s.ID] {
				if k.Name == name {
					n++
				}
				walk(k)
			}
		}
		walk(s)
		for _, sh := range a.shadows[s.Req] {
			if sh.Name == name {
				n++
			}
		}
	}
	return float64(n) / float64(len(roots))
}
