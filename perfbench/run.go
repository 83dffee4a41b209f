package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"domd/internal/domain"
	"domd/internal/index"
	"domd/internal/modelserve"
	"domd/internal/statusq"
)

// runner holds one benchmark run's state.
type runner struct {
	w        *workload
	seed     int64
	seconds  int
	domd     string
	work     string
	data     *dataset
	modelDir string
	walRoot  string
	versions versionSet

	live *serveProc // the serving process, killed on every exit path

	// acks counts acknowledged non-duplicate ingests per avail;
	// ackOrder lists them in acknowledgment order (exact only with a
	// single writer, which is when it is used).
	acks     map[int]*atomic.Int64
	ackOrder []domain.RCC

	checks   *recorder // probe, read-your-acks and restart checks
	measured *recorder // the measured window
	elapsed  time.Duration

	setups  []float64
	trains  []float64
	recover float64
	rssMB   float64
	lateMs  []float64 // live-mix: send − due per writer op

	before, after map[string]float64 // /metrics around the measured window
}

func newRunner(w *workload, seed int64, seconds int, domd, work string) *runner {
	return &runner{
		w: w, seed: seed, seconds: seconds, domd: domd, work: work,
		modelDir: filepath.Join(work, "models"),
		checks:   newRecorder(), measured: newRecorder(),
	}
}

func (r *runner) close() {
	if r.live != nil {
		r.live.kill()
		r.live = nil
	}
}

func (r *runner) serveArgs(walDir string) []string {
	args := []string{"-avails", r.data.availsPath, "-rccs", r.data.rccsPath,
		"-model-dir", r.modelDir, "-trials", "0"}
	return append(args, r.w.serveFlags(walDir)...)
}

func (r *runner) expect() *expect {
	return &expect{versions: &r.versions, ongoing: r.data.ongoing}
}

// run performs the untraced end-to-end run: inputs, train, setup,
// start-of-run checks, the measured window, and the crash-restart check.
func (r *runner) run(ctx context.Context) error {
	var err error
	if r.data, err = makeData(filepath.Join(r.work, "data"), r.seed, r.w.rccScale); err != nil {
		return fmt.Errorf("generate inputs: %w", err)
	}
	r.acks = map[int]*atomic.Int64{}
	for _, id := range r.data.ongoing {
		r.acks[id] = &atomic.Int64{}
	}
	if err := r.prepare(ctx); err != nil {
		return err
	}
	c := newClient(r.live.base)
	defer c.close()
	if err := r.predictProbe(c, nil); err != nil {
		return err
	}
	if r.before, err = c.scrape(); err != nil {
		return err
	}
	switch r.w.name {
	case "dashboard":
		err = r.readPhase(ctx)
	case "live-mix":
		err = r.livePhase(ctx)
	}
	if err != nil {
		return err
	}
	if r.after, err = c.scrape(); err != nil {
		return err
	}
	if r.rssMB, err = r.live.peakRSSMB(); err != nil {
		return err
	}
	if r.w.name == "live-mix" {
		if err := r.predictProbe(c, r.ackOrder); err != nil {
			return err
		}
	}
	if err := r.restart(ctx); err != nil {
		return err
	}
	r.live.stop()
	r.live = nil
	return nil
}

// prepare alternates prepRounds runs of `domd train` with as many server
// starts, so both medians are taken over the same stretch of the run and
// a slow spell of the host lands in some rounds of each rather than in
// all rounds of one. The last server serves the run.
func (r *runner) prepare(ctx context.Context) error {
	for i := 0; i < prepRounds; i++ {
		t, err := r.train(ctx)
		if err != nil {
			return err
		}
		r.trains = append(r.trains, t)
		man, err := modelserve.ReadManifest(r.modelDir)
		if err != nil {
			return err
		}
		if man.Active == "" || len(man.Versions) != 1 || (i > 0 && !r.versions.has(man.Active)) {
			return fmt.Errorf("domd train round %d left %d versions, active %q; want the one version of every round", i, len(man.Versions), man.Active)
		}
		r.versions.add(man.Active)
		if err := r.setup(ctx, i); err != nil {
			return err
		}
	}
	return nil
}

// train runs `domd train` into the model directory and returns its wall
// time. Training is deterministic, so every round publishes the same
// version.
func (r *runner) train(ctx context.Context) (float64, error) {
	start := time.Now()
	out, err := exec.CommandContext(ctx, r.domd, "train", "-avails", r.data.availsPath,
		"-rccs", r.data.rccsPath, "-model-dir", r.modelDir, "-trials", "0").CombinedOutput()
	if err != nil {
		return 0, fmt.Errorf("domd train: %v: %s", err, out)
	}
	return time.Since(start).Seconds(), nil
}

// setup starts round i's server on a fresh WAL root, timing exec to
// /readyz 200 plus the warm-up. Every server but the last round's is
// stopped again.
func (r *runner) setup(ctx context.Context, i int) error {
	walDir := filepath.Join(r.work, fmt.Sprintf("wal-%d", i))
	start := time.Now()
	s, err := startServer(r.domd, r.serveArgs(walDir), filepath.Join(r.work, fmt.Sprintf("serve-%d.log", i)))
	if err != nil {
		return err
	}
	r.live = s
	if err := s.waitReady(ctx, 150*time.Second); err != nil {
		return err
	}
	if err := r.warmUp(); err != nil {
		return err
	}
	r.setups = append(r.setups, time.Since(start).Seconds())
	if i < prepRounds-1 {
		s.stop()
		r.live = nil
		return os.RemoveAll(walDir)
	}
	r.walRoot = walDir
	return nil
}

// warmUp sends one /fleet, then one /query and one /predict per ongoing
// avail, so every engine is built before anything is measured.
func (r *runner) warmUp() error {
	c := newClient(r.live.base)
	defer c.close()
	rec := newRecorder()
	ex := r.expect()
	fleet := op{route: "fleet", date: r.data.avail(r.data.fleetRef).PhysicalTime(50)}
	send(c, &fleet, ex, rec, time.Now())
	for _, id := range r.data.ongoing {
		at := r.data.avail(id).PhysicalTime(50)
		send(c, &op{route: "query", avail: id, date: at}, ex, rec, time.Now())
		send(c, &op{route: "predict", avail: id, date: at}, ex, rec, time.Now())
	}
	if len(rec.failures) > 0 {
		return fmt.Errorf("warm-up: %v", rec.failures)
	}
	return nil
}

// probeTStars is the fixed /predict probe set per ongoing avail.
var probeTStars = []float64{25, 50, 75, 90}

// predictProbe checks that the server's /predict answers are bitwise the
// in-process Registry.Predict over an engine built from the CSVs plus
// the acknowledged RCCs in acknowledgment order.
func (r *runner) predictProbe(c *client, acked []domain.RCC) error {
	reg, err := modelserve.Open(r.modelDir)
	if err != nil {
		return fmt.Errorf("open model registry: %w", err)
	}
	extra := map[int][]domain.RCC{}
	for _, rc := range acked {
		extra[rc.AvailID] = append(extra[rc.AvailID], rc)
	}
	ex := r.expect()
	for _, id := range r.data.ongoing {
		a := r.data.avail(id)
		hist := append(append([]domain.RCC(nil), r.data.byAvail[id]...), extra[id]...)
		eng, err := statusq.NewEngine(a, hist, index.KindAVL)
		if err != nil {
			return err
		}
		for _, ts := range probeTStars {
			o := op{route: "probe", avail: id, date: a.PhysicalTime(ts)}
			r.checks.route("probe").sent++
			status, body, err := c.do(http.MethodGet, readPath(&op{route: "predict", avail: id, date: o.date}), "", nil)
			if err == nil && status != http.StatusOK {
				err = fmt.Errorf("status %d: %.200s", status, body)
			}
			var got *predictBody
			if err == nil {
				got, err = checkPredict(body, &o, ex)
			}
			if err == nil {
				err = samePrediction(reg, eng, o.date, got, int64(len(hist)))
			}
			if err != nil {
				r.checks.fail("probe", fmt.Errorf("avail %d t*=%g: %w", id, ts, err))
				continue
			}
			r.checks.route("probe").ok++
		}
	}
	return nil
}

func samePrediction(reg *modelserve.Registry, eng *statusq.Engine, at domain.Day, got *predictBody, asOf int64) error {
	want, err := reg.Predict(eng, at, 0)
	if err != nil {
		return fmt.Errorf("in-process predict: %w", err)
	}
	if got.AsOf != asOf {
		return fmt.Errorf("served asOf %d, in-process history has %d RCCs", got.AsOf, asOf)
	}
	same := math.Float64bits(want.Delay) == math.Float64bits(*got.PredictedDelay) &&
		math.Float64bits(want.Lo) == math.Float64bits(*got.BandLo) &&
		math.Float64bits(want.Hi) == math.Float64bits(*got.BandHi)
	if !same {
		return fmt.Errorf("served %g [%g, %g], in-process %g [%g, %g]",
			*got.PredictedDelay, *got.BandLo, *got.BandHi, want.Delay, want.Lo, want.Hi)
	}
	return nil
}

// closedLoop runs body on n goroutines, each with its own connection and
// recorder, and returns the merged recorder once all have returned.
func closedLoop(ctx context.Context, base string, n int, body func(ctx context.Context, i int, c *client, rec *recorder)) *recorder {
	recs := make([]*recorder, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		recs[i] = newRecorder()
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := newClient(base)
			defer c.close()
			body(ctx, i, c, recs[i])
		}()
	}
	wg.Wait()
	out := newRecorder()
	for _, rec := range recs {
		out.merge(rec)
	}
	return out
}

// readPhase is the dashboard window: clients closed-loop readers for
// --seconds.
func (r *runner) readPhase(ctx context.Context) error {
	start := time.Now()
	deadline := start.Add(time.Duration(r.seconds) * time.Second)
	ex := r.expect()
	r.measured = closedLoop(ctx, r.live.base, clients, func(ctx context.Context, i int, c *client, rec *recorder) {
		s := newOpStream(r.data, r.seed, i)
		for time.Now().Before(deadline) && ctx.Err() == nil {
			o := s.nextRead()
			send(c, &o, ex, rec, time.Now())
		}
	})
	r.elapsed = time.Since(start)
	return ctx.Err()
}

// livePhase runs one closed-loop reader beside one open-loop writer that
// ingests at liveIngestRate. A model rollout is due every rolloutEvery;
// it goes out on the reader's connection, because on the writer's one
// HTTP/1.1 connection each reload would stall the ingests due behind it
// and the due-time latencies would measure the client, not the server.
func (r *runner) livePhase(ctx context.Context) error {
	start := time.Now()
	deadline := start.Add(time.Duration(r.seconds) * time.Second)
	reader, writer := newRecorder(), newRecorder()
	var rollErr, writeErr error
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		c := newClient(r.live.base)
		defer c.close()
		ex := r.expect()
		ex.allowStale = true
		s := newOpStream(r.data, r.seed, 0)
		nextRollout := start.Add(rolloutEvery)
		for n := 1; time.Now().Before(deadline) && ctx.Err() == nil; {
			if !time.Now().Before(nextRollout) {
				if err := r.rollout(c, n, reader); err != nil {
					rollErr = err
					return
				}
				n++
				nextRollout = nextRollout.Add(rolloutEvery)
				continue
			}
			o := s.nextRead()
			send(c, &o, ex, reader, time.Now())
		}
	}()
	go func() {
		defer wg.Done()
		writeErr = r.writer(ctx, start, deadline, writer)
	}()
	wg.Wait()
	r.elapsed = time.Since(start)
	r.measured = newRecorder()
	r.measured.merge(reader)
	r.measured.merge(writer)
	if err := errors.Join(rollErr, writeErr); err != nil {
		return err
	}
	p99, maxLate := r.lateness()
	if p99 > ms(maxLateP99) || maxLate > ms(maxLateMax) {
		return fmt.Errorf("open-loop generator fell behind: send−due p99 %.1f ms, max %.1f ms (bounds %v, %v); run invalid",
			p99, maxLate, maxLateP99, maxLateMax)
	}
	return ctx.Err()
}

// lateness is the p99 and maximum of the writer's send − due, in ms.
func (r *runner) lateness() (p99, maxLate float64) {
	if len(r.lateMs) == 0 {
		return 0, 0
	}
	sorted := append([]float64(nil), r.lateMs...)
	sort.Float64s(sorted)
	p99, _ = percentile(sorted, 0.99)
	return p99, sorted[len(sorted)-1]
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// writer is the live-mix open-loop writer. Op k is due at
// start + k/liveIngestRate and is timed from that instant. Every
// ingestCycle-th op is a /query on the avail just written, which must
// not be stale and must count every RCC acknowledged for it; those reads
// are checks, not part of the read latencies.
func (r *runner) writer(ctx context.Context, start, deadline time.Time, rec *recorder) error {
	c := newClient(r.live.base)
	defer c.close()
	ex := r.expect()
	s := newOpStream(r.data, r.seed, laneWriter)
	interval := time.Second / liveIngestRate
	for k := 0; ; k++ {
		due := start.Add(time.Duration(k) * interval)
		if !due.Before(deadline) || ctx.Err() != nil {
			return ctx.Err()
		}
		time.Sleep(time.Until(due))
		r.lateMs = append(r.lateMs, ms(time.Since(due)))
		o := s.nextIngestMix(k)
		if o.route == "query" {
			fresh := *ex
			fresh.strictFresh = true
			fresh.minAsOf = int64(len(r.data.byAvail[o.avail])) + r.acks[o.avail].Load()
			send(c, &o, &fresh, r.checks, due)
			continue
		}
		if send(c, &o, ex, rec, due) && !o.dup {
			r.acks[o.avail].Add(1)
			r.ackOrder = append(r.ackOrder, o.rcc)
		}
	}
}

// rollout clones the active manifest version under a new name, makes it
// active, and asks the server to hot-swap to it.
func (r *runner) rollout(c *client, n int, rec *recorder) error {
	st := rec.route("reload")
	st.sent++
	man, err := modelserve.ReadManifest(r.modelDir)
	if err != nil {
		return err
	}
	src, ok := man.Version(man.Active)
	if !ok {
		return fmt.Errorf("manifest names active version %q but does not list it", man.Active)
	}
	clone := *src
	clone.Version = fmt.Sprintf("%s-rollout%d", man.Versions[0].Version, n)
	man.Versions = append(man.Versions, clone)
	man.Active = clone.Version
	r.versions.add(clone.Version)
	if err := man.Write(r.modelDir); err != nil {
		return err
	}
	begin := time.Now()
	status, body, err := c.do(http.MethodPost, "/models/reload", "", nil)
	if err == nil {
		var v struct {
			Active  string `json:"active"`
			Swapped bool   `json:"swapped"`
		}
		err = json.Unmarshal(body, &v)
		if err == nil && (status != http.StatusOK || !v.Swapped || v.Active != clone.Version) {
			err = fmt.Errorf("reload answered %d %s, want a swap to %s", status, body, clone.Version)
		}
	}
	if err != nil {
		rec.fail("reload", err)
		return nil
	}
	st.ok++
	st.lat = append(st.lat, ms(time.Since(begin)))
	return nil
}

// restart SIGKILLs the server and restarts it on the same WAL root,
// recoverRounds times, timing exec to /readyz 200 (recover_s is the
// median), and checks after each restart that every avail's history is
// its CSV count plus the acknowledged ingests (none without a WAL). The
// last server keeps running.
func (r *runner) restart(ctx context.Context) error {
	var times []float64
	for i := 0; i < recoverRounds; i++ {
		r.live.kill()
		r.live = nil
		start := time.Now()
		s, err := startServer(r.domd, r.serveArgs(r.walRoot), filepath.Join(r.work, fmt.Sprintf("serve-restart-%d.log", i)))
		if err != nil {
			return err
		}
		r.live = s
		if err := s.waitReady(ctx, 150*time.Second); err != nil {
			return err
		}
		times = append(times, time.Since(start).Seconds())
		r.checkRestored()
	}
	r.recover = median(times)
	return nil
}

func (r *runner) checkRestored() {
	c := newClient(r.live.base)
	defer c.close()
	ex := r.expect()
	for _, id := range r.data.ongoing {
		want := int64(len(r.data.byAvail[id]))
		if r.w.durable() {
			want += r.acks[id].Load()
		}
		o := op{route: "query", avail: id, date: r.data.avail(id).PhysicalTime(tStarHi)}
		st := r.checks.route("restart")
		st.sent++
		status, body, err := c.do(http.MethodGet, readPath(&o), "", nil)
		if err == nil && status != http.StatusOK {
			err = fmt.Errorf("status %d: %.200s", status, body)
		}
		if err == nil {
			err = checkQuery(body, &o, ex)
		}
		if err == nil {
			var q queryBody
			if err = json.Unmarshal(body, &q); err == nil && q.AsOf != want {
				err = fmt.Errorf("avail %d restored with %d RCCs, want %d", id, q.AsOf, want)
			}
		}
		if err != nil {
			r.checks.fail("restart", err)
			continue
		}
		st.ok++
	}
}
