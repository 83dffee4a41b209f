// loadgen.go implements `domd loadgen`: a closed-loop load generator for
// the serving stack, built to measure the incremental-ingest tentpole —
// what happens to warm-avail query latency when RCCs stream in while
// queries are being answered.
//
// In self-serve mode (the default) it trains a fast pipeline, generates a
// serving fleet with -serve-rccs RCCs per avail, mounts the real
// server.New handler on a loopback listener, and drives the same mixed
// workload twice: once with the catalog's O(delta) ingest path disabled
// (every ingest invalidates the cached engine — the rebuild storm) and
// once enabled. Client-side latency percentiles per operation class,
// server-side /metrics deltas (engine builds, delta applies/fallbacks,
// request-duration histogram percentiles), and a micro-benchmark of
// Engine.ApplyRCC-then-query versus NewEngine-then-query are written to
// -out (BENCH_6.json) and echoed as "BENCH <name> <value>" lines.
//
// Against an external server (-addr) it runs a single scenario and skips
// the A/B toggle and the micro-benchmark, which need in-process access.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"math"
	"math/rand"
	"net"
	"net/http"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"domd/internal/core"
	"domd/internal/domain"
	"domd/internal/features"
	"domd/internal/fusion"
	"domd/internal/index"
	"domd/internal/ml/gbt"
	"domd/internal/modelserve"
	"domd/internal/navsim"
	"domd/internal/obs"
	"domd/internal/server"
	"domd/internal/split"
	"domd/internal/statusq"
	"domd/internal/wal"
)

// loadgenConfig carries the `domd loadgen` flags.
type loadgenConfig struct {
	addr       string
	scenario   string
	duration   time.Duration
	clients    int
	serveRCCs  int
	shards     int
	seed       int64
	microIters int
	out        string
}

// opLatencies collects client-side durations per operation class.
type opLatencies struct {
	mu     sync.Mutex
	byOp   map[string][]float64 // milliseconds
	errors int
}

func (l *opLatencies) add(op string, ms float64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.byOp[op] = append(l.byOp[op], ms)
}

func (l *opLatencies) fail() {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.errors++
}

// opReport is the per-operation-class summary written to the report.
type opReport struct {
	Count  int     `json:"count"`
	MeanMS float64 `json:"mean_ms"`
	P50MS  float64 `json:"p50_ms"`
	P95MS  float64 `json:"p95_ms"`
	P99MS  float64 `json:"p99_ms"`
}

// scenarioReport is one workload run (delta path on or off).
type scenarioReport struct {
	Name       string              `json:"name"`
	DeltaApply bool                `json:"delta_apply"`
	Errors     int                 `json:"errors"`
	Ops        map[string]opReport `json:"ops"`
	// Metrics are server-side /metrics deltas across the run.
	Metrics map[string]float64 `json:"metrics"`
	// QueryP95ServerMS is the /query p95 estimated from the server's
	// request-duration histogram buckets (client-side percentiles above
	// include network and client scheduling).
	QueryP95ServerMS float64 `json:"query_p95_server_ms"`
	// PredictP95ServerMS is the /predict p95 from the same histograms;
	// ModelP95MS is the model-evaluation slice of it
	// (domd_predict_duration_seconds, no HTTP or engine lookup).
	PredictP95ServerMS float64 `json:"predict_p95_server_ms,omitempty"`
	ModelP95MS         float64 `json:"model_p95_ms,omitempty"`
	// Swaps counts the hot-swaps the scenario performed mid-flight.
	Swaps int `json:"swaps,omitempty"`
}

// microReport is the in-process ingest-then-query micro-benchmark.
type microReport struct {
	RCCsPerAvail int     `json:"rccs_per_avail"`
	Iters        int     `json:"iters"`
	ApplyNsOp    float64 `json:"apply_plus_query_ns_per_op"`
	RebuildNsOp  float64 `json:"rebuild_plus_query_ns_per_op"`
	Speedup      float64 `json:"speedup"`
}

// shardRunReport summarizes one direct-drive run of the shard-scaling
// scenario against an N-shard durable catalog.
type shardRunReport struct {
	Shards      int     `json:"shards"`
	Workers     int     `json:"workers"`
	DurationSec float64 `json:"duration_sec"`
	Ingests     int64   `json:"ingests"`
	Queries     int64   `json:"queries"`
	// ShardAvails is how many ongoing avails the ring placed on each
	// shard — the workload's actual spread.
	ShardAvails   []int   `json:"shard_avails"`
	IngestsPerSec float64 `json:"ingests_per_sec"`
	OpsPerSec     float64 `json:"ops_per_sec"`
}

// loadgenReport is the BENCH_6.json / BENCH_7.json document.
type loadgenReport struct {
	GeneratedBy string           `json:"generated_by"`
	Config      map[string]any   `json:"config"`
	Scenarios   []scenarioReport `json:"scenarios,omitempty"`
	Micro       *microReport     `json:"micro,omitempty"`
	// ShardRuns holds the shard-scaling scenario's runs (1 shard, then
	// -shards shards); ShardThroughputSpeedup is the headline aggregate
	// ingest+query ops/sec ratio between them.
	ShardRuns              []shardRunReport `json:"shard_runs,omitempty"`
	ShardThroughputSpeedup float64          `json:"shard_throughput_speedup,omitempty"`
	// PostIngestQuerySpeedup is the headline ratio: warm-avail
	// post-ingest query cost on the rebuild path over the delta path,
	// from the in-process micro-benchmark.
	PostIngestQuerySpeedup float64 `json:"post_ingest_query_speedup,omitempty"`
	// StormQueryP95Ratio compares the /query p95 between the
	// rebuild-storm and delta scenarios (server-side histograms).
	StormQueryP95Ratio float64 `json:"storm_query_p95_ratio,omitempty"`
}

func runLoadgen(args []string) {
	fs := flag.NewFlagSet("loadgen", flag.ExitOnError)
	cfg := loadgenConfig{}
	fs.StringVar(&cfg.addr, "addr", "", "target server base URL (empty: self-serve a synthetic fleet in-process)")
	fs.StringVar(&cfg.scenario, "scenario", "delta", "workload scenario: delta (HTTP A/B of the O(delta) ingest path), shards (direct-drive shard-scaling of the durable catalog), or predict (prediction serving under rolling hot-swaps)")
	fs.DurationVar(&cfg.duration, "duration", 3*time.Second, "wall-clock length of each workload scenario")
	fs.IntVar(&cfg.clients, "clients", 4, "closed-loop client goroutines")
	fs.IntVar(&cfg.serveRCCs, "serve-rccs", 1500, "mean RCCs per served avail in self-serve mode")
	fs.IntVar(&cfg.shards, "shards", 4, "shard count compared against a single shard by -scenario shards")
	fs.Int64Var(&cfg.seed, "seed", 1, "random seed (dataset and workload)")
	fs.IntVar(&cfg.microIters, "micro-iters", 200, "iterations of the apply-vs-rebuild micro-benchmark")
	fs.StringVar(&cfg.out, "out", "", "report output path (default BENCH_6.json; BENCH_7.json for -scenario shards, BENCH_10.json for -scenario predict)")
	parseFlags(fs, args)
	if cfg.out == "" {
		switch cfg.scenario {
		case "shards":
			cfg.out = "BENCH_7.json"
		case "predict":
			cfg.out = "BENCH_10.json"
		default:
			cfg.out = "BENCH_6.json"
		}
	}
	report, err := loadgen(cfg)
	if err != nil {
		log.Fatal(err)
	}
	if err := writeLoadgenReport(cfg.out, report); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("wrote %s\n", cfg.out)
}

// loadgen runs the whole harness and assembles the report; split from
// runLoadgen so tests can call it without flag parsing or log.Fatal.
func loadgen(cfg loadgenConfig) (*loadgenReport, error) {
	switch cfg.scenario {
	case "", "delta":
	case "shards":
		return shardScaling(cfg)
	case "predict":
		return predictLoadgen(cfg)
	default:
		return nil, fmt.Errorf("loadgen: unknown -scenario %q (want delta, shards, or predict)", cfg.scenario)
	}
	report := &loadgenReport{
		GeneratedBy: "domd loadgen",
		Config: map[string]any{
			"duration":   cfg.duration.String(),
			"clients":    cfg.clients,
			"serve_rccs": cfg.serveRCCs,
			"seed":       cfg.seed,
		},
	}

	if cfg.addr != "" {
		// External target: one scenario, no toggles, no micro-bench.
		sc, err := runScenario(cfg.addr, "external", true, nil, cfg)
		if err != nil {
			return nil, err
		}
		report.Scenarios = append(report.Scenarios, *sc)
		emitBench(report)
		return report, nil
	}

	ss, err := selfServe(cfg)
	if err != nil {
		return nil, err
	}
	defer ss.close()
	serve, catalog, base := ss.fleet, ss.catalog, ss.base

	// The rebuild storm first (delta path off), then the delta path, with
	// a warm-up between so each scenario starts from built engines.
	for _, mode := range []struct {
		name  string
		delta bool
	}{{"rebuild-storm", false}, {"delta", true}} {
		catalog.SetDeltaApply(mode.delta)
		sc, err := runScenario(base, mode.name, mode.delta, serve, cfg)
		if err != nil {
			return nil, err
		}
		report.Scenarios = append(report.Scenarios, *sc)
	}

	micro, err := runMicro(serve, cfg)
	if err != nil {
		return nil, err
	}
	report.Micro = micro
	report.PostIngestQuerySpeedup = micro.Speedup
	if len(report.Scenarios) == 2 && report.Scenarios[1].QueryP95ServerMS > 0 {
		report.StormQueryP95Ratio = report.Scenarios[0].QueryP95ServerMS / report.Scenarios[1].QueryP95ServerMS
	}
	emitBench(report)
	return report, nil
}

// selfServed is an in-process `domd serve -model-dir`: the real
// server.New handler on a loopback listener, over a fast model registry
// and a synthetic serving fleet.
type selfServed struct {
	base     string
	modelDir string
	fleet    *navsim.Dataset
	catalog  *statusq.Catalog
	srv      *http.Server
	srvErr   chan error
}

// selfServe trains the same small two-window model version the serving
// test suite uses — a baseline GBT with few rounds over a compact closed
// fleet, quick to train and fully exercising the serving path — publishes
// it as v001 into a temp registry, and serves a fleet of -serve-rccs RCCs
// per avail from it. close stops the server and removes the registry.
func selfServe(cfg loadgenConfig) (*selfServed, error) {
	ds, err := navsim.Generate(navsim.Config{NumClosed: 40, NumOngoing: 3, MeanRCCsPerAvail: 40, Seed: cfg.seed})
	if err != nil {
		return nil, err
	}
	tensor, err := features.BuildTensor(features.NewExtractor(), ds.Avails, ds.RCCsByAvail(), 25, index.KindAVL)
	if err != nil {
		return nil, err
	}
	sp, err := split.Make(split.DefaultConfig(), tensor.Avails)
	if err != nil {
		return nil, err
	}
	tv, err := modelserve.TrainVersion(tensor, sp.Train, sp.Val, modelserve.TrainOptions{
		Windows: []modelserve.Window{{Lo: 0, Hi: 50}, {Lo: 50, Hi: 100}},
		Alpha:   modelserve.DefaultAlpha,
		Version: "v001",
		Config:  fastTrainConfig(),
	})
	if err != nil {
		return nil, fmt.Errorf("loadgen: train model version: %w", err)
	}
	fleet, err := navsim.Generate(navsim.Config{
		NumClosed: 4, NumOngoing: 3, MeanRCCsPerAvail: float64(cfg.serveRCCs), Seed: cfg.seed + 1,
	})
	if err != nil {
		return nil, fmt.Errorf("loadgen: serving fleet: %w", err)
	}
	catalog, err := statusq.NewCatalog(fleet.Avails, fleet.RCCs, index.KindAVL)
	if err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp("", "domd-loadgen-models-")
	if err != nil {
		return nil, err
	}
	fail := func(err error) (*selfServed, error) {
		os.RemoveAll(dir) //lint:ignore droppederr best-effort cleanup of a throwaway temp root
		return nil, err
	}
	if _, err := tv.WriteTo(dir, true); err != nil {
		return fail(err)
	}
	reg, err := modelserve.Open(dir)
	if err != nil {
		return fail(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return fail(err)
	}
	ss := &selfServed{
		base: "http://" + ln.Addr().String(), modelDir: dir, fleet: fleet, catalog: catalog,
		srv: &http.Server{Handler: server.New(reg, catalog, server.Options{})}, srvErr: make(chan error, 1),
	}
	go func() { ss.srvErr <- ss.srv.Serve(ln) }()
	return ss, nil
}

// close stops the server and removes the temp registry.
func (ss *selfServed) close() {
	if err := ss.srv.Close(); err != nil {
		log.Printf("loadgen server close: %v", err)
	}
	if err := <-ss.srvErr; err != nil && err != http.ErrServerClosed {
		log.Printf("loadgen server: %v", err)
	}
	os.RemoveAll(ss.modelDir) //lint:ignore droppederr best-effort cleanup of a throwaway temp root
}

// fastTrainConfig is the compact GBT configuration every loadgen
// training run shares.
func fastTrainConfig() core.Config {
	cfg := core.BaselineConfig()
	cfg.Fusion = fusion.MethodAverage
	p := gbt.DefaultParams()
	p.NumRounds = 15
	p.LearningRate = 0.3
	cfg.GBTParams = &p
	return cfg
}

// nextRCCID hands out process-unique ingest ids far above any generated
// dataset's id space.
var nextRCCID atomic.Int64

func init() { nextRCCID.Store(9_000_000) }

// fetchOngoing lists the target's ongoing avails via GET /avails, so the
// workload works identically against self-served and external targets.
func fetchOngoing(base string) ([]domain.Avail, error) {
	resp, err := http.Get(base + "/avails")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("loadgen: GET /avails: status %d", resp.StatusCode)
	}
	var rows []struct {
		ID        int    `json:"id"`
		Status    string `json:"status"`
		PlanStart string `json:"plan_start"`
		PlanEnd   string `json:"plan_end"`
		ActStart  string `json:"actual_start"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&rows); err != nil {
		return nil, err
	}
	var out []domain.Avail
	for _, r := range rows {
		if r.Status != domain.StatusOngoing.String() {
			continue
		}
		ps, err := domain.ParseDay(r.PlanStart)
		if err != nil {
			return nil, err
		}
		pe, err := domain.ParseDay(r.PlanEnd)
		if err != nil {
			return nil, err
		}
		as, err := domain.ParseDay(r.ActStart)
		if err != nil {
			return nil, err
		}
		out = append(out, domain.Avail{ID: r.ID, Status: domain.StatusOngoing, PlanStart: ps, PlanEnd: pe, ActStart: as})
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("loadgen: target serves no ongoing avails")
	}
	return out, nil
}

// runScenario drives the closed-loop mixed workload against base for
// cfg.duration and summarizes client latencies plus /metrics deltas.
// serve may be nil (external mode); ongoing avails are always discovered
// over the API.
func runScenario(base, name string, delta bool, serve *navsim.Dataset, cfg loadgenConfig) (*scenarioReport, error) {
	ongoing, err := fetchOngoing(base)
	if err != nil {
		return nil, err
	}
	// Warm-up: one query per ongoing avail builds (or rebuilds) engines so
	// the measured window starts warm.
	for _, a := range ongoing {
		if err := doQuery(&http.Client{}, base, &a, 60); err != nil {
			return nil, fmt.Errorf("loadgen: warm-up query avail %d: %w", a.ID, err)
		}
	}

	before, err := scrape(base)
	if err != nil {
		return nil, err
	}
	lat := &opLatencies{byOp: map[string][]float64{}}
	deadline := time.Now().Add(cfg.duration)
	var wg sync.WaitGroup
	for c := 0; c < cfg.clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(cfg.seed + int64(c)*7919))
			client := &http.Client{}
			for op := 0; time.Now().Before(deadline); op++ {
				a := ongoing[rng.Intn(len(ongoing))]
				ts := 20 + rng.Float64()*70
				var kind string
				var err error
				start := time.Now()
				switch {
				case op%8 == 7:
					kind = "ingest"
					err = doIngest(client, base, &a, rng)
				case op%32 == 13:
					kind = "fleet"
					err = doFleet(client, base, &a)
				default:
					kind = "query"
					err = doQuery(client, base, &a, ts)
				}
				if err != nil {
					lat.fail()
					continue
				}
				lat.add(kind, float64(time.Since(start).Microseconds())/1000)
			}
		}(c)
	}
	wg.Wait()
	after, err := scrape(base)
	if err != nil {
		return nil, err
	}

	sc := &scenarioReport{
		Name:       name,
		DeltaApply: delta,
		Errors:     lat.errors,
		Ops:        map[string]opReport{},
		Metrics: map[string]float64{
			"engine_builds":     after["domd_engine_builds_total"] - before["domd_engine_builds_total"],
			"delta_applies":     after["domd_engine_delta_applies_total"] - before["domd_engine_delta_applies_total"],
			"delta_fallbacks":   sumSeries(after, "domd_engine_delta_fallbacks_total{") - sumSeries(before, "domd_engine_delta_fallbacks_total{"),
			"requests":          sumSeries(after, "domd_http_requests_total{") - sumSeries(before, "domd_http_requests_total{"),
			"stale_serves":      after["domd_engine_stale_serves_total"] - before["domd_engine_stale_serves_total"],
			"engine_cache_hits": after["domd_engine_cache_hits_total"] - before["domd_engine_cache_hits_total"],
		},
		QueryP95ServerMS: histPercentile(before, after, "domd_http_request_duration_seconds", "/query", 0.95) * 1000,
	}
	for op, samples := range lat.byOp {
		sc.Ops[op] = summarize(samples)
	}
	return sc, nil
}

func doQuery(client *http.Client, base string, a *domain.Avail, ts float64) error {
	url := fmt.Sprintf("%s/query?avail=%d&date=%s", base, a.ID, a.PhysicalTime(ts))
	resp, err := client.Get(url)
	if err != nil {
		return err
	}
	return drain(resp, http.StatusOK)
}

func doFleet(client *http.Client, base string, a *domain.Avail) error {
	url := fmt.Sprintf("%s/fleet?date=%s", base, a.PhysicalTime(60))
	resp, err := client.Get(url)
	if err != nil {
		return err
	}
	return drain(resp, http.StatusOK)
}

func doIngest(client *http.Client, base string, a *domain.Avail, rng *rand.Rand) error {
	id := nextRCCID.Add(1)
	created := a.PhysicalTime(20 + rng.Float64()*40)
	settled := a.PhysicalTime(65 + rng.Float64()*30)
	body := fmt.Sprintf(
		`{"id":%d,"avail_id":%d,"type":"G","swlin":"434-11-00%d","created":%q,"settled":%q,"amount":%d.5}`,
		id, a.ID, 1+rng.Intn(9), created.String(), settled.String(), 100+rng.Intn(5000))
	resp, err := client.Post(base+"/rccs", "application/json", strings.NewReader(body))
	if err != nil {
		return err
	}
	return drain(resp, http.StatusCreated)
}

// drain consumes and closes the response body (keep-alive reuse) and
// checks the status.
func drain(resp *http.Response, want int) error {
	if _, err := io.Copy(io.Discard, resp.Body); err != nil {
		if cerr := resp.Body.Close(); cerr != nil {
			return cerr
		}
		return err
	}
	if err := resp.Body.Close(); err != nil {
		return err
	}
	if resp.StatusCode != want {
		return fmt.Errorf("status %d, want %d", resp.StatusCode, want)
	}
	return nil
}

// scrape fetches and parses /metrics.
func scrape(base string) (map[string]float64, error) {
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("loadgen: GET /metrics: status %d", resp.StatusCode)
	}
	return obs.ParseText(resp.Body)
}

// sumSeries sums every series of a labeled metric family (keys carry
// rendered labels, e.g. `name{reason="nocache"}`).
func sumSeries(m map[string]float64, prefix string) float64 {
	var sum float64
	for k, v := range m {
		if strings.HasPrefix(k, prefix) {
			sum += v
		}
	}
	return sum
}

// histPercentile estimates a percentile from the before/after delta of a
// cumulative histogram's buckets for one route label.
func histPercentile(before, after map[string]float64, family, route string, q float64) float64 {
	return histPercentilePrefix(before, after, fmt.Sprintf(`%s_bucket{route=%q,le="`, family, route), q)
}

// histPercentileUnlabeled is histPercentile for a histogram family with
// no labels beyond le.
func histPercentileUnlabeled(before, after map[string]float64, family string, q float64) float64 {
	return histPercentilePrefix(before, after, family+`_bucket{le="`, q)
}

func histPercentilePrefix(before, after map[string]float64, prefix string, q float64) float64 {
	type bucket struct {
		le    float64
		count float64
	}
	var buckets []bucket
	for k, v := range after {
		if !strings.HasPrefix(k, prefix) {
			continue
		}
		leStr := strings.TrimSuffix(strings.TrimPrefix(k, prefix), `"}`)
		le, err := parseLe(leStr)
		if err != nil {
			continue
		}
		buckets = append(buckets, bucket{le: le, count: v - before[k]})
	}
	if len(buckets) == 0 {
		return 0
	}
	sort.Slice(buckets, func(i, j int) bool { return buckets[i].le < buckets[j].le })
	total := buckets[len(buckets)-1].count
	if total <= 0 {
		return 0
	}
	// The quantile can land in the +Inf overflow bucket (every histogram
	// has one). +Inf is useless in a report; the honest answer is the
	// largest finite edge, reported as a lower bound.
	lastFinite := 0.0
	target := q * total
	for _, b := range buckets {
		if b.count >= target {
			if math.IsInf(b.le, 1) {
				break
			}
			return b.le
		}
		if !math.IsInf(b.le, 1) {
			lastFinite = b.le
		}
	}
	return lastFinite
}

func parseLe(s string) (float64, error) {
	if s == "+Inf" {
		return math.Inf(1), nil
	}
	return strconv.ParseFloat(s, 64)
}

// summarize computes the percentile summary of one op class.
func summarize(samples []float64) opReport {
	if len(samples) == 0 {
		return opReport{}
	}
	sort.Float64s(samples)
	var sum float64
	for _, s := range samples {
		sum += s
	}
	return opReport{
		Count:  len(samples),
		MeanMS: sum / float64(len(samples)),
		P50MS:  percentileOf(samples, 0.50),
		P95MS:  percentileOf(samples, 0.95),
		P99MS:  percentileOf(samples, 0.99),
	}
}

// percentileOf reads the q-th percentile from an ascending-sorted slice.
func percentileOf(sorted []float64, q float64) float64 {
	idx := int(q*float64(len(sorted))) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(sorted) {
		idx = len(sorted) - 1
	}
	return sorted[idx]
}

// runMicro measures, in process, the two ways to absorb one ingest and
// answer the next warm query: Engine.ApplyRCC + Eval versus NewEngine
// over the extended history + Eval — the same comparison as the
// BenchmarkApplyRCC / BenchmarkRebuildAfterIngest pair, but reported into
// BENCH_6.json by an operator-runnable command.
func runMicro(serve *navsim.Dataset, cfg loadgenConfig) (*microReport, error) {
	byAvail := serve.RCCsByAvail()
	var target *domain.Avail
	for i := range serve.Avails {
		a := &serve.Avails[i]
		if a.Status != domain.StatusOngoing {
			continue
		}
		if target == nil || len(byAvail[a.ID]) > len(byAvail[target.ID]) {
			target = a
		}
	}
	if target == nil {
		return nil, fmt.Errorf("loadgen: no ongoing avail to micro-benchmark")
	}
	base := byAvail[target.ID]
	rng := rand.New(rand.NewSource(cfg.seed + 17))
	q := statusq.Query{Status: domain.Active, Agg: statusq.SumAmount}
	newRCC := func(id int) domain.RCC {
		return domain.RCC{
			ID: id, AvailID: target.ID, Type: domain.Growth,
			SWLIN:   43411001 + rng.Intn(9),
			Created: target.ActStart + domain.Day(rng.Intn(int(target.PlannedDuration()))),
			Settled: target.ActStart + domain.Day(int(target.PlannedDuration())+rng.Intn(100)),
			Amount:  float64(100 + rng.Intn(5000)),
		}
	}

	eng, err := statusq.NewEngine(target, base, index.KindAVL)
	if err != nil {
		return nil, err
	}
	applyStart := time.Now()
	for i := 0; i < cfg.microIters; i++ {
		if err := eng.ApplyRCC(newRCC(8_000_000 + i)); err != nil {
			return nil, err
		}
		if _, err := eng.Eval(60, q); err != nil {
			return nil, err
		}
	}
	applyNs := float64(time.Since(applyStart).Nanoseconds()) / float64(cfg.microIters)

	history := append([]domain.RCC(nil), base...)
	rebuildStart := time.Now()
	for i := 0; i < cfg.microIters; i++ {
		history = append(history, newRCC(8_500_000+i))
		reng, err := statusq.NewEngine(target, history, index.KindAVL)
		if err != nil {
			return nil, err
		}
		if _, err := reng.Eval(60, q); err != nil {
			return nil, err
		}
	}
	rebuildNs := float64(time.Since(rebuildStart).Nanoseconds()) / float64(cfg.microIters)

	return &microReport{
		RCCsPerAvail: len(base),
		Iters:        cfg.microIters,
		ApplyNsOp:    applyNs,
		RebuildNsOp:  rebuildNs,
		Speedup:      rebuildNs / applyNs,
	}, nil
}

// shardScaling measures how ingest+query throughput of the durable
// catalog tier scales with shard count. It drives ShardedCatalog
// directly — no HTTP, no ML evaluation — because the point is the
// tier's own ceiling: with -fsync always, a single shard serializes
// every acknowledgment behind one fsync, while N shards overlap N
// fsyncs. The same ingest-heavy closed-loop workload (15 ingests : 1
// engine query) runs over the same fleet, same WAL policy, same worker
// count at every power-of-two shard count from 1 up to -shards.
func shardScaling(cfg loadgenConfig) (*loadgenReport, error) {
	if cfg.shards < 2 {
		return nil, fmt.Errorf("loadgen: -scenario shards needs -shards >= 2, got %d", cfg.shards)
	}
	// Issuing N overlapping fdatasyncs needs N runnable Ps; on a small
	// host GOMAXPROCS would otherwise serialize syscall entry behind
	// sysmon's ~20µs P-retake and understate every multi-shard run.
	if want := cfg.shards + 2; runtime.GOMAXPROCS(0) < want {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(want))
	}
	fleet, err := navsim.Generate(navsim.Config{
		NumClosed: 4, NumOngoing: 48, MeanRCCsPerAvail: 60, Seed: cfg.seed + 2,
	})
	if err != nil {
		return nil, fmt.Errorf("loadgen: shard fleet: %w", err)
	}
	// The same worker count for both runs, sized so every shard of the
	// larger tier has queued work while another shard's fsync is in
	// flight.
	workers := cfg.clients
	if workers < 2*cfg.shards {
		workers = 2 * cfg.shards
	}
	report := &loadgenReport{
		GeneratedBy: "domd loadgen",
		Config: map[string]any{
			"scenario": "shards",
			"duration": cfg.duration.String(),
			"workers":  workers,
			"shards":   cfg.shards,
			"seed":     cfg.seed,
			"fsync":    "always",
		},
	}
	counts := []int{1}
	for n := 2; n < cfg.shards; n *= 2 {
		counts = append(counts, n)
	}
	counts = append(counts, cfg.shards)
	for _, n := range counts {
		run, err := driveShardTier(fleet, n, workers, cfg)
		if err != nil {
			return nil, err
		}
		report.ShardRuns = append(report.ShardRuns, run)
	}
	if base := report.ShardRuns[0].OpsPerSec; base > 0 {
		report.ShardThroughputSpeedup = report.ShardRuns[len(report.ShardRuns)-1].OpsPerSec / base
	}
	emitBench(report)
	return report, nil
}

// driveShardTier opens an n-shard durable catalog in a throwaway root
// and hammers it for cfg.duration with the closed-loop workload.
func driveShardTier(fleet *navsim.Dataset, n, workers int, cfg loadgenConfig) (shardRunReport, error) {
	root, err := os.MkdirTemp("", "domd-loadgen-shards-")
	if err != nil {
		return shardRunReport{}, err
	}
	defer os.RemoveAll(root) //lint:ignore droppederr best-effort cleanup of a throwaway temp root
	sc, _, err := statusq.OpenSharded(root, n, fleet.Avails, fleet.RCCs, index.KindAVL,
		statusq.DurableOptions{WAL: wal.Options{Policy: wal.SyncAlways}})
	if err != nil {
		return shardRunReport{}, err
	}
	defer sc.Close() //lint:ignore droppederr the run's numbers are already collected; close is cleanup

	byID := map[int]*domain.Avail{}
	for i := range fleet.Avails {
		byID[fleet.Avails[i].ID] = &fleet.Avails[i]
	}
	ongoing := sc.OngoingIDs()
	if len(ongoing) == 0 {
		return shardRunReport{}, fmt.Errorf("loadgen: shard fleet has no ongoing avails")
	}
	// Warm every engine so the measured window exercises the steady
	// state: delta-applied ingests and cached-engine evals, not builds.
	for _, id := range ongoing {
		if _, err := sc.Engine(id); err != nil {
			return shardRunReport{}, fmt.Errorf("loadgen: warm engine %d: %w", id, err)
		}
	}
	// Balanced routing: workers spread ops evenly over the shards that
	// own ongoing avails (a load balancer in front of a sharded tier
	// does the same), so the measurement is the tier's aggregate
	// ceiling, not whichever shard the ring happened to load most.
	spread := make([]int, n)
	perShard := make([][]int, n)
	for _, id := range ongoing {
		s := sc.ShardOf(id)
		spread[s]++
		perShard[s] = append(perShard[s], id)
	}
	var lanes [][]int
	for _, ids := range perShard {
		if len(ids) > 0 {
			lanes = append(lanes, ids)
		}
	}

	var ingests, queries atomic.Int64
	var firstErr atomic.Value
	q := statusq.Query{Status: domain.Active, Agg: statusq.SumAmount}
	deadline := time.Now().Add(cfg.duration)
	start := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(cfg.seed + int64(w)*104729))
			for op := 0; time.Now().Before(deadline); op++ {
				lane := lanes[(w+op)%len(lanes)]
				a := byID[lane[rng.Intn(len(lane))]]
				if op%16 == 15 {
					if _, err := sc.Eval(a.ID, 60, q); err != nil {
						firstErr.CompareAndSwap(nil, err)
						return
					}
					queries.Add(1)
					continue
				}
				id := int(nextRCCID.Add(1))
				rcc := domain.RCC{
					ID: id, AvailID: a.ID, Type: domain.Growth,
					SWLIN:   43411001 + rng.Intn(9),
					Created: a.ActStart + domain.Day(rng.Intn(int(a.PlannedDuration()))),
					Settled: a.ActStart + domain.Day(int(a.PlannedDuration())+rng.Intn(100)),
					Amount:  float64(100 + rng.Intn(5000)),
				}
				if _, err := sc.Ingest(fmt.Sprintf("lg-%d", id), rcc); err != nil {
					firstErr.CompareAndSwap(nil, err)
					return
				}
				ingests.Add(1)
			}
		}(w)
	}
	wg.Wait()
	elapsed := time.Since(start).Seconds()
	if err, ok := firstErr.Load().(error); ok {
		return shardRunReport{}, fmt.Errorf("loadgen: %d-shard run: %w", n, err)
	}
	in, qs := ingests.Load(), queries.Load()
	return shardRunReport{
		Shards:        n,
		Workers:       workers,
		DurationSec:   elapsed,
		Ingests:       in,
		Queries:       qs,
		ShardAvails:   spread,
		IngestsPerSec: float64(in) / elapsed,
		OpsPerSec:     float64(in+qs) / elapsed,
	}, nil
}

// predictLoadgen measures the prediction-serving tier under operator
// churn: it trains and publishes a model version, mounts the real
// server.New handler with a registry (`domd serve -model-dir` wiring),
// and drives a closed-loop /predict-heavy workload while a rollout
// goroutine publishes and hot-swaps a new version every few hundred
// milliseconds. The numbers that matter: /predict latency percentiles
// (client- and server-side), the model-evaluation slice of them, zero
// errors and zero prediction_unavailable answers across every swap.
func predictLoadgen(cfg loadgenConfig) (*loadgenReport, error) {
	if cfg.addr != "" {
		return nil, fmt.Errorf("loadgen: -scenario predict is self-serve only (it must publish versions into the registry directory)")
	}
	ss, err := selfServe(cfg)
	if err != nil {
		return nil, err
	}
	defer ss.close()
	dir, base := ss.modelDir, ss.base

	ongoing, err := fetchOngoing(base)
	if err != nil {
		return nil, err
	}
	for _, a := range ongoing {
		if err := doPredict(&http.Client{}, base, &a, 60); err != nil {
			return nil, fmt.Errorf("loadgen: warm-up predict avail %d: %w", a.ID, err)
		}
	}

	before, err := scrape(base)
	if err != nil {
		return nil, err
	}
	lat := &opLatencies{byOp: map[string][]float64{}}
	deadline := time.Now().Add(cfg.duration)
	var wg sync.WaitGroup
	for c := 0; c < cfg.clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(cfg.seed + int64(c)*7919))
			client := &http.Client{}
			for op := 0; time.Now().Before(deadline); op++ {
				a := ongoing[rng.Intn(len(ongoing))]
				ts := 20 + rng.Float64()*70
				var kind string
				var err error
				start := time.Now()
				switch {
				case op%16 == 11:
					kind = "fleet"
					err = doFleet(client, base, &a)
				default:
					kind = "predict"
					err = doPredict(client, base, &a, ts)
				}
				if err != nil {
					lat.fail()
					continue
				}
				lat.add(kind, float64(time.Since(start).Microseconds())/1000)
			}
		}(c)
	}

	// The rollout loop: publish a cloned version (an operator rollout is
	// a manifest edit — the artifacts are already proven) and hot-swap it
	// while the readers run.
	swaps := 0
	swapErr := func() error {
		client := &http.Client{}
		for n := 2; time.Now().Before(deadline); n++ {
			man, err := modelserve.ReadManifest(dir)
			if err != nil {
				return err
			}
			active, ok := man.Version(man.Active)
			if !ok {
				return fmt.Errorf("loadgen: no active version to clone")
			}
			clone := *active
			clone.Version = fmt.Sprintf("v%03d", n)
			man.Versions = append(man.Versions, clone)
			man.Active = clone.Version
			if err := man.Write(dir); err != nil {
				return err
			}
			resp, err := client.Post(base+"/models/reload", "application/json", nil)
			if err != nil {
				return err
			}
			if err := drain(resp, http.StatusOK); err != nil {
				return fmt.Errorf("loadgen: reload %s: %w", clone.Version, err)
			}
			swaps++
			time.Sleep(200 * time.Millisecond)
		}
		return nil
	}()
	wg.Wait()
	if swapErr != nil {
		return nil, swapErr
	}
	after, err := scrape(base)
	if err != nil {
		return nil, err
	}

	sc := scenarioReport{
		Name:   "predict",
		Errors: lat.errors,
		Swaps:  swaps,
		Ops:    map[string]opReport{},
		Metrics: map[string]float64{
			"model_swaps":         after["domd_model_swaps_total"] - before["domd_model_swaps_total"],
			"model_loads":         after["domd_model_loads_total"] - before["domd_model_loads_total"],
			"model_load_failures": after["domd_model_load_failures_total"] - before["domd_model_load_failures_total"],
			"window_fallbacks":    after["domd_model_window_fallbacks_total"] - before["domd_model_window_fallbacks_total"],
			"predict_unavailable": after["domd_predict_unavailable_total"] - before["domd_predict_unavailable_total"],
			"requests":            sumSeries(after, "domd_http_requests_total{") - sumSeries(before, "domd_http_requests_total{"),
		},
		PredictP95ServerMS: histPercentile(before, after, "domd_http_request_duration_seconds", "/predict", 0.95) * 1000,
		ModelP95MS:         histPercentileUnlabeled(before, after, "domd_predict_duration_seconds", 0.95) * 1000,
	}
	for op, samples := range lat.byOp {
		sc.Ops[op] = summarize(samples)
	}
	report := &loadgenReport{
		GeneratedBy: "domd loadgen",
		Config: map[string]any{
			"scenario":   "predict",
			"duration":   cfg.duration.String(),
			"clients":    cfg.clients,
			"serve_rccs": cfg.serveRCCs,
			"seed":       cfg.seed,
		},
		Scenarios: []scenarioReport{sc},
	}
	emitBench(report)
	return report, nil
}

// doPredict issues one GET /predict and requires a clean 200.
func doPredict(client *http.Client, base string, a *domain.Avail, ts float64) error {
	url := fmt.Sprintf("%s/predict?avail=%d&date=%s", base, a.ID, a.PhysicalTime(ts))
	resp, err := client.Get(url)
	if err != nil {
		return err
	}
	return drain(resp, http.StatusOK)
}

// emitBench prints the headline numbers as "BENCH <name> <value>" lines.
func emitBench(r *loadgenReport) {
	for _, sc := range r.Scenarios {
		for op, s := range sc.Ops {
			fmt.Printf("BENCH loadgen/%s/%s_p95_ms %.3f\n", sc.Name, op, s.P95MS)
		}
		if sc.Name == "predict" {
			fmt.Printf("BENCH loadgen/predict/swaps %d\n", sc.Swaps)
			fmt.Printf("BENCH loadgen/predict/errors %d\n", sc.Errors)
			fmt.Printf("BENCH loadgen/predict/unavailable %.0f\n", sc.Metrics["predict_unavailable"])
			fmt.Printf("BENCH loadgen/predict/predict_p95_server_ms %.3f\n", sc.PredictP95ServerMS)
			fmt.Printf("BENCH loadgen/predict/model_p95_ms %.3f\n", sc.ModelP95MS)
			continue
		}
		fmt.Printf("BENCH loadgen/%s/engine_builds %.0f\n", sc.Name, sc.Metrics["engine_builds"])
		fmt.Printf("BENCH loadgen/%s/delta_applies %.0f\n", sc.Name, sc.Metrics["delta_applies"])
		fmt.Printf("BENCH loadgen/%s/query_p95_server_ms %.3f\n", sc.Name, sc.QueryP95ServerMS)
	}
	if r.Micro != nil {
		fmt.Printf("BENCH micro/apply_plus_query_ns %.0f\n", r.Micro.ApplyNsOp)
		fmt.Printf("BENCH micro/rebuild_plus_query_ns %.0f\n", r.Micro.RebuildNsOp)
		fmt.Printf("BENCH micro/post_ingest_query_speedup %.1f\n", r.Micro.Speedup)
	}
	if r.StormQueryP95Ratio > 0 {
		fmt.Printf("BENCH loadgen/storm_query_p95_ratio %.2f\n", r.StormQueryP95Ratio)
	}
	for _, run := range r.ShardRuns {
		fmt.Printf("BENCH shards/%d/ingests_per_sec %.0f\n", run.Shards, run.IngestsPerSec)
		fmt.Printf("BENCH shards/%d/ops_per_sec %.0f\n", run.Shards, run.OpsPerSec)
	}
	if r.ShardThroughputSpeedup > 0 {
		fmt.Printf("BENCH shards/throughput_speedup %.2f\n", r.ShardThroughputSpeedup)
	}
}

// writeLoadgenReport writes the JSON document.
func writeLoadgenReport(path string, r *loadgenReport) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(r); err != nil {
		if cerr := f.Close(); cerr != nil {
			return cerr
		}
		return err
	}
	return f.Close()
}
