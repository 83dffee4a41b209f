// Command perfbench is the DoMD serving benchmark. Each run generates
// seeded inputs, publishes a model with `domd train`, starts `domd serve`
// built from the same checkout as a subprocess, drives one workload over
// loopback HTTP, checks every answer, and prints one JSON result line.
//
//	perfbench -domd .bench_build/domd --workload dashboard --seed 1 --seconds 15 --trace 0
//
// With --trace 1 it also replays the same op sequence in-process against
// the serving packages' public functions, recording spans around each
// layer, and prints the per-layer metrics instead of the end-to-end ones.
// perfbench/run.sh builds both binaries and runs it.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
)

func main() {
	os.Exit(mainErr())
}

func mainErr() int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload: dashboard or live-mix")
	seed := fs.Int64("seed", 1, "input and op-sequence seed")
	seconds := fs.Int("seconds", 15, "length of the measured window")
	trace := fs.Int("trace", 0, "1: add the traced in-process replay and print per-layer metrics")
	domd := fs.String("domd", "", "domd binary built from the tree under test")
	root := fs.String("root", ".", "checkout root; scratch files go under <root>/.bench_build")
	if err := fs.Parse(os.Args[1:]); err != nil {
		return 2
	}
	w, err := findWorkload(*name)
	if err != nil || *domd == "" || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need -domd, a known --workload, --seconds >= 1 and --trace 0|1 (%v)\n", err)
		return 2
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	build := filepath.Join(*root, ".bench_build")
	if err := os.MkdirAll(build, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	work, err := os.MkdirTemp(build, fmt.Sprintf("run-%s-%d-", w.name, *seed))
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	defer os.RemoveAll(work)

	r := newRunner(w, *seed, *seconds, *domd, work)
	defer r.close()
	if err := r.run(ctx); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s seed %d: %v\n", w.name, *seed, err)
		return 1
	}
	metrics, err := r.endToEnd()
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s seed %d: %v\n", w.name, *seed, err)
		return 1
	}
	if *trace == 1 {
		rp, err := newReplay(ctx, r, filepath.Join(build, "spans"))
		if err == nil {
			metrics, err = rp.run(ctx)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %s seed %d traced replay: %v\n", w.name, *seed, err)
			return 1
		}
	}
	attempted, failed := r.totals()
	rec := r.record(*trace)
	if line, err := json.Marshal(rec); err == nil {
		fmt.Printf("record %s\n", line)
	}
	out := map[string]any{
		"correct":   failed == 0,
		"attempted": attempted,
		"failed":    failed,
		"metrics":   metrics,
	}
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(line))
	if failed > 0 {
		fmt.Fprintf(os.Stderr, "perfbench: %d of %d operations failed their checks: %s\n",
			failed, attempted, strings.Join(r.failures(), "; "))
		return 1
	}
	return 0
}

// metricValue is one printed metric.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// endToEnd computes every end-to-end metric from the untraced run.
func (r *runner) endToEnd() (map[string]metricValue, error) {
	vals := map[string]float64{
		"setup_s":     median(r.setups),
		"train_s":     median(r.trains),
		"recover_s":   r.recover,
		"peak_rss_mb": r.rssMB,
	}
	ok := 0
	for _, s := range r.measured.routes {
		ok += s.ok
	}
	vals["ops_per_s"] = float64(ok) / r.elapsed.Seconds()
	all := r.measured
	for _, m := range endToEnd {
		route, q, isPct := pctMetric(m.name)
		if !isPct {
			continue
		}
		s := all.routes[route]
		if s == nil {
			return nil, fmt.Errorf("%s: route %s was never measured", m.name, route)
		}
		sorted := append([]float64(nil), s.lat...)
		sort.Float64s(sorted)
		v, enough := percentile(sorted, q)
		if !enough {
			return nil, fmt.Errorf("%s: %d samples leave fewer than %d beyond it; run invalid", m.name, len(sorted), minTail)
		}
		vals[m.name] = v
	}
	out := map[string]metricValue{}
	for _, m := range endToEnd {
		v, found := vals[m.name]
		if !found || v <= 0 {
			return nil, fmt.Errorf("metric %s not measured", m.name)
		}
		out[m.name] = metricValue{v, m.unit}
	}
	return out, nil
}

// pctMetric splits "<route>_p<NN>_ms" into its route and quantile.
func pctMetric(name string) (route string, q float64, ok bool) {
	base, found := strings.CutSuffix(name, "_ms")
	if !found {
		return "", 0, false
	}
	i := strings.LastIndex(base, "_p")
	if i < 0 {
		return "", 0, false
	}
	var pct int
	if _, err := fmt.Sscanf(base[i+2:], "%d", &pct); err != nil {
		return "", 0, false
	}
	return base[:i], float64(pct) / 100, true
}

func (r *runner) totals() (attempted, failed int) {
	for _, rec := range []*recorder{r.measured, r.checks} {
		for _, s := range rec.routes {
			attempted += s.sent
			failed += s.failed
		}
	}
	return attempted, failed
}

func (r *runner) failures() []string {
	var out []string
	for _, rec := range []*recorder{r.measured, r.checks} {
		out = append(out, rec.failures...)
	}
	return out
}

// record is the per-run record: host facts, configuration, and per-route
// counts with the sample count behind every percentile.
func (r *runner) record(trace int) map[string]any {
	routes := map[string]any{}
	all := newRecorder()
	all.merge(r.measured)
	all.merge(r.checks)
	for name, s := range all.routes {
		row := map[string]any{"sent": s.sent, "succeeded": s.ok, "failed": s.failed, "samples": len(s.lat)}
		sorted := append([]float64(nil), s.lat...)
		sort.Float64s(sorted)
		for _, q := range []float64{0.5, 0.9, 0.95, 0.99} {
			if v, ok := percentile(sorted, q); ok {
				row[fmt.Sprintf("p%g_ms", q*100)] = v
			}
		}
		routes[name] = row
	}
	sizes := []int{}
	for _, id := range r.data.ongoing {
		sizes = append(sizes, len(r.data.byAvail[id]))
	}
	cfg := map[string]any{
		"workload": r.w.name, "seed": r.seed, "seconds": r.seconds, "trace": trace,
		"clients": clients, "prep_rounds": prepRounds,
		"avails": len(r.data.avails), "ongoing_avails": len(r.data.ongoing),
		"rccs": len(r.data.rccs), "rccs_per_ongoing_avail": sizes,
		"rcc_scale": r.w.rccScale, "shards": r.w.shards, "replicas": r.w.replicas,
	}
	if r.w.durable() {
		cfg["fsync"] = "always"
	}
	switch r.w.name {
	case "live-mix":
		cfg["dup_every"] = dupEvery
		cfg["query_every"] = ingestCycle
		cfg["ingest_rate_per_s"] = liveIngestRate
		cfg["rollout_every_s"] = rolloutEvery.Seconds()
		cfg["generator_late_p99_ms"], cfg["generator_late_max_ms"] = r.lateness()
	}
	return map[string]any{
		"host": map[string]any{
			"nproc": runtime.NumCPU(), "gomaxprocs": runtime.GOMAXPROCS(0),
			"go": runtime.Version(), "kernel": kernel(), "wal_fs": fsType(filepath.Dir(r.work)),
		},
		"config":       cfg,
		"routes":       routes,
		"setup_rounds": r.setups,
		"train_rounds": r.trains,
		"failures":     r.failures(),
	}
}

func kernel() string {
	b, err := os.ReadFile("/proc/sys/kernel/osrelease")
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(b))
}

func fsType(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return err.Error()
	}
	names := map[int64]string{
		0xEF53: "ext4", 0x58465342: "xfs", 0x01021994: "tmpfs", 0x794c7630: "overlayfs",
		0x9123683E: "btrfs", 0x6a656a63: "fakeowner", 0x65735546: "fuse",
	}
	if n, ok := names[int64(st.Type)]; ok {
		return n
	}
	return fmt.Sprintf("0x%x", st.Type)
}
