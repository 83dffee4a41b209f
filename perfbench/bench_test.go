package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"reflect"
	"regexp"
	"sort"
	"testing"

	"domd/internal/domain"
)

func TestPercentileNeedsTenBeyond(t *testing.T) {
	sorted := make([]float64, 1000)
	for i := range sorted {
		sorted[i] = float64(i + 1)
	}
	v, ok := percentile(sorted, 0.99)
	if v != 990 || !ok {
		t.Fatalf("p99 of 1..1000 = %v ok=%v, want 990 with exactly 10 beyond", v, ok)
	}
	if _, ok := percentile(sorted[:999], 0.99); ok {
		t.Fatal("p99 of 999 samples has only 9 beyond it but was reported")
	}
	if v, ok := percentile(sorted[:200], 0.95); v != 190 || !ok {
		t.Fatalf("p95 of 200 samples = %v ok=%v, want 190 reportable", v, ok)
	}
	if _, ok := percentile(nil, 0.5); ok {
		t.Fatal("percentile of no samples reported")
	}
	if got := samplesFor(0.99); got != 1000 {
		t.Fatalf("samplesFor(0.99) = %d, want 1000", got)
	}
	if got := samplesFor(0.95); got != 200 {
		t.Fatalf("samplesFor(0.95) = %d, want 200", got)
	}
}

func TestSelfTimeUnionsOverlappingChildren(t *testing.T) {
	parent := interval{0, 100}
	// Three /fleet rows run in parallel: [10,40], [20,50] and [60,70]
	// cover 50 ns of the parent, not the 70 their durations sum to.
	kids := []interval{{20, 50}, {10, 40}, {60, 70}}
	if got := selfTime(parent, kids); got != 50 {
		t.Fatalf("self time = %d, want 50", got)
	}
	// A child outliving its parent is clipped.
	if got := selfTime(interval{0, 10}, []interval{{5, 30}}); got != 5 {
		t.Fatalf("clipped self time = %d, want 5", got)
	}
	if got := selfTime(parent, nil); got != 100 {
		t.Fatalf("childless self time = %d, want 100", got)
	}
	if got := unionLength([]interval{{0, 10}, {10, 20}, {5, 15}}); got != 20 {
		t.Fatalf("union of touching intervals = %d, want 20", got)
	}
}

func TestSpanSummaryShareCountsFanOutWork(t *testing.T) {
	spans := []span{
		{Name: "req.fleet", ID: 1, Req: 1, Start: 0, End: 100},
		{Name: "features.vector", ID: 2, Parent: 1, Req: 1, Start: 0, End: 60},
		{Name: "features.vector", ID: 3, Parent: 1, Req: 1, Start: 20, End: 80},
		{Name: "features.vector", ID: 4, Parent: 2, Req: 1, Start: 90, End: 100, Shadow: true},
	}
	a := summarize(spans)
	// Busy time: 20 ns of request self time plus 60+60 of vectors.
	if got := a.share("req.fleet", "features.vector"); math.Abs(got-130.0/140.0) > 1e-12 {
		t.Fatalf("share = %v, want 130/140", got)
	}
	if got := a.perReq("req.fleet", "features.vector"); got != 3 {
		t.Fatalf("vectors per request = %v, want 3", got)
	}
}

func TestMetricAndWorkloadNames(t *testing.T) {
	seen := map[string]bool{}
	var names []string
	for _, m := range endToEnd {
		names = append(names, m.name)
	}
	for _, m := range perLayer {
		names = append(names, m.name)
	}
	for _, w := range workloads {
		names = append(names, w.name)
	}
	for _, n := range names {
		if err := checkName(n); err != nil {
			t.Error(err)
		}
		if seen[n] {
			t.Errorf("name %q used twice", n)
		}
		seen[n] = true
	}
	if checkName("bad name") == nil || checkName("_x") == nil {
		t.Fatal("checkName accepted a malformed name")
	}
}

func TestPctMetric(t *testing.T) {
	route, q, ok := pctMetric("fleet_p90_ms")
	if route != "fleet" || q != 0.9 || !ok {
		t.Fatalf("pctMetric(fleet_p90_ms) = %q %v %v", route, q, ok)
	}
	if _, _, ok := pctMetric("setup_s"); ok {
		t.Fatal("setup_s parsed as a percentile")
	}
}

// benchmarkFile is the BENCHMARK.json schema.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func TestBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(raw) > 64<<10 {
		t.Fatalf("BENCHMARK.json is %d bytes", len(raw))
	}
	var keys map[string]json.RawMessage
	if err := json.Unmarshal(raw, &keys); err != nil {
		t.Fatal(err)
	}
	var got []string
	for k := range keys {
		got = append(got, k)
	}
	sort.Strings(got)
	want := []string{"command", "end_to_end", "paths", "per_layer", "run_seconds", "workloads"}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("keys %v, want %v", got, want)
	}
	var b benchmarkFile
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&b); err != nil {
		t.Fatal(err)
	}
	path := regexp.MustCompile(`^[A-Za-z0-9_.\-/]{1,200}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.\-]{1,16}$`)
	if len(b.Command) == 0 || len(b.Command) > 32 || len(b.Paths) < 1 || len(b.Paths) > 16 {
		t.Fatalf("command %v / paths %v out of range", b.Command, b.Paths)
	}
	for _, p := range b.Paths {
		if !path.MatchString(p) || p[0] == '/' {
			t.Errorf("bad path %q", p)
		}
	}
	if b.RunSeconds < 1 || b.RunSeconds > 60 {
		t.Errorf("run_seconds %d", b.RunSeconds)
	}
	if n := len(b.Workloads); n < 2 || n > 8 || n != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the program", n, len(workloads))
	}
	for i, w := range b.Workloads {
		if w.Name != workloads[i].name || w.Why != workloads[i].why || len(w.Why) > 200 {
			t.Errorf("workload %d: %+v does not match the program's %s", i, w, workloads[i].name)
		}
	}
	if len(b.EndToEnd) != len(endToEnd) || len(b.EndToEnd) > 16 {
		t.Fatalf("%d end_to_end metrics, the program prints %d", len(b.EndToEnd), len(endToEnd))
	}
	maxBound := 0.0
	for i, m := range b.EndToEnd {
		if m.Name != endToEnd[i].name || m.Unit != endToEnd[i].unit || m.Better != endToEnd[i].better {
			t.Errorf("end_to_end %d: %+v, program has %+v", i, m, endToEnd[i])
		}
		if !unit.MatchString(m.Unit) || m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("end_to_end %s: unit %q bound %v", m.Name, m.Unit, m.Bound)
		}
		maxBound = math.Max(maxBound, m.Bound)
	}
	if b.EndToEnd[0].Name != "setup_s" || b.EndToEnd[0].Bound != maxBound {
		t.Errorf("setup_s must come first with the largest bound")
	}
	if len(b.PerLayer) != len(perLayer) || len(b.PerLayer) > 128 {
		t.Fatalf("%d per_layer metrics, the program prints %d", len(b.PerLayer), len(perLayer))
	}
	for i, m := range b.PerLayer {
		if m.Name != perLayer[i].name || m.Unit != perLayer[i].unit || m.Better != perLayer[i].better || !unit.MatchString(m.Unit) {
			t.Errorf("per_layer %d: %+v, program has %+v", i, m, perLayer[i].metricSpec)
		}
	}
}

func TestOpStreamsRepeatPerSeed(t *testing.T) {
	if testing.Short() {
		t.Skip("generates a paper-scale dataset")
	}
	d, err := makeData(t.TempDir(), 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	draw := func(seed int64) []op {
		s := newOpStream(d, seed, 0)
		var ops []op
		for k := 0; k < 200; k++ {
			ops = append(ops, s.nextRead(), s.nextIngestMix(k))
		}
		return ops
	}
	if !reflect.DeepEqual(draw(5), draw(5)) {
		t.Fatal("the same seed drew different op sequences")
	}
	if reflect.DeepEqual(draw(5), draw(6)) {
		t.Fatal("different seeds drew the same op sequence")
	}
	ops := draw(5)
	counts := map[string]int{}
	for _, o := range ops[:2*ingestCycle*4] {
		counts[o.route]++
	}
	if counts["query"] == 0 || counts["ingest"] == 0 {
		t.Fatalf("op mix %v lacks a route", counts)
	}
}

func TestOngoingAvailsAreNormalized(t *testing.T) {
	if testing.Short() {
		t.Skip("generates a paper-scale dataset")
	}
	for _, seed := range []int64{1, 7} {
		d, err := makeData(t.TempDir(), seed, 2)
		if err != nil {
			t.Fatal(err)
		}
		var sizes []int
		start := d.avail(d.ongoing[0]).ActStart
		for _, id := range d.ongoing {
			sizes = append(sizes, len(d.byAvail[id]))
			if a := d.avail(id); a.ActStart != start || a.PlannedDuration() != ongoingPlanDays {
				t.Errorf("seed %d: avail %d starts %v planned for %d days, want %v and %d",
					seed, id, a.ActStart, a.PlannedDuration(), start, ongoingPlanDays)
			}
			for _, r := range d.byAvail[id] {
				if r.Created < start {
					t.Fatalf("seed %d: rcc %d created %v before its avail started", seed, r.ID, r.Created)
				}
			}
		}
		sort.Ints(sizes)
		for i, n := range sizes {
			if n != 2*ongoingProfile[i] {
				t.Fatalf("seed %d: ongoing sizes %v, want twice %v", seed, sizes, ongoingProfile)
			}
		}
	}
}

func TestReadRoundsCoverAvailsAndSlices(t *testing.T) {
	// One day per thousandth of a t* percent, so a date maps back to
	// its slice exactly.
	d := &dataset{}
	for id := 1; id <= numOngoing; id++ {
		d.avails = append(d.avails, domain.Avail{ID: id, PlanEnd: 100_000})
		d.ongoing = append(d.ongoing, id)
	}
	s := newOpStream(d, 9, 0)
	for round := 0; round < 3; round++ {
		avails := map[int]int{}
		slices := map[int]int{}
		for k := 0; k < numOngoing*dateStrata; k++ {
			o := s.nextRoute("query")
			avails[o.avail]++
			ts := float64(o.date) / 1000
			slices[int((ts-tStarLo)/(tStarHi-tStarLo)*dateStrata)]++
		}
		for _, id := range d.ongoing {
			if avails[id] != dateStrata {
				t.Fatalf("round %d: avail counts %v, want each %d", round, avails, dateStrata)
			}
		}
		for k := 0; k < dateStrata; k++ {
			if slices[k] != numOngoing {
				t.Fatalf("round %d: t* slice counts %v, want each %d", round, slices, numOngoing)
			}
		}
	}
}

// samplesFor reports the smallest sample count for which percentile(q)
// is reportable; the probe sizes are checked against it.
func samplesFor(q float64) int {
	for n := 1; ; n++ {
		rank := int(math.Ceil(q*float64(n))) - 1
		if n-1-rank >= minTail {
			return n
		}
	}
}

var metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// checkName reports a metric or workload name BENCHMARK.json does not
// admit.
func checkName(name string) error {
	if !metricName.MatchString(name) {
		return fmt.Errorf("name %q does not match %s", name, metricName)
	}
	return nil
}
