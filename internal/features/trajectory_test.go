package features

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"

	"domd/internal/domain"
	"domd/internal/index"
	"domd/internal/statusq"
)

// The trajectory suite proves the serving-path cache exact: every vector
// Extractor.Trajectory serves, at whatever revision it reports, is bitwise
// the from-scratch Vector over an engine freshly built from that many
// RCCs of the history — across random ingest streams that arrive in
// order, back-dated, or created and settled on one (grid) day.

// trajAvail is the fixture avail: 400 planned days, so the gap-25 and
// gap-10 grids land on whole days and same-day RCCs can hit them exactly.
func trajAvail() *domain.Avail {
	return &domain.Avail{ID: 7, Status: domain.StatusOngoing, ShipClass: 2, RMC: 1, ShipAge: 11,
		PlanStart: 0, PlanEnd: 400, ActStart: 0, PlannedCost: 4e6, PriorAvails: 3, HomeportDist: 90}
}

// trajRCC draws one RCC of avail a created on day created.
func trajRCC(rng *rand.Rand, a *domain.Avail, id int, created, settled domain.Day) domain.RCC {
	return domain.RCC{
		ID: id, AvailID: a.ID,
		Type:    domain.RCCType(rng.Intn(domain.NumRCCTypes)),
		SWLIN:   rng.Intn(100_000_000),
		Created: created, Settled: settled,
		Amount: math.Trunc(rng.Float64()*1e6) / 100,
	}
}

// trajStream draws n ingests after base (ids continue from len(base)).
// "in-order" never creates before the latest creation so far;
// "back-dated" creates anywhere in the avail; "same-day" creates and
// settles on one day, half the time exactly on a gap-25 or gap-10 grid
// day.
func trajStream(rng *rand.Rand, a *domain.Avail, base []domain.RCC, mode string, n int) []domain.RCC {
	latest := domain.Day(0)
	for _, r := range base {
		if r.Created > latest {
			latest = r.Created
		}
	}
	var out []domain.RCC
	for i := 0; i < n; i++ {
		id := len(base) + i + 1
		var r domain.RCC
		switch mode {
		case "in-order":
			latest += domain.Day(rng.Intn(8))
			r = trajRCC(rng, a, id, latest, latest+domain.Day(rng.Intn(90)))
		case "back-dated":
			c := domain.Day(rng.Intn(440))
			r = trajRCC(rng, a, id, c, c+domain.Day(rng.Intn(90)))
		case "same-day":
			c := domain.Day(rng.Intn(440))
			if rng.Intn(2) == 0 {
				c = a.PhysicalTime(float64(10 * rng.Intn(11)))
			}
			r = trajRCC(rng, a, id, c, c)
		default:
			panic(mode)
		}
		out = append(out, r)
	}
	return out
}

// trajBase is a 40-RCC history over the first half of the avail.
func trajBase(rng *rand.Rand, a *domain.Avail) []domain.RCC {
	base := make([]domain.RCC, 40)
	for i := range base {
		c := domain.Day(rng.Intn(200))
		base[i] = trajRCC(rng, a, i+1, c, c+domain.Day(rng.Intn(120)))
	}
	return base
}

// trajGrids are the grids a two-window gap-25 version walks (both
// windows, each at every t* prefix, the second also past plan) plus the
// gap-10 grid of `domd serve`.
func trajGrids() [][]float64 {
	var out [][]float64
	for _, g := range [][]float64{{0, 25, 50}, {50, 75, 100}, TimestampGrid(10)} {
		for k := 1; k <= len(g); k++ {
			out = append(out, g[:k])
		}
	}
	return out
}

// scratchVectors is the reference: Vector at each grid point over an
// engine freshly built from hist.
func scratchVectors(t testing.TB, ext *Extractor, a *domain.Avail, hist []domain.RCC, grid []float64) [][]float64 {
	t.Helper()
	eng, err := statusq.NewEngine(a, hist, index.KindAVL)
	if err != nil {
		t.Fatal(err)
	}
	out := make([][]float64, len(grid))
	for k, ts := range grid {
		if out[k], err = ext.Vector(eng, ts); err != nil {
			t.Fatal(err)
		}
	}
	return out
}

// sameVectors reports the first bitwise difference between two vector
// lists, or "".
func sameVectors(got, want [][]float64) string {
	if len(got) != len(want) {
		return fmt.Sprintf("%d vectors, want %d", len(got), len(want))
	}
	for k := range want {
		if len(got[k]) != len(want[k]) {
			return fmt.Sprintf("slot %d: width %d, want %d", k, len(got[k]), len(want[k]))
		}
		for j := range want[k] {
			if math.Float64bits(got[k][j]) != math.Float64bits(want[k][j]) {
				return fmt.Sprintf("slot %d feature %d: %v, want %v", k, j, got[k][j], want[k][j])
			}
		}
	}
	return ""
}

// TestTrajectoryDifferential applies each random stream to one live
// engine through ApplyRCC and, after every ingest, walks random grids
// (twice, so hits are checked too) against the scratch reference over
// the same history prefix.
func TestTrajectoryDifferential(t *testing.T) {
	ext := NewExtractor()
	grids := trajGrids()
	for _, mode := range []string{"in-order", "back-dated", "same-day"} {
		t.Run(mode, func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(len(mode))))
			a := trajAvail()
			base := trajBase(rng, a)
			stream := trajStream(rng, a, base, mode, 30)
			hist := append([]domain.RCC(nil), base...)
			eng, err := statusq.NewEngine(a, append([]domain.RCC(nil), base...), index.KindAVL)
			if err != nil {
				t.Fatal(err)
			}
			hits0, fills0 := mTrajectoryHits.Value(), mTrajectoryFills.Value()
			for i := 0; i <= len(stream); i++ {
				if i > 0 {
					r := stream[i-1]
					if err := eng.ApplyRCC(r); err != nil {
						t.Fatal(err)
					}
					hist = append(hist, r)
				}
				for _, grid := range [][]float64{grids[rng.Intn(len(grids))], grids[rng.Intn(len(grids))]} {
					for rep := 0; rep < 2; rep++ {
						got, rev, err := ext.Trajectory(eng, grid)
						if err != nil {
							t.Fatal(err)
						}
						if rev != int64(len(hist)) {
							t.Fatalf("ingest %d: revision %d, want %d", i, rev, len(hist))
						}
						if diff := sameVectors(got, scratchVectors(t, ext, a, hist, grid)); diff != "" {
							t.Fatalf("ingest %d grid %v: %s", i, grid, diff)
						}
					}
				}
			}
			if mTrajectoryHits.Value() == hits0 || mTrajectoryFills.Value() == fills0 {
				t.Fatalf("hits %d, fills %d: both paths must run", mTrajectoryHits.Value()-hits0, mTrajectoryFills.Value()-fills0)
			}
		})
	}
}

// TestTrajectoryDropsOnIngest pins the cache's invalidation rule: at
// one revision a walk in another window keeps the cached vectors (the
// very same ones) and fills only its own slots, and any ingest drops the
// whole trajectory, so the next walk recomputes every slot.
func TestTrajectoryDropsOnIngest(t *testing.T) {
	ext := NewExtractor()
	rng := rand.New(rand.NewSource(3))
	a := trajAvail()
	eng, err := statusq.NewEngine(a, trajBase(rng, a), index.KindAVL)
	if err != nil {
		t.Fatal(err)
	}
	first, second := []float64{0, 25, 50}, []float64{50, 75, 100}
	before, _, err := ext.Trajectory(eng, first)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := ext.Trajectory(eng, second); err != nil {
		t.Fatal(err)
	}
	kept, _, err := ext.Trajectory(eng, first)
	if err != nil {
		t.Fatal(err)
	}
	for k := range first {
		if &kept[k][0] != &before[k][0] {
			t.Errorf("slot %d (t*=%g) recomputed by a walk in the other window", k, first[k])
		}
	}

	// Created after the whole grid, so no vector changes; dropped anyway.
	late := a.PhysicalTime(100) + 1
	id := eng.NumRCCs() + 1
	if err := eng.ApplyRCC(trajRCC(rng, a, id, late, late)); err != nil {
		t.Fatal(err)
	}
	trunc0 := mTrajectoryTruncations.Value()
	after, rev, err := ext.Trajectory(eng, first)
	if err != nil {
		t.Fatal(err)
	}
	if rev != int64(id) {
		t.Fatalf("revision %d, want %d", rev, id)
	}
	for k := range first {
		if &after[k][0] == &before[k][0] {
			t.Errorf("slot %d (t*=%g) kept across an ingest", k, first[k])
		}
	}
	if got := mTrajectoryTruncations.Value() - trunc0; got != 1 {
		t.Fatalf("truncations %d, want 1", got)
	}
	if diff := sameVectors(after, scratchVectors(t, ext, a, eng.History(), first)); diff != "" {
		t.Fatal(diff)
	}
}

// TestTrajectoryBudget shrinks the byte budget to two trajectories and
// walks four engines: the two published longest ago are dropped, the
// resident total stays within the budget, and an evicted engine refills
// exactly on its next walk.
func TestTrajectoryBudget(t *testing.T) {
	ext := NewExtractor()
	rng := rand.New(rand.NewSource(5))
	grid := TimestampGrid(10)
	one := int64(8 * len(grid) * (1 + NumStatic + len(ext.specs)))
	defer func(b int64) { trajectoryBudget = b }(trajectoryBudget)
	trajectoryBudget = 2 * one

	a := trajAvail()
	var engs []*statusq.Engine
	evict0 := mTrajectoryEvictions.Value()
	for i := 0; i < 4; i++ {
		eng, err := statusq.NewEngine(a, trajBase(rng, a), index.KindAVL)
		if err != nil {
			t.Fatal(err)
		}
		if _, _, err := ext.Trajectory(eng, grid); err != nil {
			t.Fatal(err)
		}
		engs = append(engs, eng)
	}
	for i, eng := range engs {
		if cached := trajectoryOf(eng).snap.Load() != nil; cached != (i >= 2) {
			t.Errorf("engine %d: cached=%v, want %v", i, cached, i >= 2)
		}
	}
	if mTrajectoryEvictions.Value()-evict0 < 2 {
		t.Errorf("evictions %d, want at least 2", mTrajectoryEvictions.Value()-evict0)
	}
	if got := mTrajectoryBytes.Value(); got > trajectoryBudget {
		t.Errorf("resident %d bytes, budget %d", got, trajectoryBudget)
	}
	got, _, err := ext.Trajectory(engs[0], grid)
	if err != nil {
		t.Fatal(err)
	}
	if diff := sameVectors(got, scratchVectors(t, ext, a, engs[0].History(), grid)); diff != "" {
		t.Fatal(diff)
	}
}

// TestTrajectoryRejectsBadGrid refuses grids the forward sweep cannot
// walk.
func TestTrajectoryRejectsBadGrid(t *testing.T) {
	ext := NewExtractor()
	a := trajAvail()
	eng, err := statusq.NewEngine(a, trajBase(rand.New(rand.NewSource(1)), a), index.KindAVL)
	if err != nil {
		t.Fatal(err)
	}
	for _, grid := range [][]float64{nil, {50, 25}, {25, 25}} {
		if _, _, err := ext.Trajectory(eng, grid); err == nil {
			t.Errorf("grid %v: no error", grid)
		}
	}
}

// TestConcurrentTrajectoryReaders runs many readers on one engine while
// a writer ingests a back-dated stream into it: every answer must be one
// revision's exact vectors, whatever the interleaving (run under -race).
func TestConcurrentTrajectoryReaders(t *testing.T) {
	ext := NewExtractor()
	rng := rand.New(rand.NewSource(9))
	a := trajAvail()
	base := trajBase(rng, a)
	stream := trajStream(rng, a, base, "back-dated", 24)
	full := append(append([]domain.RCC(nil), base...), stream...)
	eng, err := statusq.NewEngine(a, append([]domain.RCC(nil), base...), index.KindAVL)
	if err != nil {
		t.Fatal(err)
	}
	grids := trajGrids()

	// want memoizes the scratch reference per (revision, grid).
	var mu sync.Mutex
	ref := map[string][][]float64{}
	want := func(rev int64, grid []float64) [][]float64 {
		key := fmt.Sprint(rev, grid)
		mu.Lock()
		v, ok := ref[key]
		mu.Unlock()
		if !ok {
			v = scratchVectors(t, ext, a, full[:rev], grid)
			mu.Lock()
			ref[key] = v
			mu.Unlock()
		}
		return v
	}

	const readers = 8
	done := make(chan struct{})
	errs := make(chan error, readers)
	var wg sync.WaitGroup
	for g := 0; g < readers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-done:
					errs <- nil
					return
				default:
				}
				grid := grids[(g*7+i)%len(grids)]
				got, rev, err := ext.Trajectory(eng, grid)
				if err != nil {
					errs <- err
					return
				}
				if rev < int64(len(base)) || rev > int64(len(full)) {
					errs <- fmt.Errorf("reader %d: revision %d outside [%d,%d]", g, rev, len(base), len(full))
					return
				}
				if diff := sameVectors(got, want(rev, grid)); diff != "" {
					errs <- fmt.Errorf("reader %d rev %d grid %v: %s", g, rev, grid, diff)
					return
				}
			}
		}(g)
	}
	for i, r := range stream {
		if err := eng.ApplyRCC(r); err != nil {
			t.Fatal(err)
		}
		// The writer reads too, so every revision is served at least once.
		if _, _, err := ext.Trajectory(eng, grids[i%len(grids)]); err != nil {
			t.Fatal(err)
		}
	}
	close(done)
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
}
