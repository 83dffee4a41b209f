package features

import (
	"container/list"
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"

	"domd/internal/domain"
	"domd/internal/statusq"
)

// trajectory is one engine's cached feature trajectory: the full vector
// F_{i,t*} at every grid timestamp a walk has asked for, valid at one
// engine revision. It lives in the engine's statusq.Engine.Memo slot, so
// it is dropped with the engine when the catalog rebuilds it.
//
// Readers load the published snapshot with one atomic read and never
// lock (a hit). A reader that finds the snapshot behind the engine's
// revision, or missing a timestamp, takes mu, so concurrent misses on one
// engine run one fill between them (single flight), and publishes a new
// copy-on-write snapshot. Published snapshots are never mutated.
type trajectory struct {
	mu   sync.Mutex // serializes fills; hits never take it
	snap atomic.Pointer[trajSnapshot]

	// Guarded by resident.mu: the snapshot's charge against
	// trajectoryBudget and its place in resident.order.
	size int64
	elem *list.Element
}

// trajSnapshot is one immutable trajectory state: the vectors at the
// ascending timestamps ts, all as of engine revision rev.
type trajSnapshot struct {
	rev  int64
	ts   []float64
	vecs [][]float64
}

// bytes is the snapshot's footprint charged against trajectoryBudget.
func (s *trajSnapshot) bytes() int64 {
	n := len(s.ts)
	for _, v := range s.vecs {
		n += len(v)
	}
	return 8 * int64(n)
}

// lookup returns the snapshot's vectors at the ascending grid timestamps,
// or false when one of them is not cached. Timestamps match by their
// exact bits: a cached vector belongs to one logical time, and the Rate
// features divide by it.
func (s *trajSnapshot) lookup(grid []float64) ([][]float64, bool) {
	out := make([][]float64, len(grid))
	i := sort.SearchFloat64s(s.ts, grid[0])
	for k, t := range grid {
		for i < len(s.ts) && s.ts[i] < t {
			i++
		}
		if i == len(s.ts) || math.Float64bits(s.ts[i]) != math.Float64bits(t) {
			return nil, false
		}
		out[k] = s.vecs[i]
	}
	return out, true
}

// trajectoryBudget bounds the bytes of cached trajectories across all
// engines: 16 MiB holds the 11-slot gap-10 trajectories of about 128
// engines. Past it, the trajectories published longest ago are dropped
// and their engines refill on their next walk, so a sweep over every
// avail of a large fleet cannot grow memory without bound.
var trajectoryBudget int64 = 16 << 20

// resident tracks every trajectory holding a snapshot, most recently
// published first, and their total size. It is process-wide because the
// trajectories are: every Extractor and every catalog's engines share
// one budget, as they share one heap.
var resident struct {
	mu    sync.Mutex
	order list.List // of *trajectory
	bytes int64
}

// publish makes s tr's snapshot and charges it to trajectoryBudget,
// dropping the snapshots of other trajectories, published longest ago
// first, while the total is over it.
func publish(tr *trajectory, s *trajSnapshot) {
	size := s.bytes()
	resident.mu.Lock()
	defer resident.mu.Unlock()
	tr.snap.Store(s)
	resident.bytes += size - tr.size
	tr.size = size
	if tr.elem == nil {
		tr.elem = resident.order.PushFront(tr)
	} else {
		resident.order.MoveToFront(tr.elem)
	}
	for resident.bytes > trajectoryBudget && resident.order.Back() != tr.elem {
		old := resident.order.Remove(resident.order.Back()).(*trajectory)
		old.snap.Store(nil)
		resident.bytes -= old.size
		old.size, old.elem = 0, nil
		mTrajectoryEvictions.Inc()
	}
	mTrajectoryBytes.Set(resident.bytes)
}

// trajectoryOf returns eng's trajectory, creating an empty one on first
// use.
func trajectoryOf(eng *statusq.Engine) *trajectory {
	return eng.Memo(func() any { return new(trajectory) }).(*trajectory)
}

// Trajectory returns the full feature vectors at the strictly ascending
// grid timestamps, served from eng's cached trajectory, and the engine
// revision (its RCC count, statusq.Engine.NumRCCs) they were all
// computed at. Each vector is bitwise equal to Vector over an engine
// freshly built from the first rev RCCs of eng's history. The vectors
// are shared by every reader of eng: do not mutate them.
//
// This is the paper's incremental Status Query computation (§4.3) on the
// serving path. Missing timestamps are filled by one forward
// statusq.CellSweep (DynamicVectorInto), not by a per-timestamp index
// retrieval. An ingest moves the engine's revision on, and the next walk
// drops the whole trajectory and sweeps afresh. Every Extractor lays out
// the same registry, so the cache is shared across extractors.
func (e *Extractor) Trajectory(eng *statusq.Engine, grid []float64) ([][]float64, int64, error) {
	if len(grid) == 0 {
		return nil, 0, fmt.Errorf("features: empty trajectory grid")
	}
	for k := 1; k < len(grid); k++ {
		if !(grid[k-1] < grid[k]) {
			return nil, 0, fmt.Errorf("features: trajectory grid not strictly ascending at %d: %v", k, grid)
		}
	}
	tr := trajectoryOf(eng)
	if s := tr.snap.Load(); s != nil && s.rev == int64(eng.NumRCCs()) {
		if vecs, ok := s.lookup(grid); ok {
			mTrajectoryHits.Inc()
			return vecs, s.rev, nil
		}
	}
	tr.mu.Lock()
	defer tr.mu.Unlock()
	s, err := e.fill(tr, eng, grid)
	if err != nil {
		return nil, 0, err
	}
	vecs, ok := s.lookup(grid)
	if !ok {
		return nil, 0, fmt.Errorf("features: trajectory fill missed grid %v", grid)
	}
	return vecs, s.rev, nil
}

// fill brings the trajectory up to the engine's current revision and
// makes it cover grid, then publishes and returns the new snapshot.
// Callers hold tr.mu.
func (e *Extractor) fill(tr *trajectory, eng *statusq.Engine, grid []float64) (*trajSnapshot, error) {
	rccs := eng.History()
	next := &trajSnapshot{rev: int64(len(rccs))}
	// keep is the snapshot whose vectors stay: only one at this revision.
	keep := tr.snap.Load()
	if keep != nil && keep.rev != next.rev {
		mTrajectoryTruncations.Inc()
		keep = nil
	}
	if keep != nil {
		// A concurrent miss may have filled it while we waited.
		if _, ok := keep.lookup(grid); ok {
			mTrajectoryHits.Inc()
			return keep, nil
		}
	} else {
		keep = &trajSnapshot{}
	}
	// Merge grid into the kept timestamps; missing indexes the new slots.
	var missing []int
	i := 0
	for _, t := range grid {
		for i < len(keep.ts) && keep.ts[i] < t {
			next.ts, next.vecs = append(next.ts, keep.ts[i]), append(next.vecs, keep.vecs[i])
			i++
		}
		if i < len(keep.ts) && math.Float64bits(keep.ts[i]) == math.Float64bits(t) {
			continue
		}
		missing = append(missing, len(next.ts))
		next.ts, next.vecs = append(next.ts, t), append(next.vecs, nil)
	}
	next.ts, next.vecs = append(next.ts, keep.ts[i:]...), append(next.vecs, keep.vecs[i:]...)
	if err := e.sweepInto(next, missing, eng.Avail(), rccs); err != nil {
		return nil, err
	}
	mTrajectoryFills.Inc()
	publish(tr, next)
	return next, nil
}

// sweepInto computes the vectors at next.ts[missing[j]] with one fresh
// forward CellSweep over rccs. missing is ascending, so the sweep only
// moves forward.
func (e *Extractor) sweepInto(next *trajSnapshot, missing []int, a *domain.Avail, rccs []domain.RCC) error {
	sw, err := statusq.NewCellSweep(a, rccs)
	if err != nil {
		return fmt.Errorf("features: avail %d: %w", a.ID, err)
	}
	static := StaticVector(a)
	for _, j := range missing {
		vec := make([]float64, NumStatic+len(e.specs))
		copy(vec, static)
		if err := e.DynamicVectorInto(vec[NumStatic:], sw, next.ts[j]); err != nil {
			return fmt.Errorf("features: avail %d @%g: %w", a.ID, next.ts[j], err)
		}
		next.vecs[j] = vec
	}
	return nil
}
