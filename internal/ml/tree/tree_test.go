package tree

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// fitCART grows a classical regression tree on (X, y): g = -y, h = 1,
// lambda = 0 makes each leaf the mean of its targets.
func fitCART(t *testing.T, cfg Config, X [][]float64, y []float64) *Node {
	t.Helper()
	g := make([]float64, len(y))
	h := make([]float64, len(y))
	rows := make([]int, len(y))
	for i := range y {
		g[i] = -y[i]
		h[i] = 1
		rows[i] = i
	}
	features := make([]int, len(X[0]))
	for j := range features {
		features[j] = j
	}
	n, err := Build(cfg, mustOrder(t, X), g, h, rows, features)
	if err != nil {
		t.Fatal(err)
	}
	return n
}

func mustOrder(t *testing.T, X [][]float64) *Order {
	t.Helper()
	o, err := NewOrder(X)
	if err != nil {
		t.Fatal(err)
	}
	return o
}

func TestSingleLeafIsMean(t *testing.T) {
	X := [][]float64{{1}, {2}, {3}}
	y := []float64{10, 20, 30}
	cfg := DefaultConfig()
	cfg.MaxDepth = 0
	cfg.Lambda = 0
	n := fitCART(t, cfg, X, y)
	if !n.IsLeaf() {
		t.Fatal("depth-0 tree must be a leaf")
	}
	if math.Abs(n.Weight-20) > 1e-12 {
		t.Errorf("leaf weight = %f, want mean 20", n.Weight)
	}
}

func TestPerfectStepFunction(t *testing.T) {
	// y = 0 for x<5, y = 100 for x>=5: one split suffices.
	var X [][]float64
	var y []float64
	for i := 0; i < 10; i++ {
		X = append(X, []float64{float64(i)})
		if i < 5 {
			y = append(y, 0)
		} else {
			y = append(y, 100)
		}
	}
	cfg := DefaultConfig()
	cfg.Lambda = 0
	cfg.MinChildWeight = 0
	n := fitCART(t, cfg, X, y)
	for i, row := range X {
		if got := n.Predict(row); math.Abs(got-y[i]) > 1e-9 {
			t.Errorf("Predict(%v) = %f, want %f", row, got, y[i])
		}
	}
	if n.IsLeaf() {
		t.Error("tree should have split")
	}
	if n.Feature != 0 || n.Threshold <= 4 || n.Threshold > 5 {
		t.Errorf("split = feature %d @ %f, want feature 0 in (4,5]", n.Feature, n.Threshold)
	}
}

func TestPicksInformativeFeature(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	n := 200
	X := make([][]float64, n)
	y := make([]float64, n)
	for i := range X {
		informative := rng.Float64()
		noise := rng.Float64()
		X[i] = []float64{noise, informative}
		if informative > 0.5 {
			y[i] = 50
		}
	}
	cfg := DefaultConfig()
	cfg.MaxDepth = 1
	root := fitCART(t, cfg, X, y)
	if root.IsLeaf() || root.Feature != 1 {
		t.Errorf("root split on feature %d, want informative feature 1", root.Feature)
	}
	imp := make([]float64, 2)
	root.AccumImportances(imp)
	if imp[1] <= imp[0] {
		t.Errorf("importances %v: informative feature should dominate", imp)
	}
}

func TestMaxDepthRespected(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	n := 300
	X := make([][]float64, n)
	y := make([]float64, n)
	for i := range X {
		X[i] = []float64{rng.Float64(), rng.Float64(), rng.Float64()}
		y[i] = rng.NormFloat64() * 10
	}
	for _, depth := range []int{1, 2, 3, 4} {
		cfg := DefaultConfig()
		cfg.MaxDepth = depth
		cfg.Gamma = 0
		root := fitCART(t, cfg, X, y)
		if d := root.Depth(); d > depth {
			t.Errorf("Depth() = %d, want <= %d", d, depth)
		}
		if l := root.NumLeaves(); l > 1<<depth {
			t.Errorf("NumLeaves() = %d, want <= %d", l, 1<<depth)
		}
	}
}

func TestGammaPrunesWeakSplits(t *testing.T) {
	// Nearly-constant target: any split gain is tiny, so a large gamma
	// must leave a single leaf.
	rng := rand.New(rand.NewSource(3))
	n := 100
	X := make([][]float64, n)
	y := make([]float64, n)
	for i := range X {
		X[i] = []float64{rng.Float64()}
		y[i] = 5 + 0.001*rng.NormFloat64()
	}
	cfg := DefaultConfig()
	cfg.Gamma = 100
	root := fitCART(t, cfg, X, y)
	if !root.IsLeaf() {
		t.Error("large gamma should suppress all splits")
	}
}

func TestMinChildWeightBlocksTinyLeaves(t *testing.T) {
	X := [][]float64{{0}, {1}, {2}, {3}}
	y := []float64{0, 0, 0, 100}
	cfg := DefaultConfig()
	cfg.Lambda = 0
	cfg.MinChildWeight = 2 // unit hessians: each child needs >= 2 rows
	root := fitCART(t, cfg, X, y)
	var walk func(n *Node, rows int)
	// With 4 rows and min 2 per child, only the middle split is legal.
	if !root.IsLeaf() && root.Threshold != 1.5 && root.Threshold != 2 {
		t.Errorf("split threshold %f should be the middle split", root.Threshold)
	}
	_ = walk
}

func TestLambdaShrinksLeaves(t *testing.T) {
	X := [][]float64{{1}, {2}}
	y := []float64{10, 10}
	cfg := DefaultConfig()
	cfg.MaxDepth = 0
	cfg.Lambda = 0
	unshrunk := fitCART(t, cfg, X, y)
	cfg.Lambda = 2
	shrunk := fitCART(t, cfg, X, y)
	if !(math.Abs(shrunk.Weight) < math.Abs(unshrunk.Weight)) {
		t.Errorf("lambda must shrink leaf: %f vs %f", shrunk.Weight, unshrunk.Weight)
	}
	// -G/(H+λ) = 20/(2+2) = 5.
	if math.Abs(shrunk.Weight-5) > 1e-12 {
		t.Errorf("shrunk weight = %f, want 5", shrunk.Weight)
	}
}

func TestBuildErrors(t *testing.T) {
	X := mustOrder(t, [][]float64{{1}})
	if _, err := Build(Config{MaxDepth: -1}, X, []float64{1}, []float64{1}, []int{0}, []int{0}); err == nil {
		t.Error("negative depth: want error")
	}
	if _, err := Build(DefaultConfig(), X, []float64{1, 2}, []float64{1}, []int{0}, []int{0}); err == nil {
		t.Error("gradient length mismatch: want error")
	}
	if _, err := Build(DefaultConfig(), X, []float64{1}, []float64{1}, nil, []int{0}); err == nil {
		t.Error("no rows: want error")
	}
	if _, err := Build(DefaultConfig(), nil, []float64{1}, []float64{1}, []int{0}, []int{0}); err == nil {
		t.Error("nil order: want error")
	}
	if _, err := Build(DefaultConfig(), X, []float64{1}, []float64{1}, []int{1}, []int{0}); err == nil {
		t.Error("row out of range: want error")
	}
	if _, err := Build(DefaultConfig(), X, []float64{1}, []float64{1}, []int{0}, []int{1}); err == nil {
		t.Error("feature out of range: want error")
	}
	if _, err := NewOrder(nil); err == nil {
		t.Error("empty matrix: want error")
	}
	for _, bad := range []Config{{Lambda: -1}, {Gamma: -1}, {MinChildWeight: -1}} {
		if err := bad.Validate(); err == nil {
			t.Errorf("Validate(%+v): want error", bad)
		}
	}
}

func TestConstantFeatureNeverSplits(t *testing.T) {
	X := [][]float64{{7}, {7}, {7}, {7}}
	y := []float64{1, 2, 3, 4}
	cfg := DefaultConfig()
	cfg.MinChildWeight = 0
	root := fitCART(t, cfg, X, y)
	if !root.IsLeaf() {
		t.Error("constant feature cannot be split")
	}
}

// TestQuickPredictionsWithinTargetRange: with lambda=0 every leaf is a mean
// of training targets, so predictions must lie within [min(y), max(y)].
func TestQuickPredictionsWithinTargetRange(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 10 + rng.Intn(60)
		X := make([][]float64, n)
		y := make([]float64, n)
		lo, hi := math.Inf(1), math.Inf(-1)
		for i := range X {
			X[i] = []float64{rng.Float64() * 10, rng.Float64() * 10}
			y[i] = rng.NormFloat64() * 100
			lo = math.Min(lo, y[i])
			hi = math.Max(hi, y[i])
		}
		g := make([]float64, n)
		h := make([]float64, n)
		rows := make([]int, n)
		for i := range y {
			g[i] = -y[i]
			h[i] = 1
			rows[i] = i
		}
		cfg := DefaultConfig()
		cfg.Lambda = 0
		cfg.MinChildWeight = 0
		root, err := Build(cfg, mustOrder(t, X), g, h, rows, []int{0, 1})
		if err != nil {
			return false
		}
		for _, row := range X {
			p := root.Predict(row)
			if p < lo-1e-9 || p > hi+1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// TestDeeperTreeFitsBetter: training error is non-increasing in depth.
func TestDeeperTreeFitsBetter(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	n := 200
	X := make([][]float64, n)
	y := make([]float64, n)
	for i := range X {
		a, b := rng.Float64(), rng.Float64()
		X[i] = []float64{a, b}
		y[i] = math.Sin(a*6)*50 + b*b*30
	}
	var prev float64 = math.Inf(1)
	for _, depth := range []int{1, 3, 6} {
		cfg := DefaultConfig()
		cfg.Lambda = 0
		cfg.MinChildWeight = 0
		root := fitCART(t, cfg, X, y)
		cfg.MaxDepth = depth
		root = fitCART(t, cfg, X, y)
		mse := 0.0
		for i, row := range X {
			d := y[i] - root.Predict(row)
			mse += d * d
		}
		mse /= float64(n)
		if mse > prev+1e-9 {
			t.Errorf("depth %d: training MSE %f worse than shallower %f", depth, mse, prev)
		}
		prev = mse
	}
}
