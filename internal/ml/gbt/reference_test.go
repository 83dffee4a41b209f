package gbt

import (
	"bytes"
	"cmp"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"domd/internal/ml"
	"domd/internal/ml/loss"
	"domd/internal/ml/tree"
)

// referenceGrower grows every round's tree with a sort at every node, by
// the (value, row) order tree.NewOrder uses. It is the booster-level twin
// of the tree package's test reference (test code is not importable across
// packages): nothing is sorted ahead of the round.
func referenceGrower(p Params, X [][]float64) grower {
	cfg := p.treeConfig()
	return func(g, h []float64, rows, cols []int) (*tree.Node, error) {
		return referenceGrow(cfg, X, g, h, slices.Clone(rows), cols, 0), nil
	}
}

func referenceGrow(cfg tree.Config, X [][]float64, g, h []float64, rows, cols []int, depth int) *tree.Node {
	var G, H float64
	for _, i := range rows {
		G += g[i]
		H += h[i]
	}
	leaf := &tree.Node{Feature: -1, Weight: -G / (H + cfg.Lambda)}
	if depth >= cfg.MaxDepth || len(rows) < cfg.MinSamplesSplit {
		return leaf
	}
	lam := cfg.Lambda
	parentScore := G * G / (H + lam)
	var best *tree.Node
	order := make([]int, len(rows))
	for _, f := range cols {
		copy(order, rows)
		slices.SortFunc(order, func(a, b int) int {
			if c := cmp.Compare(X[a][f], X[b][f]); c != 0 {
				return c
			}
			return cmp.Compare(a, b)
		})
		var GL, HL float64
		for k := 0; k < len(order)-1; k++ {
			i := order[k]
			GL += g[i]
			HL += h[i]
			v, next := X[i][f], X[order[k+1]][f]
			if v == next { // no split point between equal values
				continue
			}
			GR, HR := G-GL, H-HL
			if HL < cfg.MinChildWeight || HR < cfg.MinChildWeight {
				continue
			}
			gain := 0.5*(GL*GL/(HL+lam)+GR*GR/(HR+lam)-parentScore) - cfg.Gamma
			if gain <= 0 || (best != nil && gain <= best.Gain) {
				continue
			}
			mid := v + (next-v)/2
			if mid == v { // adjacent floats: fall back to next
				mid = next
			}
			best = &tree.Node{Feature: f, Threshold: mid, Gain: gain}
		}
	}
	if best == nil {
		return leaf
	}
	var left, right []int
	for _, i := range rows {
		if X[i][best.Feature] < best.Threshold {
			left = append(left, i)
		} else {
			right = append(right, i)
		}
	}
	if len(left) == 0 || len(right) == 0 {
		return leaf
	}
	best.Left = referenceGrow(cfg, X, g, h, left, cols, depth+1)
	best.Right = referenceGrow(cfg, X, g, h, right, cols, depth+1)
	return best
}

// tieHeavy draws n rows of p small-integer features (so most candidate
// thresholds sit between runs of equal values) and a target with outliers.
func tieHeavy(rng *rand.Rand, n, p int) *ml.Dataset {
	d := &ml.Dataset{X: make([][]float64, n), Y: make([]float64, n)}
	for i := range d.X {
		d.X[i] = make([]float64, p)
		for f := range d.X[i] {
			d.X[i][f] = float64(rng.Intn(4 + f))
		}
		d.Y[i] = 10*d.X[i][0] - 5*d.X[i][p-1] + rng.NormFloat64()*3
		if rng.Intn(15) == 0 {
			d.Y[i] += 200
		}
	}
	return d
}

// TestFitMatchesReference checks Fit, which sorts each column once and
// reuses the orders in every round, bitwise against boosters grown on the
// per-node-sort reference: ℓ2 (Newton leaves) and pseudo-Huber (TreeBoost
// leaf refit), with row and column subsampling so every round's tree sees
// different rows in random order.
func TestFitMatchesReference(t *testing.T) {
	ph, err := loss.NewPseudoHuber(loss.PaperDelta)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(14))
	for trial := 0; trial < 6; trial++ {
		d := tieHeavy(rng, 40+rng.Intn(80), 3+rng.Intn(8))
		for _, l := range []loss.Loss{loss.Squared{}, ph} {
			p := DefaultParams()
			p.NumRounds = 30
			p.MaxDepth = 2 + trial%4
			p.Subsample = 0.7
			p.ColsampleByTree = 0.6
			p.Seed = int64(trial)
			got, err := Fit(p, l, d)
			if err != nil {
				t.Fatal(err)
			}
			want, err := fit(p, l, d, referenceGrower(p, d.X))
			if err != nil {
				t.Fatal(err)
			}
			for i, row := range d.X {
				if a, b := got.Predict(row), want.Predict(row); math.Float64bits(a) != math.Float64bits(b) {
					t.Fatalf("trial %d %s: row %d predicts %v, reference %v", trial, l.Name(), i, a, b)
				}
			}
			gotJSON, _ := json.Marshal(got)
			wantJSON, _ := json.Marshal(want)
			if !bytes.Equal(gotJSON, wantJSON) {
				t.Fatalf("trial %d %s: serialized ensembles differ", trial, l.Name())
			}
		}
	}
}

func TestFitRejectsNonFinite(t *testing.T) {
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		for _, where := range []string{"X", "Y"} {
			d := tieHeavy(rand.New(rand.NewSource(1)), 10, 3)
			d.Names = []string{"a", "b", "c"}
			want := "row 4"
			if where == "X" {
				d.X[4][2] = bad
				want = "row 4, column 2 (c)"
			} else {
				d.Y[4] = bad
			}
			for _, method := range []string{"exact", "hist"} {
				p := DefaultParams()
				p.TreeMethod = method
				_, err := Fit(p, nil, d)
				if err == nil || !strings.Contains(err.Error(), want) {
					t.Errorf("%s %v in %s: error %v, want one naming %q", method, bad, where, err, want)
				}
			}
		}
	}
}

// BenchmarkGBTFit times one booster fit at the size of a serving slot
// model: 99 training rows × 68 columns, 100 rounds of depth 4 under the
// paper's pseudo-Huber(18) loss, for both split finders.
func BenchmarkGBTFit(b *testing.B) {
	ph, err := loss.NewPseudoHuber(loss.PaperDelta)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	d := &ml.Dataset{X: make([][]float64, 99), Y: make([]float64, 99)}
	for i := range d.X {
		d.X[i] = make([]float64, 68)
		for f := range d.X[i] {
			if f%2 == 0 { // count-like columns tie often
				d.X[i][f] = float64(rng.Intn(12))
			} else {
				d.X[i][f] = rng.NormFloat64()
			}
		}
		d.Y[i] = 40*d.X[i][0] + 25*d.X[i][1] + rng.NormFloat64()*20
	}
	for _, method := range []string{"exact", "hist"} {
		b.Run(fmt.Sprintf("method=%s", method), func(b *testing.B) {
			p := DefaultParams()
			p.TreeMethod = method
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := Fit(p, ph, d); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
