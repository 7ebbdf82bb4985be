package stats

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func almost(a, b, eps float64) bool { return math.Abs(a-b) <= eps }

func TestMeanStd(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if m := Mean(xs); !almost(m, 5, 1e-12) {
		t.Fatalf("Mean = %v, want 5", m)
	}
	if s := StdDev(xs); !almost(s, 2, 1e-12) {
		t.Fatalf("StdDev = %v, want 2", s)
	}
	if !math.IsNaN(Mean(nil)) || !math.IsNaN(StdDev(nil)) {
		t.Fatal("empty input must yield NaN")
	}
}

func TestPercentile(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	cases := []struct{ p, want float64 }{
		{0, 1}, {0.25, 2}, {0.5, 3}, {0.75, 4}, {1, 5}, {-1, 1}, {2, 5},
	}
	for _, c := range cases {
		if got := Percentile(xs, c.p); !almost(got, c.want, 1e-12) {
			t.Errorf("Percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if got := Percentile([]float64{1, 2}, 0.5); !almost(got, 1.5, 1e-12) {
		t.Errorf("interpolated median = %v, want 1.5", got)
	}
	if !math.IsNaN(Percentile(nil, 0.5)) {
		t.Fatal("empty percentile must be NaN")
	}
}

func TestPercentileDoesNotMutate(t *testing.T) {
	xs := []float64{3, 1, 2}
	Percentile(xs, 0.5)
	if xs[0] != 3 || xs[1] != 1 || xs[2] != 2 {
		t.Fatal("Percentile must not reorder its input")
	}
}

func TestCDFAt(t *testing.T) {
	xs := []float64{1, 2, 3, 4}
	if got := CDFAt(xs, 2.5); !almost(got, 0.5, 1e-12) {
		t.Fatalf("CDFAt(2.5) = %v, want 0.5", got)
	}
	if got := CDFAt(xs, 0); got != 0 {
		t.Fatalf("CDFAt(0) = %v, want 0", got)
	}
	if got := CDFAt(xs, 9); got != 1 {
		t.Fatalf("CDFAt(9) = %v, want 1", got)
	}
	if !math.IsNaN(CDFAt(nil, 1)) {
		t.Fatal("empty CDFAt must be NaN")
	}
}

func TestCDFMonotone(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		xs := make([]float64, 50)
		for i := range xs {
			xs[i] = r.NormFloat64()
		}
		prev := CDFAt(xs, -5)
		for x := -5.0; x <= 5; x += 0.25 {
			p := CDFAt(xs, x)
			if p < prev {
				return false
			}
			prev = p
		}
		return CDFAt(xs, Percentile(xs, 1)) == 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestHistogram(t *testing.T) {
	xs := []float64{0.1, 0.2, 0.6, 0.9, 1.0, -5, 7}
	edges, counts := Histogram(xs, 0, 1, 2)
	if len(edges) != 2 || len(counts) != 2 {
		t.Fatalf("histogram shape: %v %v", edges, counts)
	}
	if counts[0] != 2 || counts[1] != 3 {
		t.Fatalf("counts = %v, want [2 3]", counts)
	}
	if e, c := Histogram(xs, 1, 0, 2); e != nil || c != nil {
		t.Fatal("inverted range must return nil")
	}
	if e, c := Histogram(xs, 0, 1, 0); e != nil || c != nil {
		t.Fatal("zero bins must return nil")
	}
}

func TestROCPerfectDetector(t *testing.T) {
	pos := []float64{10, 11, 12}
	neg := []float64{1, 2, 3}
	curve := ROC(pos, neg)
	if auc := AUC(curve); !almost(auc, 1, 1e-12) {
		t.Fatalf("perfect AUC = %v, want 1", auc)
	}
	if tpr := TPRAtFPR(curve, 0); !almost(tpr, 1, 1e-12) {
		t.Fatalf("TPR@FPR0 = %v, want 1", tpr)
	}
}

func TestROCRandomDetector(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	pos := make([]float64, 4000)
	neg := make([]float64, 4000)
	for i := range pos {
		pos[i] = r.Float64()
		neg[i] = r.Float64()
	}
	if auc := AUC(ROC(pos, neg)); !almost(auc, 0.5, 0.03) {
		t.Fatalf("random AUC = %v, want ~0.5", auc)
	}
}

func TestROCEdges(t *testing.T) {
	if ROC(nil, []float64{1}) != nil || ROC([]float64{1}, nil) != nil {
		t.Fatal("empty classes must yield nil curve")
	}
	curve := ROC([]float64{5}, []float64{1})
	if curve[0].FPR != 0 || curve[0].TPR != 0 {
		t.Fatalf("curve must start at origin: %+v", curve[0])
	}
	last := curve[len(curve)-1]
	if last.FPR != 1 || last.TPR != 1 {
		t.Fatalf("curve must end at (1,1): %+v", last)
	}
	if AUC(nil) != 0 {
		t.Fatal("empty AUC must be 0")
	}
}

func TestROCMonotoneProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		pos := make([]float64, 30)
		neg := make([]float64, 30)
		for i := range pos {
			pos[i] = r.NormFloat64() + 1
			neg[i] = r.NormFloat64()
		}
		c := ROC(pos, neg)
		for i := 1; i < len(c); i++ {
			if c[i].FPR < c[i-1].FPR || c[i].TPR < c[i-1].TPR {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestLeastSquares2RecoversCostModel(t *testing.T) {
	// Synthesize C(n) = τ0 + τ̄·(n e ln n) with τ0=19ms, τ̄=0.18ms and
	// verify recovery — exactly the paper's calibration.
	const tau0, tau = 19.0, 0.18
	var ones, basis, y []float64
	for n := 2; n <= 40; n++ {
		x := float64(n) * math.E * math.Log(float64(n))
		ones = append(ones, 1)
		basis = append(basis, x)
		y = append(y, tau0+tau*x)
	}
	a, b, err := LeastSquares2(ones, basis, y)
	if err != nil {
		t.Fatal(err)
	}
	if !almost(a, tau0, 1e-9) || !almost(b, tau, 1e-12) {
		t.Fatalf("recovered (%v, %v), want (19, 0.18)", a, b)
	}
}

func TestLeastSquares2Noisy(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	var x1, x2, y []float64
	for i := 0; i < 500; i++ {
		u, v := r.Float64()*10, r.Float64()*10
		x1 = append(x1, u)
		x2 = append(x2, v)
		y = append(y, 3*u-2*v+r.NormFloat64()*0.01)
	}
	a, b, err := LeastSquares2(x1, x2, y)
	if err != nil {
		t.Fatal(err)
	}
	if !almost(a, 3, 0.01) || !almost(b, -2, 0.01) {
		t.Fatalf("got (%v,%v), want (3,-2)", a, b)
	}
}

func TestLeastSquares2Errors(t *testing.T) {
	if _, _, err := LeastSquares2([]float64{1}, []float64{1, 2}, []float64{1, 2}); err == nil {
		t.Fatal("mismatched lengths must error")
	}
	if _, _, err := LeastSquares2([]float64{1}, []float64{1}, []float64{1}); err == nil {
		t.Fatal("underdetermined system must error")
	}
	// Collinear columns -> singular.
	if _, _, err := LeastSquares2([]float64{1, 2, 3}, []float64{2, 4, 6}, []float64{1, 2, 3}); err == nil {
		t.Fatal("collinear columns must error")
	}
}

func TestRMSE(t *testing.T) {
	if got := RMSE([]float64{1, 2}, []float64{1, 4}); !almost(got, math.Sqrt(2), 1e-12) {
		t.Fatalf("RMSE = %v", got)
	}
	if !math.IsNaN(RMSE(nil, nil)) || !math.IsNaN(RMSE([]float64{1}, nil)) {
		t.Fatal("degenerate RMSE must be NaN")
	}
}
