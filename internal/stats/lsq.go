package stats

import (
	"errors"
	"math"
)

// ErrSingular is returned when a least-squares system has no unique
// solution (fewer independent observations than parameters).
var ErrSingular = errors.New("stats: singular least-squares system")

// LeastSquares2 solves min ||a*x1 + b*x2 - y||² for the two coefficients
// (a, b) given basis columns x1, x2 and observations y. The paper uses
// exactly this to calibrate C(n) = τ₀·1 + τ̄·(n·e·ln n) from measured
// inventory times (§2.3: "we utilize the least-squares algorithm to
// estimate the two unknown parameters, namely τ₀ (19ms) and τ̄ (0.18ms)").
func LeastSquares2(x1, x2, y []float64) (a, b float64, err error) {
	n := len(y)
	if len(x1) != n || len(x2) != n {
		return 0, 0, errors.New("stats: mismatched column lengths")
	}
	if n < 2 {
		return 0, 0, ErrSingular
	}
	// Normal equations for the 2x2 system.
	var s11, s12, s22, sy1, sy2 float64
	for i := 0; i < n; i++ {
		s11 += x1[i] * x1[i]
		s12 += x1[i] * x2[i]
		s22 += x2[i] * x2[i]
		sy1 += x1[i] * y[i]
		sy2 += x2[i] * y[i]
	}
	det := s11*s22 - s12*s12
	if math.Abs(det) < 1e-12 {
		return 0, 0, ErrSingular
	}
	a = (sy1*s22 - sy2*s12) / det
	b = (sy2*s11 - sy1*s12) / det
	return a, b, nil
}

// RMSE returns the root-mean-square error between predictions and
// observations.
func RMSE(pred, obs []float64) float64 {
	if len(pred) != len(obs) || len(pred) == 0 {
		return math.NaN()
	}
	var s float64
	for i := range pred {
		d := pred[i] - obs[i]
		s += d * d
	}
	return math.Sqrt(s / float64(len(pred)))
}
