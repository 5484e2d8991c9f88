// Package forecast implements the paper's workload prediction pipeline
// (§III.D): a time-varying autoregressive model of order p (eq. 12) whose
// coefficients are estimated online with Recursive Least Squares (eq. 13),
// plus multi-step-ahead prediction for the MPC reference optimizer.
package forecast

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/mat"
)

// ErrBadOrder is returned for nonpositive model orders, and by NewRLS for a
// forgetting factor or covariance scale outside its range.
var ErrBadOrder = errors.New("forecast: model order must be positive")

// ErrNotReady is returned when prediction is requested before the estimator
// has seen enough samples to fill its regressor window.
var ErrNotReady = errors.New("forecast: not enough observations yet")

// AR is a fixed-coefficient autoregressive model
//
//	µ(k) = Σ_{s=1..p} coef[s−1]·µ(k−s)
//
// matching eq. (13) with the innovation term dropped.
type AR struct {
	coef []float64
}

// NewAR builds an AR model from coefficients ordered lag-1 first.
func NewAR(coef []float64) (*AR, error) {
	if len(coef) == 0 {
		return nil, ErrBadOrder
	}
	cp := make([]float64, len(coef))
	copy(cp, coef)
	return &AR{coef: cp}, nil
}

// Order returns p.
func (a *AR) Order() int { return len(a.coef) }

// Coef returns a copy of the coefficients.
func (a *AR) Coef() []float64 {
	cp := make([]float64, len(a.coef))
	copy(cp, a.coef)
	return cp
}

// Predict returns the one-step prediction given history, where history is
// ordered oldest-first and must have at least Order samples; only the most
// recent Order samples are used.
func (a *AR) Predict(history []float64) (float64, error) {
	p := len(a.coef)
	if len(history) < p {
		return 0, fmt.Errorf("%d observations for order %d: %w", len(history), p, ErrNotReady)
	}
	var y float64
	n := len(history)
	for s := 1; s <= p; s++ {
		y += a.coef[s-1] * history[n-s]
	}
	return y, nil
}

// PredictN returns h-step-ahead predictions, feeding each prediction back
// as an observation (the standard recursive multi-step scheme).
func (a *AR) PredictN(history []float64, h int) ([]float64, error) {
	if h <= 0 {
		return nil, nil
	}
	p := len(a.coef)
	if len(history) < p {
		return nil, fmt.Errorf("%d observations for order %d: %w", len(history), p, ErrNotReady)
	}
	window := make([]float64, p, p+h)
	copy(window, history[len(history)-p:])
	out := make([]float64, 0, h)
	for i := 0; i < h; i++ {
		y, err := a.Predict(window)
		if err != nil {
			return nil, err
		}
		out = append(out, y)
		window = append(window, y)
	}
	return out, nil
}

// RLS is an exponentially-weighted recursive least squares estimator for
// the regression y(k) = θᵀφ(k) + ε(k). It carries the inverse correlation
// matrix P and parameter vector θ and updates in O(p²) per sample.
type RLS struct {
	theta  []float64
	p      *mat.Dense
	lambda float64
	n      int
}

// NewRLS creates an estimator with n parameters, forgetting factor lambda
// in (0, 1] and initial covariance delta·I with delta finite and positive
// (delta large ⇒ fast initial adaptation; 1e3 is a common choice).
func NewRLS(n int, lambda, delta float64) (*RLS, error) {
	if n <= 0 {
		return nil, ErrBadOrder
	}
	// Negated ranges, so that NaN, which compares false to everything,
	// fails them: a NaN or infinite setting made every forecast NaN.
	if !(lambda > 0 && lambda <= 1) {
		return nil, fmt.Errorf("forgetting factor %g not in (0,1]: %w", lambda, ErrBadOrder)
	}
	if !(delta > 0) || math.IsInf(delta, 1) {
		return nil, fmt.Errorf("initial covariance %g not finite and positive: %w", delta, ErrBadOrder)
	}
	return &RLS{
		theta:  make([]float64, n),
		p:      mat.Scale(delta, mat.Identity(n)),
		lambda: lambda,
		n:      n,
	}, nil
}

// Theta returns a copy of the current parameter estimate.
func (r *RLS) Theta() []float64 {
	cp := make([]float64, r.n)
	copy(cp, r.theta)
	return cp
}

// Update incorporates one observation pair (φ, y) and returns the a-priori
// prediction error e = y − θᵀφ.
func (r *RLS) Update(phi []float64, y float64) (float64, error) {
	if len(phi) != r.n {
		return 0, fmt.Errorf("regressor length %d, want %d: %w", len(phi), r.n, ErrBadOrder)
	}
	e := y - mat.Dot(r.theta, phi)
	// k = P·φ / (λ + φᵀPφ)
	pphi, err := mat.MulVec(r.p, phi)
	if err != nil {
		return 0, err
	}
	denom := r.lambda + mat.Dot(phi, pphi)
	k := mat.ScaleVec(1/denom, pphi)
	for i := range r.theta {
		r.theta[i] += k[i] * e
	}
	// P = (P − k·φᵀP)/λ ; φᵀP = (P·φ)ᵀ because P is symmetric.
	for i := 0; i < r.n; i++ {
		for j := 0; j < r.n; j++ {
			r.p.Set(i, j, (r.p.At(i, j)-k[i]*pphi[j])/r.lambda)
		}
	}
	return e, nil
}

// Predict returns θᵀφ.
func (r *RLS) Predict(phi []float64) (float64, error) {
	if len(phi) != r.n {
		return 0, fmt.Errorf("regressor length %d, want %d: %w", len(phi), r.n, ErrBadOrder)
	}
	return mat.Dot(r.theta, phi), nil
}

// Predictor is the paper's online workload predictor: an AR(p) regressor
// estimated by RLS over a sliding window of observations. Feed it samples
// with Observe; read ahead with Forecast.
type Predictor struct {
	order   int
	rls     *RLS
	history []float64
}

// PredictorConfig parameterizes NewPredictor.
type PredictorConfig struct {
	// Order is the AR order p (default 4 — enough for the short-range
	// correlation of web workloads without overfitting).
	Order int
	// Lambda is the RLS forgetting factor (default 0.98).
	Lambda float64
	// Delta is the initial covariance scale (default 1e4).
	Delta float64
}

// NewPredictor builds an online AR/RLS predictor.
func NewPredictor(cfg PredictorConfig) (*Predictor, error) {
	if cfg.Order == 0 {
		cfg.Order = 4
	}
	if cfg.Order < 0 {
		return nil, ErrBadOrder
	}
	//lint:ignore floateq documented sentinel: an exactly-zero Lambda means "use the default"
	if cfg.Lambda == 0 {
		cfg.Lambda = 0.98
	}
	//lint:ignore floateq documented sentinel: an exactly-zero Delta means "use the default"
	if cfg.Delta == 0 {
		cfg.Delta = 1e4
	}
	rls, err := NewRLS(cfg.Order, cfg.Lambda, cfg.Delta)
	if err != nil {
		return nil, err
	}
	return &Predictor{order: cfg.Order, rls: rls}, nil
}

// Order returns the AR order.
func (p *Predictor) Order() int { return p.order }

// Ready reports whether enough samples have been observed to predict.
func (p *Predictor) Ready() bool { return len(p.history) >= p.order }

// Observe feeds one workload sample, updating the RLS estimate once the
// regressor window is full. It returns the a-priori prediction error
// (zero while warming up).
func (p *Predictor) Observe(y float64) float64 {
	var e float64
	if p.Ready() {
		phi := p.regressor()
		e, _ = p.rls.Update(phi, y) // lengths are consistent by construction
	}
	p.history = append(p.history, y)
	// Bound memory: only the most recent `order` samples matter.
	if keep := 4 * p.order; len(p.history) > keep {
		p.history = append(p.history[:0], p.history[len(p.history)-p.order:]...)
	}
	return e
}

// regressor returns (µ(k−1) … µ(k−p)), most recent first, matching the
// coefficient order of AR.
func (p *Predictor) regressor() []float64 {
	phi := make([]float64, p.order)
	n := len(p.history)
	for s := 1; s <= p.order; s++ {
		phi[s-1] = p.history[n-s]
	}
	return phi
}

// Forecast returns h-step-ahead predictions using the current coefficient
// estimate, feeding predictions back recursively.
func (p *Predictor) Forecast(h int) ([]float64, error) {
	if !p.Ready() {
		return nil, fmt.Errorf("have %d of %d samples: %w", len(p.history), p.order, ErrNotReady)
	}
	ar, err := NewAR(p.rls.Theta())
	if err != nil {
		return nil, err
	}
	return ar.PredictN(p.history, h)
}

// Model returns a snapshot of the currently estimated AR model.
func (p *Predictor) Model() (*AR, error) {
	return NewAR(p.rls.Theta())
}
