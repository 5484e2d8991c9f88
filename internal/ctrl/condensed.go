package ctrl

import (
	"math"

	"repro/internal/idc"
	"repro/internal/mat"
	"repro/internal/qp"
)

// constraints is the structural part of (43)–(45): the 0/1 conservation
// and latency matrices H and Ψ and their block-stacked horizon versions.
// Demands, server counts and U(k−1) only enter the right-hand sides, which
// Step rebuilds every call, so all of this depends on (C, N, β2) alone,
// never on the model. An MPC builds it when it first sees a topology and
// shares it, read-only, across the condensed caches of every model after
// that.
type constraints struct {
	c, n  int
	consH *mat.Dense
	psi   *mat.Dense
	// aeq/ain are the stacked rows in compressed form. Of the nu·β2
	// columns, a step-s conservation row touches N·(s+1), a latency row
	// C·(s+1) and a nonnegativity row s+1, so every row dot of the solver
	// and of pointFeasible is O(nnz). The dots are bit-identical to the
	// dense ones (mat.SparseRows).
	aeq *mat.SparseRows
	ain *mat.SparseRows
}

// newConstraints builds the constraint structure of top over a control
// horizon of b2 steps: constraint blocks at step s touch ΔU_0 … ΔU_s.
func newConstraints(top *idc.Topology, b2 int) *constraints {
	consH := top.ConservationMatrix()
	psi := top.LatencyMatrix()
	c := top.C()
	n := top.N()
	nu := top.NU()
	aeq := mat.Zeros(c*b2, nu*b2)
	ain := mat.Zeros((n+nu)*b2, nu*b2)
	for s := 0; s < b2; s++ {
		for r := 0; r <= s; r++ {
			aeq.SetBlock(s*c, r*nu, consH)
			ain.SetBlock(s*n, r*nu, psi)
			for i := 0; i < nu; i++ {
				ain.Set(b2*n+s*nu+i, r*nu+i, -1)
			}
		}
	}
	return &constraints{
		c: c, n: n,
		consH: consH,
		psi:   psi,
		aeq:   mat.SparseRowsFrom(aeq),
		ain:   mat.SparseRowsFrom(ain),
	}
}

// condensed caches everything about the MPC problem (42)–(45) that depends
// only on the model and the controller configuration: the Φ power chain,
// the cumG/cumPhi prefix sums, the disturbance response Ω, the latency
// caps, the condensed prediction matrix Θ, the stacked row and move weights
// and the lowered QP Hessian, plus a qp.Workspace carrying the solver's
// cross-solve caches (Cholesky factor of H, H⁻¹aᵢ columns, Schur products,
// Gram–Schmidt prune state). The constraint structure it solves against is
// the MPC's shared one.
//
// The paper's two-time-scale design (§IV) makes this worthwhile: the
// discretized model changes only at slow ticks (hourly price updates), yet
// the fast loop re-solves every Ts seconds — ~120 identical rebuilds per
// price hour at Ts = 30 s without the cache. A condensed is valid for
// exactly one *Model, which is never modified; MPC.Step rebuilds it when
// the pointer changes. Every cached value is produced by the same
// arithmetic the uncached path runs, so cached and uncached solves are
// bit-identical.
type condensed struct {
	model *Model

	// Prediction chain: phiPow[s] = Φ^s (s = 0…β1),
	// cumG[s] = Σ_{t=0}^{s} Φ^t·G and cumPhi[s] = Σ_{t=0}^{s} Φ^t
	// (s = 0…β1−1).
	phiPow []*mat.Dense
	cumG   []*mat.Dense
	cumPhi []*mat.Dense
	// omega is β1×ns: row s−1 is Ω_s = cumPhi[s−1]·Γ·V̄, the folded model's
	// constant standby disturbance V̄_j = 1/(µ_j·D_j) carried s steps ahead.
	omega *mat.Dense
	// caps is the φ of Ψ·U ≤ φ: each IDC's full-fleet capacity
	// M_j·µ_j − 1/D_j, since the folded sleep law keeps m_j on the latency
	// boundary and only m_j ≤ M_j binds.
	caps []float64
	// theta is the condensed prediction matrix with
	// Θ_{s,r} = cumG[s−1−r] for r < min(s, β2).
	theta *mat.Dense

	// wq/wr are the stacked tracking and move weights of the lowered
	// least-squares problem; form caches its Hessian 2(ΘᵀWqΘ + Wr).
	wq   []float64
	wr   []float64
	form *qp.LSForm

	// cons is the MPC's constraint structure, shared with the condensed
	// caches of its other models and never written.
	cons *constraints

	// ws carries the QP solver's cross-solve caches, which depend on the
	// Hessian and the constraint rows alone. A price-only model swap that
	// leaves the Hessian's bits unchanged hands it, with form's Hessian, to
	// the next condensed (carriesHessian); any other swap builds both anew.
	ws *qp.Workspace
}

// newCondensed builds the cache for one model+configuration pair over the
// constraint structure cons, which must fit the model's topology. The
// construction is the exact code the uncached MPC.Step ran inline, moved
// here so the fast loop can reuse it. (The intermediate phiG[t] = Φ^t·G
// terms exist only during construction — they fold into cumG and are not
// retained.) prev is the cache this one replaces, or nil; when lowering the
// new model gives prev's dense Hessian bit for bit, the new cache shares
// that Hessian and takes over prev's workspace instead of building both
// again (DESIGN.md §3.4).
func newCondensed(model *Model, cfg MPCConfig, cons *constraints, prev *condensed) (*condensed, error) {
	top := model.Topology()
	ns := model.StateDim()
	nu := model.InputDim()
	b1, b2 := cfg.PredHorizon, cfg.CtrlHorizon

	// Prediction chain and condensed Θ in one fused pass:
	//   phiPow[s] = Φ^s (s = 0…β1),
	//   cumG[s]   = Σ_{t=0}^{s} Φ^t·G (s = 0…β1−1),
	//   cumPhi[s] = Σ_{t=0}^{s} Φ^t   (s = 0…β1−1),
	// with the condensed prediction over z = (ΔU_0 … ΔU_{β2−1})
	//   X(k+s) = Φ^s X + Ξ_s U(k−1) + Ω_s + Θ_{s,r} z,
	//   Ξ_s = cumG[s−1], Ω_s = cumPhi[s−1]·Γ·V̄,
	//   Θ_{s,r} = Σ_{t=r}^{s−1} Φ^{s−1−t} G = cumG[s−1−r] for r < min(s, β2).
	// Iteration s extends each chain one term and fills Θ's row block s,
	// which reads only cumG[0…s−1] — all built by then. Every value comes
	// from the same operation on the same inputs as the unfused per-chain
	// loops, so the fusion is bit-identical; it just walks each matrix once
	// while it is cache-hot.
	phiPow := make([]*mat.Dense, b1+1)
	cumG := make([]*mat.Dense, b1)
	cumPhi := make([]*mat.Dense, b1)
	theta := mat.Zeros(ns*b1, nu*b2)
	phiPow[0] = mat.Identity(ns)
	first, err := mat.Mul(phiPow[0], model.g)
	if err != nil {
		return nil, err
	}
	cumG[0] = first
	cumPhi[0] = phiPow[0]
	var gScratch *mat.Dense
	for s := 1; s <= b1; s++ {
		p, err := mat.Mul(phiPow[s-1], model.phi)
		if err != nil {
			return nil, err
		}
		phiPow[s] = p
		if s < b1 {
			// Φ^s·G folds into the running sum through one reused scratch.
			gScratch, err = mat.MulInto(gScratch, phiPow[s], model.g)
			if err != nil {
				return nil, err
			}
			c, err := mat.AddInto(nil, cumG[s-1], gScratch)
			if err != nil {
				return nil, err
			}
			cumG[s] = c
			cp, err := mat.Add(cumPhi[s-1], phiPow[s])
			if err != nil {
				return nil, err
			}
			cumPhi[s] = cp
		}
		for r := 0; r < b2 && r < s; r++ {
			theta.SetBlock((s-1)*ns, r*nu, cumG[s-1-r])
		}
	}
	// A finite model can still overflow here: the C̄ rows sum price-weighted
	// energy over the horizon. Θ's entries are cumG's and zeros, so checking
	// cumG checks Θ at 1/β2 of the entries.
	for s := range phiPow {
		if err := checkRepresentable(model.prices, phiPow[s], "phiPow", s); err != nil {
			return nil, err
		}
		if s == b1 {
			break
		}
		if err := checkRepresentable(model.prices, cumG[s], "cumG", s); err != nil {
			return nil, err
		}
		if err := checkRepresentable(model.prices, cumPhi[s], "cumPhi", s); err != nil {
			return nil, err
		}
	}

	// Ω_s = cumPhi[s−1]·Γ·V̄. Its C̄ entries overflow at prices the chain
	// above still represents (from 1e297 $/MWh at Ts 300), and through Θ's
	// zero-weight C̄ rows an infinite residual would reach the QP as a NaN.
	vbar := make([]float64, top.N())
	for j := range vbar {
		d := top.IDC(j)
		vbar[j] = 1 / (d.ServiceRate * d.DelayBound)
	}
	gamV := make([]float64, ns)
	if err := mat.MulVecInto(gamV, model.gamma, vbar); err != nil {
		return nil, err
	}
	omega := mat.Zeros(b1, ns)
	for s := 0; s < b1; s++ {
		if err := mat.MulVecInto(omega.RowView(s), cumPhi[s], gamV); err != nil {
			return nil, err
		}
	}
	if err := checkRepresentable(model.prices, omega, "omega", -1); err != nil {
		return nil, err
	}

	// Row weights: CostWeight on C̄ rows, PowerWeight on E rows.
	wq := make([]float64, ns*b1)
	for s := 0; s < b1; s++ {
		wq[s*ns] = cfg.CostWeight
		for j := 0; j < top.N(); j++ {
			wq[s*ns+1+j] = cfg.PowerWeight
		}
	}
	// SmoothWeight is normalized against the horizon's tracking pressure.
	// For a power error e held over the prediction horizon, the tracking
	// cost accumulates like Σ_{s=1}^{β1} (s·Ts·e)², so the R penalty on
	// ΔU_{ij} is SmoothWeight·(b_j·Ts)²·Σs² with b_j the model's effective
	// power gain. A first-order analysis then gives "fraction of the
	// remaining reference gap closed per step ≈ 1/(1+SmoothWeight)",
	// independent of request-rate, wattage and horizon scales.
	//
	// A ridge floor relative to the tracking Hessian's diagonal keeps the
	// condensed Hessian positive definite even with SmoothWeight 0 (Θ has
	// ns·β1 rows against nu·β2 columns, so the tracking term alone is
	// rank-deficient); 1e-7 relative shifts the solution negligibly while
	// keeping the KKT systems well conditioned.
	ts := model.Ts()
	var maxDiag float64
	for col := 0; col < nu*b2; col++ {
		var diag float64
		for row := 0; row < ns*b1; row++ {
			v := theta.At(row, col)
			diag += wq[row] * v * v
		}
		if diag > maxDiag {
			maxDiag = diag
		}
	}
	ridgeFloor := 1e-7 * maxDiag
	var sumS2 float64
	for s := 1; s <= b1; s++ {
		sumS2 += float64(s) * float64(s)
	}
	wr := make([]float64, nu*b2)
	for r := 0; r < b2; r++ {
		for j := 0; j < top.N(); j++ {
			scale := foldedGain(top.IDC(j)) * ts
			w := cfg.SmoothWeight*scale*scale*sumS2*cfg.PowerWeight + ridgeFloor
			for i := 0; i < top.C(); i++ {
				wr[r*nu+top.Index(i, j)] = w
			}
		}
	}

	// Lowered-Hessian dispatch (DESIGN.md §3.10): at planet scale the
	// condensed Hessian is diagonal-plus-low-rank, so the structured form
	// factors an (ns·β1)² capacitance matrix instead of an (nu·β2)² Hessian.
	// Below the threshold — which sits above every checksummed benchmark
	// topology — the dense form keeps the legacy bit-identical arithmetic.
	// The structured constructor can reject weight patterns it cannot invert
	// (it never does for the ridge-floored wr built above, but the fallback
	// keeps the controller total); a rejection drops to the dense form.
	var form *qp.LSForm
	var ws *qp.Workspace
	if nu*b2 >= qp.StructuredMinVars && !cfg.ForceDense {
		if f, err := qp.NewStructuredLSForm(theta, wq, wr); err == nil {
			form = f
		}
	}
	if form == nil && prev.carriesHessian(theta, wq, wr, cons) {
		f, err := qp.NewSharedLSForm(theta, prev.form)
		if err != nil {
			return nil, err
		}
		form, ws = f, prev.ws
		// For memory alone: the factors are recomputed bit for bit.
		ws.DropSchurFactors()
	}
	if form == nil {
		f, err := qp.NewLSForm(theta, wq, wr)
		if err != nil {
			return nil, err
		}
		form = f
	}
	if ws == nil {
		ws = qp.NewWorkspace()
	}

	return &condensed{
		model:  model,
		phiPow: phiPow,
		cumG:   cumG,
		cumPhi: cumPhi,
		omega:  omega,
		caps:   top.Capacities(),
		theta:  theta,
		wq:     wq,
		wr:     wr,
		form:   form,
		cons:   cons,
		ws:     ws,
	}, nil
}

// carriesHessian reports whether lowering (theta, wq, wr) over cons gives
// the receiver's dense Hessian bit for bit, so that a cache for theta may
// share it and the workspace built on it. That holds when the receiver is
// a dense cache over the same constraints, wq and wr match it bit for bit,
// and theta matches its Θ bit for bit on every row whose weight is not
// +0. A +0-weight row may differ: Lower scales it to ±0 and MulInto adds
// its products, all ±0, into accumulators that start at +0 and so never
// change a bit (DESIGN.md §3.4). That needs the row finite in both, as
// 0·±Inf is NaN, and newCondensed has checked every Θ finite through the
// cumG blocks it is made of. With CostWeight 0, the default, this is every
// swap that changes only prices, which enter Θ on the C̄ rows alone.
func (cd *condensed) carriesHessian(theta *mat.Dense, wq, wr []float64, cons *constraints) bool {
	if cd == nil || cd.cons != cons || cd.form.Hessian() == nil ||
		!mat.SameBits(cd.wq, wq) || !mat.SameBits(cd.wr, wr) {
		return false
	}
	for r, w := range wq {
		if math.Float64bits(w) != 0 && !mat.SameBits(cd.theta.RowView(r), theta.RowView(r)) {
			return false
		}
	}
	return true
}

// valid reports whether the cache still matches the given model.
func (cd *condensed) valid(model *Model) bool {
	return cd != nil && cd.model == model
}
