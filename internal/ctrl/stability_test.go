package ctrl

import (
	"errors"
	"fmt"
	"math"
	"testing"

	"repro/internal/alloc"
	"repro/internal/idc"
	"repro/internal/mat"
	"repro/internal/workload"
)

// ContractionReport is the outcome of EstimateContraction — the empirical
// counterpart of the paper's §IV.E stability argument (Mayne et al. prove
// closed-loop stability of constrained MPC via the contraction mapping
// theorem; here we measure the contraction factor directly).
type ContractionReport struct {
	// Rho is the estimated per-step contraction factor of the power
	// tracking error (geometric mean of successive error ratios).
	// Rho < 1 means the closed loop is contractive toward the reference.
	Rho float64
	// Errors is the tracking error norm ‖P(k) − P_ref‖₂ per step.
	Errors []float64
	// Converged reports whether the final error fell below tol·initial.
	Converged bool
}

// EstimateContraction runs the closed loop (MPC + plant) from the given
// allocation toward a fixed power reference for the given number of steps
// and estimates the per-step contraction factor of the tracking error.
//
// The plant is the model itself (perfect model assumption, as in the
// paper's proofs), run with the eq. (35) servers of each allocation.
func EstimateContraction(
	model *Model, mpc *MPC,
	u0, demands, refPower []float64,
	steps int,
) (*ContractionReport, error) {
	if model == nil || mpc == nil {
		return nil, fmt.Errorf("nil model or controller: %w", ErrBadConfig)
	}
	if steps <= 0 {
		return nil, fmt.Errorf("steps %d: %w", steps, ErrBadConfig)
	}
	u := append([]float64{}, u0...)
	state := make([]float64, model.StateDim())
	errs := make([]float64, 0, steps+1)

	trackErr := func(u []float64) (float64, error) {
		servers, err := effectiveServers(model, u)
		if err != nil {
			return 0, err
		}
		rates, err := model.PowerRates(u, servers)
		if err != nil {
			return 0, err
		}
		return mat.NormVec(mat.SubVec(rates, refPower)), nil
	}
	e0, err := trackErr(u)
	if err != nil {
		return nil, err
	}
	errs = append(errs, e0)

	for k := 0; k < steps; k++ {
		out, err := mpc.Step(StepInput{
			Model:    model,
			State:    state,
			PrevU:    u,
			Demands:  demands,
			RefPower: refPower,
		})
		if err != nil {
			return nil, fmt.Errorf("ctrl: contraction step %d: %w", k, err)
		}
		u = out.U
		servers, err := effectiveServers(model, u)
		if err != nil {
			return nil, err
		}
		if state, err = model.Step(state, u, servers); err != nil {
			return nil, err
		}
		e, err := trackErr(u)
		if err != nil {
			return nil, err
		}
		errs = append(errs, e)
	}

	// Geometric mean of ratios over the decaying portion (errors above a
	// floor relative to the initial error, so solver noise near zero does
	// not pollute the estimate).
	floor := 1e-4*errs[0] + 1e-9
	var logSum float64
	var n int
	for k := 1; k < len(errs); k++ {
		if errs[k-1] <= floor || errs[k] <= 0 {
			break
		}
		logSum += math.Log(errs[k] / errs[k-1])
		n++
	}
	rho := 1.0
	if n > 0 {
		rho = math.Exp(logSum / float64(n))
	} else if errs[0] <= floor {
		rho = 0 // started converged
	}
	final := errs[len(errs)-1]
	// Convergence floor scales with the reference magnitude: the QP settles
	// within solver noise (~1e-5 relative) of the target, never exactly on it.
	convFloor := 1e-2*errs[0] + 1e-5*mat.NormVec(refPower)
	return &ContractionReport{
		Rho:       rho,
		Errors:    errs,
		Converged: final <= convFloor,
	}, nil
}

// effectiveServers returns the eq. (35) sleep-law server counts for
// allocation u: the plant the folded model stands for.
func effectiveServers(model *Model, u []float64) ([]int, error) {
	top := model.Topology()
	alloc, err := idc.AllocationFromVector(top, u)
	if err != nil {
		return nil, err
	}
	per := alloc.PerIDC()
	out := make([]int, top.N())
	for j := range out {
		m, err := top.IDC(j).MinServersFor(per[j])
		if err != nil {
			return nil, err
		}
		out[j] = m
	}
	return out, nil
}

func contractionSetup(t *testing.T, smooth float64) (*Model, *MPC, []float64, []float64) {
	t.Helper()
	top := idc.PaperTopology()
	model, err := NewFoldedModel(top, testPrices7H, 30)
	if err != nil {
		t.Fatalf("NewFoldedModel: %v", err)
	}
	mpc, err := NewMPC(MPCConfig{PowerWeight: 1, SmoothWeight: smooth})
	if err != nil {
		t.Fatalf("NewMPC: %v", err)
	}
	// Start at the 6H optimum, track the 7H optimum's powers.
	start, err := alloc.Optimize(top, testPrices6H, workload.TableI())
	if err != nil {
		t.Fatalf("Optimize: %v", err)
	}
	target, err := alloc.Optimize(top, testPrices7H, workload.TableI())
	if err != nil {
		t.Fatalf("Optimize: %v", err)
	}
	return model, mpc, start.Allocation.Vector(), target.PowerWatts
}

func TestEstimateContractionValidation(t *testing.T) {
	model, mpc, u0, ref := contractionSetup(t, 4)
	if _, err := EstimateContraction(nil, mpc, u0, workload.TableI(), ref, 5); !errors.Is(err, ErrBadConfig) {
		t.Fatalf("nil model: %v", err)
	}
	if _, err := EstimateContraction(model, nil, u0, workload.TableI(), ref, 5); !errors.Is(err, ErrBadConfig) {
		t.Fatalf("nil mpc: %v", err)
	}
	if _, err := EstimateContraction(model, mpc, u0, workload.TableI(), ref, 0); !errors.Is(err, ErrBadConfig) {
		t.Fatalf("zero steps: %v", err)
	}
}

// TestClosedLoopContractive is the empirical §IV.E check: the constrained
// MPC loop contracts toward the reference (ρ < 1) and converges.
func TestClosedLoopContractive(t *testing.T) {
	model, mpc, u0, ref := contractionSetup(t, 4)
	rep, err := EstimateContraction(model, mpc, u0, workload.TableI(), ref, 60)
	if err != nil {
		t.Fatalf("EstimateContraction: %v", err)
	}
	if rep.Rho >= 1 {
		t.Fatalf("ρ = %g, want < 1 (unstable loop)", rep.Rho)
	}
	if !rep.Converged {
		t.Fatalf("loop did not converge: errors %v … %v", rep.Errors[0], rep.Errors[len(rep.Errors)-1])
	}
	// Errors decay monotonically (allowing solver-noise wiggle near zero).
	for k := 1; k < len(rep.Errors); k++ {
		if rep.Errors[k] > rep.Errors[k-1]*1.05+1 {
			t.Fatalf("error grew at step %d: %g → %g", k, rep.Errors[k-1], rep.Errors[k])
		}
	}
}

// TestContractionSlowsWithSmoothing: larger R moves ρ toward 1 (slower but
// still stable) — the quantitative version of the Q/R trade-off.
func TestContractionSlowsWithSmoothing(t *testing.T) {
	rho := func(smooth float64) float64 {
		model, mpc, u0, ref := contractionSetup(t, smooth)
		rep, err := EstimateContraction(model, mpc, u0, workload.TableI(), ref, 40)
		if err != nil {
			t.Fatalf("EstimateContraction(%g): %v", smooth, err)
		}
		return rep.Rho
	}
	fast := rho(0.5)
	slow := rho(16)
	if !(fast < slow && slow < 1) {
		t.Fatalf("ρ(R=0.5)=%g, ρ(R=16)=%g; want fast < slow < 1", fast, slow)
	}
}

// TestContractionMatchesFirstOrderPrediction: the documented semantics say
// the loop closes ≈ 1/(1+R) of the gap per step, i.e. ρ ≈ R/(1+R).
func TestContractionMatchesFirstOrderPrediction(t *testing.T) {
	model, mpc, u0, ref := contractionSetup(t, 4)
	rep, err := EstimateContraction(model, mpc, u0, workload.TableI(), ref, 40)
	if err != nil {
		t.Fatalf("EstimateContraction: %v", err)
	}
	want := 4.0 / 5.0
	if rep.Rho < want-0.15 || rep.Rho > want+0.15 {
		t.Fatalf("ρ = %g, first-order prediction %g ± 0.15", rep.Rho, want)
	}
}

func TestContractionStartedConverged(t *testing.T) {
	top := idc.PaperTopology()
	model, err := NewFoldedModel(top, testPrices7H, 30)
	if err != nil {
		t.Fatalf("NewFoldedModel: %v", err)
	}
	mpc, err := NewMPC(MPCConfig{PowerWeight: 1, SmoothWeight: 4})
	if err != nil {
		t.Fatalf("NewMPC: %v", err)
	}
	target, err := alloc.Optimize(top, testPrices7H, workload.TableI())
	if err != nil {
		t.Fatalf("Optimize: %v", err)
	}
	// Reference equals the starting powers under the folded accounting.
	u0 := target.Allocation.Vector()
	servers, err := effectiveServers(model, u0)
	if err != nil {
		t.Fatalf("effectiveServers: %v", err)
	}
	rates, err := model.PowerRates(u0, servers)
	if err != nil {
		t.Fatalf("PowerRates: %v", err)
	}
	rep, err := EstimateContraction(model, mpc, u0, workload.TableI(), rates, 10)
	if err != nil {
		t.Fatalf("EstimateContraction: %v", err)
	}
	if !rep.Converged {
		t.Fatalf("started at reference but not converged: %v", rep.Errors)
	}
}
