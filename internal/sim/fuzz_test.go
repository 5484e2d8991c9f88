package sim

import (
	"errors"
	"reflect"
	"testing"

	"repro/internal/feed"
	"repro/internal/workload"
)

// FuzzFeedReplay pins the feed path's central equivalence: any demand trace
// replayed through FromTrace produces exactly — bit for bit — the result of
// the same rows behind a FromFunc callback, including error outcomes for
// infeasible or malformed traces. The fuzzer owns the trace shape; both
// sources must agree on everything.
func FuzzFeedReplay(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{128, 128, 128, 128, 128, 64, 200, 0, 255, 32})
	f.Add([]byte("steady state bytes"))
	f.Fuzz(func(t *testing.T, data []byte) {
		base := workload.TableI()
		c := len(base)
		steps := len(data) / c
		if steps == 0 {
			return
		}
		if steps > 8 {
			steps = 8 // keep each case to a handful of controller steps
		}
		rows := make([][]float64, steps)
		for k := range rows {
			rows[k] = make([]float64, c)
			for i := range rows[k] {
				// 0..~2× the Table I rate: mostly feasible, with the top of
				// the range exercising the controller's error paths too.
				rows[k][i] = base[i] * float64(data[k*c+i]) / 128.0
			}
		}

		sc := paperScenario()
		sc.Steps = steps
		sc.SlowEvery = 2
		sc.SkipBaseline = true

		funcSc := sc
		funcSc.DemandSource = feed.FromFunc(func(k int) []float64 { return rows[k] })
		wantRes, wantErr := Run(funcSc)

		traceSc := sc
		traceSc.DemandSource = feed.FromTrace(rows)
		gotRes, gotErr := Run(traceSc)

		if (wantErr == nil) != (gotErr == nil) {
			t.Fatalf("error divergence: FromFunc %v, FromTrace %v", wantErr, gotErr)
		}
		if wantErr != nil {
			// Same failure class; the messages differ only in the path label.
			for _, sentinel := range []error{ErrBadScenario} {
				if errors.Is(wantErr, sentinel) != errors.Is(gotErr, sentinel) {
					t.Fatalf("error class divergence: FromFunc %v, FromTrace %v", wantErr, gotErr)
				}
			}
			return
		}
		if !reflect.DeepEqual(wantRes.Control, gotRes.Control) {
			t.Fatal("FromTrace series diverge from the FromFunc series")
		}
	})
}
