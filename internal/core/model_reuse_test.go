package core

import (
	"testing"

	"repro/internal/ctrl"
	"repro/internal/obs"
	"repro/internal/workload"
)

// TestSlowTickReusesModelOnEqualPrices pins the slow tick's reuse rule: the
// folded model is rebuilt only when the floored price vector changes
// bitwise. Every tick of the hour is a slow tick (SlowEvery 1), so every
// tick re-reads the prices.
func TestSlowTickReusesModelOnEqualPrices(t *testing.T) {
	const ticks = 120 // one hour at Ts 30 s
	flat := func(int) float64 { return 40 }
	cases := []struct {
		name  string
		price func(k int) float64
		// down reports a price-feed outage at tick k.
		down      func(k int) bool
		wantSwaps uint64
		wantHeld  int
	}{
		{name: "constant", price: flat, wantSwaps: 0},
		{name: "one change", price: func(k int) float64 {
			if k < 60 {
				return 40
			}
			return 55
		}, wantSwaps: 1},
		// Both negatives floor to 0: the floored vectors are equal.
		{name: "negatives floor alike", price: func(k int) float64 {
			if k < 60 {
				return -5
			}
			return -30
		}, wantSwaps: 0},
		{name: "stale hold", price: flat, down: func(k int) bool { return k >= 40 && k < 43 },
			wantSwaps: 0, wantHeld: 3},
	}
	demands := workload.TableI()
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			feed := &togglePrices{}
			reg := obs.NewRegistry()
			cfg := baseConfig()
			cfg.Prices = feed
			cfg.SlowEvery = 1
			c, err := New(cfg, WithMetrics(reg), WithFeedPolicy(FeedPolicy{MaxPriceStaleTicks: 3}))
			if err != nil {
				t.Fatalf("New: %v", err)
			}
			models := make(map[*ctrl.Model]bool)
			held := 0
			for k := 0; k < ticks; k++ {
				feed.val = tc.price(k)
				feed.down = tc.down != nil && tc.down(k)
				tel, err := c.Step(demands)
				if err != nil {
					t.Fatalf("Step %d: %v", k, err)
				}
				if tel.Mode == ModeStalePrice {
					held++
				}
				models[c.model] = true
			}
			if held != tc.wantHeld {
				t.Errorf("%d ticks on held prices, want %d", held, tc.wantHeld)
			}
			if len(models) != int(tc.wantSwaps)+1 {
				t.Errorf("%d distinct models over the hour, want %d", len(models), tc.wantSwaps+1)
			}
			s := reg.Snapshot()
			if v, _ := s.Counter("idc_mpc_model_swaps_total"); v != tc.wantSwaps {
				t.Errorf("idc_mpc_model_swaps_total = %d, want %d", v, tc.wantSwaps)
			}
			if v, _ := s.Counter("idc_mpc_cache_misses_total"); v != tc.wantSwaps+1 {
				t.Errorf("idc_mpc_cache_misses_total = %d, want %d", v, tc.wantSwaps+1)
			}
		})
	}
}
