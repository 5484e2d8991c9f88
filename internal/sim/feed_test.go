package sim

import (
	"context"
	"errors"
	"math"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/feed"
	"repro/internal/price"
	"repro/internal/workload"
)

// errNoHourData marks an hour the hourModel oracle has no prices for.
var errNoHourData = errors.New("no price data for hour")

// wavyDemands returns a deterministic time-varying demand function and the
// same series materialized as trace rows, for comparing the two input paths.
func wavyDemands(steps int) (func(step int) []float64, [][]float64) {
	base := workload.TableI()
	at := func(k int) []float64 {
		out := make([]float64, len(base))
		for i, b := range base {
			out[i] = b * (0.8 + 0.15*math.Sin(float64(k)/7+float64(i)))
		}
		return out
	}
	rows := make([][]float64, steps)
	for k := range rows {
		rows[k] = at(k)
	}
	return at, rows
}

// TestFeedPathBitIdentical pins the feed contract: a step-indexed callback
// (FromFunc), the same series as a trace (FromTrace), and that trace pushed
// through a Buffer all produce bit-identical series — adapters and the
// ring never transform values.
func TestFeedPathBitIdentical(t *testing.T) {
	const steps = 24
	demandAt, rows := wavyDemands(steps)

	base := paperScenario()
	base.Steps = steps
	base.SlowEvery = 2

	fromFunc := base
	fromFunc.DemandSource = feed.FromFunc(demandAt)
	want, err := Run(fromFunc)
	if err != nil {
		t.Fatalf("FromFunc run: %v", err)
	}

	traced := base
	traced.DemandSource = feed.FromTrace(rows)
	got, err := Run(traced)
	if err != nil {
		t.Fatalf("trace run: %v", err)
	}
	if !reflect.DeepEqual(want.Control, got.Control) {
		t.Fatal("FromTrace series differ from the FromFunc series")
	}
	if !reflect.DeepEqual(want.Optimal, got.Optimal) {
		t.Fatal("FromTrace baseline differs from the FromFunc baseline")
	}

	buffered := base
	ctx := context.Background()
	// OverflowBlock: full backpressure, so nothing can be decimated and the
	// series must match sample for sample.
	buffered.DemandSource = feed.NewBuffer(feed.FromTrace(rows), 4, feed.OverflowBlock).Start(ctx)
	got, err = RunContext(ctx, buffered)
	if err != nil {
		t.Fatalf("buffered run: %v", err)
	}
	if !reflect.DeepEqual(want.Control, got.Control) {
		t.Fatal("buffered series differ from the FromFunc series")
	}
}

func TestFeedEndsEarlyIsCleanPartialRun(t *testing.T) {
	_, rows := wavyDemands(5)
	sc := paperScenario()
	sc.Steps = 20 // more than the stream has
	sc.SkipBaseline = true
	sc.DemandSource = feed.FromTrace(rows)
	res, err := Run(sc)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if res.Control.Steps() != 5 {
		t.Fatalf("recorded %d steps, want the stream's 5", res.Control.Steps())
	}
}

// hourModel is a deterministic per-hour price model used as the oracle for
// the PriceSource path.
type hourModel struct{ byHour map[int][]float64 }

func (m hourModel) Price(r price.Region, h int, _ float64) (float64, error) {
	vals, ok := m.byHour[h]
	if !ok {
		return 0, errNoHourData
	}
	switch r {
	case price.Michigan:
		return vals[0], nil
	case price.Minnesota:
		return vals[1], nil
	case price.Wisconsin:
		return vals[2], nil
	}
	return 0, price.ErrUnknownRegion
}

func TestPriceSourceMatchesModel(t *testing.T) {
	byHour := map[int][]float64{
		6: {43.26, 30.26, 19.06},
		7: {49.90, 29.47, 77.97},
	}
	base := paperScenario()
	base.Steps = 130 // crosses the 6H→7H boundary at step 120 (Ts = 30 s)
	base.SkipBaseline = true

	viaModel := base
	viaModel.Prices = hourModel{byHour: byHour}
	want, err := Run(viaModel)
	if err != nil {
		t.Fatalf("model run: %v", err)
	}

	viaFeed := base
	viaFeed.Prices = nil
	viaFeed.PriceSource = feed.Replay([]feed.Sample{
		{Seq: 6, Values: byHour[6]},
		{Seq: 7, Values: byHour[7]},
	}, 0)
	got, err := Run(viaFeed)
	if err != nil {
		t.Fatalf("feed run: %v", err)
	}
	if !reflect.DeepEqual(want.Control, got.Control) {
		t.Fatal("PriceSource series differ from the equivalent price.Model series")
	}
}

func TestPriceFeedDeathDegradesWithPolicy(t *testing.T) {
	// The stream only carries hour 6; entering hour 7 the adapter reports
	// end-of-stream. With a hold budget the run must ride it out in
	// ModeStalePrice on held prices instead of failing.
	src := func() feed.Source {
		return feed.Replay([]feed.Sample{{Seq: 6, Values: []float64{43.26, 30.26, 19.06}}}, 0)
	}
	sc := paperScenario()
	sc.Steps = 128 // 2 slow ticks past the hour boundary at SlowEvery = 4
	sc.SkipBaseline = true
	sc.Prices = nil
	sc.PriceSource = src()
	sc.FeedPolicy = core.FeedPolicy{MaxPriceStaleTicks: 10}
	res, err := Run(sc)
	if err != nil {
		t.Fatalf("Run with policy: %v", err)
	}
	if res.Control.Steps() != 128 {
		t.Fatalf("recorded %d steps, want 128", res.Control.Steps())
	}
	modes := res.Control.Modes
	if modes[0] != core.ModeNominal || modes[119] != core.ModeNominal {
		t.Fatalf("hour-6 modes = %v/%v, want nominal", modes[0], modes[119])
	}
	if modes[120] != core.ModeStalePrice || modes[127] != core.ModeStalePrice {
		t.Fatalf("hour-7 modes = %v/%v, want stale-price", modes[120], modes[127])
	}
	// Held prices: hour 7 keeps serving hour 6's vector.
	if p := res.Control.Prices[0][127]; p != 43.26 {
		t.Fatalf("held price = %g, want 43.26", p)
	}

	// Without a policy the same death fails the run at the boundary.
	sc.FeedPolicy = core.FeedPolicy{}
	sc.PriceSource = src()
	if _, err := Run(sc); !errors.Is(err, feed.ErrEnd) {
		t.Fatalf("no-policy err = %v, want wrapped feed.ErrEnd", err)
	}
}

func TestPriceFeedGapRecovers(t *testing.T) {
	// Hour 7 is missing from the stream: a gap, not a death. The run holds
	// hour 6's prices through hour 7 and recovers to nominal on hour 8's
	// sample — the controller enters AND exits the degraded mode.
	sc := paperScenario()
	sc.Steps = 248 // hours 6, 7 (held) and the first 8 steps of hour 8
	sc.SkipBaseline = true
	sc.Prices = nil
	sc.PriceSource = feed.Replay([]feed.Sample{
		{Seq: 6, Values: []float64{43.26, 30.26, 19.06}},
		{Seq: 8, Values: []float64{50, 31, 20}},
	}, 0)
	sc.FeedPolicy = core.FeedPolicy{MaxPriceStaleTicks: 40}
	res, err := Run(sc)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	modes := res.Control.Modes
	if modes[119] != core.ModeNominal {
		t.Fatalf("hour-6 mode = %v, want nominal", modes[119])
	}
	if modes[130] != core.ModeStalePrice {
		t.Fatalf("hour-7 mode = %v, want stale-price", modes[130])
	}
	if modes[247] != core.ModeNominal {
		t.Fatalf("hour-8 mode = %v, want nominal after recovery", modes[247])
	}
	if p := res.Control.Prices[0][247]; p != 50 {
		t.Fatalf("hour-8 price = %g, want the fresh 50", p)
	}
}
