// Package config loads simulation scenarios from JSON files so operators
// can describe custom topologies, price sources and controller tunings
// without recompiling. cmd/idcsim consumes it via the -config flag.
//
// A minimal file:
//
//	{
//	  "name": "two-region",
//	  "portals": [12000, 8000],
//	  "idcs": [
//	    {"name": "east", "region": "michigan", "servers": 10000,
//	     "serviceRate": 2.0, "delayBoundMs": 1, "idleWatts": 150,
//	     "peakWatts": 285, "budgetMW": 4.5},
//	    {"name": "west", "region": "wisconsin", "servers": 8000,
//	     "serviceRate": 1.5, "delayBoundMs": 1, "idleWatts": 150,
//	     "peakWatts": 285}
//	  ],
//	  "steps": 240, "tsSeconds": 30, "startHour": 6, "slowEvery": 4,
//	  "mpc": {"powerWeight": 1, "smoothWeight": 6,
//	          "predHorizon": 8, "ctrlHorizon": 3},
//	  "prices": {"kind": "embedded"}
//	}
//
// Prices kinds: "embedded" (the Fig. 2 reconstructions) or "bidstack"
// (embedded base + load coupling + OU noise; see the BidStack fields).
package config

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"

	"repro/internal/ctrl"
	"repro/internal/feed"
	"repro/internal/forecast"
	"repro/internal/idc"
	"repro/internal/power"
	"repro/internal/price"
	"repro/internal/sim"
	"repro/internal/sleep"
	"repro/internal/workload"
)

// ErrBadConfig is returned for structurally invalid files.
var ErrBadConfig = errors.New("config: invalid scenario file")

// File is the JSON schema of a scenario file.
type File struct {
	Name    string    `json:"name"`
	Portals []float64 `json:"portals"` // constant demand per portal (req/s)
	IDCs    []IDCSpec `json:"idcs"`

	Steps     int     `json:"steps"`
	TsSeconds float64 `json:"tsSeconds"`
	StartHour int     `json:"startHour"`
	SlowEvery int     `json:"slowEvery"`

	MPC      MPCSpec       `json:"mpc"`
	Sleep    SleepSpec     `json:"sleep"`
	Prices   PriceSpec     `json:"prices"`
	Forecast *ForecastSpec `json:"forecast,omitempty"`

	// Diurnal switches the portals from constant demand to a diurnal
	// profile with the portal values as daily base rates.
	Diurnal      bool  `json:"diurnal,omitempty"`
	Seed         int64 `json:"seed,omitempty"`
	SkipBaseline bool  `json:"skipBaseline,omitempty"`
}

// IDCSpec describes one data center.
type IDCSpec struct {
	Name         string  `json:"name"`
	Region       string  `json:"region"`
	Servers      int     `json:"servers"`
	ServiceRate  float64 `json:"serviceRate"`
	DelayBoundMs float64 `json:"delayBoundMs"`
	IdleWatts    float64 `json:"idleWatts"`
	PeakWatts    float64 `json:"peakWatts"`
	BudgetMW     float64 `json:"budgetMW,omitempty"`
}

// MPCSpec mirrors ctrl.MPCConfig.
type MPCSpec struct {
	PredHorizon  int     `json:"predHorizon,omitempty"`
	CtrlHorizon  int     `json:"ctrlHorizon,omitempty"`
	CostWeight   float64 `json:"costWeight,omitempty"`
	PowerWeight  float64 `json:"powerWeight,omitempty"`
	SmoothWeight float64 `json:"smoothWeight,omitempty"`
}

// SleepSpec mirrors sleep.Config.
type SleepSpec struct {
	RampDownLimit  int     `json:"rampDownLimit,omitempty"`
	HysteresisFrac float64 `json:"hysteresisFrac,omitempty"`
}

// ForecastSpec mirrors forecast.PredictorConfig; presence enables
// forecasting.
type ForecastSpec struct {
	Order  int     `json:"order,omitempty"`
	Lambda float64 `json:"lambda,omitempty"`
	Delta  float64 `json:"delta,omitempty"`
}

// PriceSpec selects and parameterizes the price model.
type PriceSpec struct {
	Kind string `json:"kind"` // "embedded" (default) or "bidstack"
	// BidStack fields (used when Kind == "bidstack").
	Sensitivity float64 `json:"sensitivity,omitempty"`
	RefMW       float64 `json:"refMW,omitempty"`
	Gamma       float64 `json:"gamma,omitempty"`
	Sigma       float64 `json:"sigma,omitempty"`
	Seed        int64   `json:"seed,omitempty"`
}

// Load reads and validates a scenario file.
func Load(path string) (*File, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("config: %w", err)
	}
	defer f.Close()
	return Parse(f)
}

// Parse reads and validates a scenario from a reader.
func Parse(r io.Reader) (*File, error) {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	var file File
	if err := dec.Decode(&file); err != nil {
		return nil, fmt.Errorf("config: decode: %w (%v)", ErrBadConfig, err)
	}
	if err := file.validate(); err != nil {
		return nil, err
	}
	return &file, nil
}

func (f *File) validate() error {
	if len(f.Portals) == 0 {
		return fmt.Errorf("no portals: %w", ErrBadConfig)
	}
	for i, d := range f.Portals {
		if d < 0 {
			return fmt.Errorf("portal %d demand %g: %w", i, d, ErrBadConfig)
		}
	}
	if len(f.IDCs) == 0 {
		return fmt.Errorf("no idcs: %w", ErrBadConfig)
	}
	if f.Steps <= 0 {
		return fmt.Errorf("steps %d: %w", f.Steps, ErrBadConfig)
	}
	switch f.Prices.Kind {
	case "", "embedded", "bidstack":
	default:
		return fmt.Errorf("price kind %q: %w", f.Prices.Kind, ErrBadConfig)
	}
	for i, spec := range f.IDCs {
		if spec.Servers <= 0 || spec.ServiceRate <= 0 || spec.DelayBoundMs <= 0 {
			return fmt.Errorf("idc %d (%s) parameters: %w", i, spec.Name, ErrBadConfig)
		}
		if spec.PeakWatts < spec.IdleWatts || spec.IdleWatts < 0 {
			return fmt.Errorf("idc %d (%s) power: %w", i, spec.Name, ErrBadConfig)
		}
	}
	return nil
}

// Scenario materializes the file into a runnable sim.Scenario.
func (f *File) Scenario() (sim.Scenario, error) {
	idcs := make([]idc.IDC, len(f.IDCs))
	for i, spec := range f.IDCs {
		pm, err := power.NewServerModel(spec.IdleWatts, spec.PeakWatts, spec.ServiceRate)
		if err != nil {
			return sim.Scenario{}, fmt.Errorf("config: idc %s: %w", spec.Name, err)
		}
		idcs[i] = idc.IDC{
			Name:         spec.Name,
			Region:       price.Region(spec.Region),
			TotalServers: spec.Servers,
			ServiceRate:  spec.ServiceRate,
			DelayBound:   spec.DelayBoundMs / 1000,
			Power:        pm,
			BudgetWatts:  spec.BudgetMW * 1e6,
		}
	}
	top, err := idc.NewTopology(len(f.Portals), idcs)
	if err != nil {
		return sim.Scenario{}, err
	}

	var model price.Model
	switch f.Prices.Kind {
	case "", "embedded":
		model = price.NewEmbeddedModel()
	case "bidstack":
		model = price.NewBidStackModel(price.NewEmbeddedModel(), price.BidStackConfig{
			Sensitivity: f.Prices.Sensitivity,
			RefMW:       f.Prices.RefMW,
			Gamma:       f.Prices.Gamma,
			Sigma:       f.Prices.Sigma,
			Seed:        f.Prices.Seed,
		})
	}

	sc := sim.Scenario{
		Name:      f.Name,
		Topology:  top,
		Prices:    model,
		Steps:     f.Steps,
		Ts:        f.TsSeconds,
		StartHour: f.StartHour,
		SlowEvery: f.SlowEvery,
		MPC: ctrl.MPCConfig{
			PredHorizon:  f.MPC.PredHorizon,
			CtrlHorizon:  f.MPC.CtrlHorizon,
			CostWeight:   f.MPC.CostWeight,
			PowerWeight:  f.MPC.PowerWeight,
			SmoothWeight: f.MPC.SmoothWeight,
		},
		Sleep: sleep.Config{
			RampDownLimit:  f.Sleep.RampDownLimit,
			HysteresisFrac: f.Sleep.HysteresisFrac,
		},
		SkipBaseline: f.SkipBaseline,
	}
	if f.Forecast != nil {
		sc.UseForecast = true
		sc.Forecast = forecast.PredictorConfig{
			Order:  f.Forecast.Order,
			Lambda: f.Forecast.Lambda,
			Delta:  f.Forecast.Delta,
		}
	}
	if f.Diurnal {
		gens := make([]workload.Generator, len(f.Portals))
		for i, base := range f.Portals {
			g, err := workload.NewDiurnal(workload.DiurnalConfig{
				Base: base, NoiseFrac: 0.04, Seed: f.Seed + int64(i),
			})
			if err != nil {
				return sim.Scenario{}, err
			}
			gens[i] = g
		}
		portals, err := workload.NewPortals(gens...)
		if err != nil {
			return sim.Scenario{}, err
		}
		sc.DemandSource = feed.FromFunc(portals.Demands)
	} else {
		demands := append([]float64{}, f.Portals...)
		sc.DemandSource = feed.FromFunc(func(int) []float64 { return demands })
	}
	return sc, nil
}
