// Package feed is the streaming input layer: pull-based sources of timed
// observation vectors (portal demand rates, regional electricity prices)
// that let the controller run against live, possibly late, possibly
// anomalous streams instead of pre-materialized traces (DESIGN.md §3.13).
//
// The contract is deliberately small:
//
//   - Source — Next(ctx) (Sample, error). Pull-based: the consumer (the
//     control loop) sets the pace; a Source blocks until a sample is
//     available, the stream ends (ErrEnd), or ctx is done.
//   - Adapters — FromFunc, FromTrace, FromChannel, Replay, FromJSONL turn
//     the things callers already have (a demand function, a recorded
//     trace, a producer goroutine, a JSONL stream) into Sources. A trace
//     replayed through FromTrace is bit-identical to consuming the trace
//     directly: adapters never transform values.
//   - Buffer — a bounded ring between a fast producer and the fixed-Ts
//     control loop, with a choice of overflow policy: decimation
//     (OverflowDropOldest, keep the freshest window, count the drops) or
//     backpressure (OverflowBlock, stall the producer). See ring.go.
//   - Online anomaly detection — windowed Welford mean/σ statistics with
//     hysteresis-latched spike (SpikeDetector) and forecast-drift
//     (DriftDetector) detectors. See welford.go.
//
// The package is stdlib-only and imports nothing above it; internal/core
// consumes the detectors, internal/sim and the CLIs consume the sources.
package feed

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"time"
)

// ErrEnd is returned by a Source after its final sample. It is the feed
// analogue of io.EOF: a clean end of stream, not a failure.
var ErrEnd = errors.New("feed: end of stream")

// ErrBadSample is returned for malformed stream data (FromJSONL).
var ErrBadSample = errors.New("feed: malformed sample")

// Sample is one observation pulled from a Source.
type Sample struct {
	// Seq is the source-assigned sequence number: the fast-loop step index
	// for demand sources, the price-trace hour for price sources. Sources
	// must yield non-decreasing Seq.
	Seq int `json:"seq"`
	// At is the observation's wall-clock timestamp; zero for synthetic
	// sources. Replay honors inter-sample gaps.
	At time.Time `json:"at,omitempty"`
	// Values is the observation vector — per portal for demand sources,
	// per region for price sources. Consumers treat it as read-only; a
	// Source may hand out a retained slice (FromTrace does).
	Values []float64 `json:"values"`
}

// Source is a pull-based stream of samples. Next blocks until a sample is
// available, returns ErrEnd after the final sample, or ctx.Err() when the
// context is done first. Implementations are single-consumer: Next must
// not be called concurrently.
type Source interface {
	Next(ctx context.Context) (Sample, error)
}

// funcSource adapts a step-indexed demand function.
type funcSource struct {
	fn   func(step int) []float64
	step int
}

// FromFunc adapts a step-indexed callback to a Source: sample k carries
// Seq k and fn(k)'s vector, unmodified, so the feed path is bit-identical
// to calling fn directly. The stream never
// ends; bound it with the consumer's step count or ctx.
func FromFunc(fn func(step int) []float64) Source {
	return &funcSource{fn: fn}
}

func (s *funcSource) Next(ctx context.Context) (Sample, error) {
	if err := ctx.Err(); err != nil {
		return Sample{}, err
	}
	k := s.step
	s.step++
	return Sample{Seq: k, Values: s.fn(k)}, nil
}

// traceSource yields a materialized trace row by row.
type traceSource struct {
	rows [][]float64
	next int
}

// FromTrace adapts a materialized trace: sample k carries Seq k and
// rows[k] (not copied — the caller must not mutate rows while the source
// is live), then ErrEnd. Replaying a recorded trace through FromTrace
// produces the same vectors, bit for bit, as indexing the trace directly.
func FromTrace(rows [][]float64) Source {
	return &traceSource{rows: rows}
}

func (s *traceSource) Next(ctx context.Context) (Sample, error) {
	if err := ctx.Err(); err != nil {
		return Sample{}, err
	}
	if s.next >= len(s.rows) {
		return Sample{}, ErrEnd
	}
	k := s.next
	s.next++
	return Sample{Seq: k, Values: s.rows[k]}, nil
}

// chanSource adapts a producer-owned channel.
type chanSource struct {
	ch <-chan Sample
}

// FromChannel adapts a channel fed by a producer goroutine — the live-feed
// shape. Next returns the next received sample as-is (the producer owns
// Seq/At), ErrEnd once the channel is closed and drained, or ctx.Err()
// when the context wins the select.
func FromChannel(ch <-chan Sample) Source {
	return &chanSource{ch: ch}
}

func (s *chanSource) Next(ctx context.Context) (Sample, error) {
	select {
	case <-ctx.Done():
		return Sample{}, ctx.Err()
	case smp, ok := <-s.ch:
		if !ok {
			return Sample{}, ErrEnd
		}
		return smp, nil
	}
}

// replaySource re-plays recorded samples on their recorded timeline.
type replaySource struct {
	samples []Sample
	speed   float64
	next    int
	// sleep is the ctx-aware wait; tests substitute a recorder so replay
	// pacing is verifiable without wall-clock sleeps.
	sleep func(ctx context.Context, d time.Duration) error
}

// Replay yields recorded samples in order, waiting the recorded
// inter-sample gap (scaled by 1/speed) before each sample that carries a
// timestamp later than its predecessor's. speed <= 0, missing timestamps,
// or non-positive gaps replay back-to-back; ctx bounds every wait. After
// the final sample Next returns ErrEnd.
func Replay(samples []Sample, speed float64) Source {
	return &replaySource{samples: samples, speed: speed, sleep: ctxSleep}
}

func (s *replaySource) Next(ctx context.Context) (Sample, error) {
	if err := ctx.Err(); err != nil {
		return Sample{}, err
	}
	if s.next >= len(s.samples) {
		return Sample{}, ErrEnd
	}
	k := s.next
	if s.speed > 0 && k > 0 {
		prev, cur := s.samples[k-1].At, s.samples[k].At
		if !prev.IsZero() && cur.After(prev) {
			gap := time.Duration(float64(cur.Sub(prev)) / s.speed)
			if gap > 0 {
				if err := s.sleep(ctx, gap); err != nil {
					return Sample{}, err
				}
			}
		}
	}
	s.next++
	return s.samples[k], nil
}

// ctxSleep waits d or until ctx is done, whichever comes first.
func ctxSleep(ctx context.Context, d time.Duration) error {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}

// jsonlSource decodes one Sample per JSON value from a stream.
type jsonlSource struct {
	dec  *json.Decoder
	next int
}

// FromJSONL decodes a stream of JSON sample objects, one per line:
//
//	{"seq": 0, "values": [1200, 900, 650, 820, 950]}
//
// Lines without a "seq" field are numbered by position; "at" is an
// optional RFC 3339 timestamp (Replay can re-time a decoded recording).
// The stream ends with ErrEnd at io.EOF; malformed lines fail with
// ErrBadSample. Reading from r is a blocking call the context cannot
// interrupt — Next checks ctx between lines, so cancelling a source
// backed by a file or pipe takes effect at the next line boundary.
func FromJSONL(r io.Reader) Source {
	return &jsonlSource{dec: json.NewDecoder(r)}
}

func (s *jsonlSource) Next(ctx context.Context) (Sample, error) {
	if err := ctx.Err(); err != nil {
		return Sample{}, err
	}
	var raw struct {
		Seq    *int      `json:"seq"`
		At     time.Time `json:"at"`
		Values []float64 `json:"values"`
	}
	if err := s.dec.Decode(&raw); err != nil {
		if errors.Is(err, io.EOF) {
			return Sample{}, ErrEnd
		}
		return Sample{}, fmt.Errorf("%w: %v", ErrBadSample, err)
	}
	if len(raw.Values) == 0 {
		return Sample{}, fmt.Errorf("%w: sample has no values", ErrBadSample)
	}
	smp := Sample{Seq: s.next, At: raw.At, Values: raw.Values}
	if raw.Seq != nil {
		smp.Seq = *raw.Seq
	}
	s.next = smp.Seq + 1
	return smp, nil
}
