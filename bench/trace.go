package bench

import (
	"bufio"
	"fmt"
	"io"
	"time"
)

func micros(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// selfTimes returns each span's duration minus its children's, in µs.
func selfTimes(spans []span) []float64 {
	self := make([]float64, len(spans))
	for i, s := range spans {
		self[i] = micros(s.end - s.start)
	}
	for _, s := range spans {
		if s.parent >= 0 {
			self[s.parent] -= micros(s.end - s.start)
		}
	}
	return self
}

// minTimes returns, per span index, the minimum self time and the minimum
// duration over the replays — the per-index minimum estimator applied to
// spans. Every replay must have produced the same span sequence.
func minTimes(runs []*replayRun) (self, dur []float64, err error) {
	first := runs[0].spans
	self = selfTimes(first)
	dur = make([]float64, len(first))
	for i, s := range first {
		dur[i] = micros(s.end - s.start)
	}
	for _, r := range runs[1:] {
		if len(r.spans) != len(first) {
			return nil, nil, fmt.Errorf("bench: replays recorded %d and %d spans", len(first), len(r.spans))
		}
		rs := selfTimes(r.spans)
		for i, s := range r.spans {
			if s.name != first[i].name || s.tick != first[i].tick || s.parent != first[i].parent {
				return nil, nil, fmt.Errorf("bench: replays diverge at span %d", i)
			}
			self[i] = min(self[i], rs[i])
			dur[i] = min(dur[i], micros(s.end-s.start))
		}
	}
	return self, dur, nil
}

// layerTimes aggregates span self times by name over ticks 1 and later
// (tick 0 is the cold tick, counted in set-up).
type layerTimes struct {
	sum   [numSpanNames]float64
	count [numSpanNames]int
	// tickDur is the summed duration of the replayed ticks.
	tickDur float64
	ticks   int
}

func aggregate(spans []span, self, dur []float64) layerTimes {
	var lt layerTimes
	for i, s := range spans {
		if s.tick == 0 {
			continue
		}
		lt.sum[s.name] += self[i]
		lt.count[s.name]++
		if s.name == spanTick {
			lt.tickDur += dur[i]
			lt.ticks++
		}
	}
	return lt
}

// meanSelf is the mean self time per call of a span name, 0 without calls.
func (lt *layerTimes) meanSelf(name int) float64 {
	if lt.count[name] == 0 {
		return 0
	}
	return lt.sum[name] / float64(lt.count[name])
}

// layersPerTick is the mean per-tick self time of every layer span — all
// of a tick's spans except the tick itself, whose self time is the glue.
func (lt *layerTimes) layersPerTick() float64 {
	var s float64
	for name := range lt.sum {
		if name != spanTick && name != spanBaseline {
			s += lt.sum[name]
		}
	}
	return s / float64(lt.ticks)
}

// writeSpans writes spans as JSONL, one object per span.
func writeSpans(w io.Writer, spans []span) error {
	bw := bufio.NewWriter(w)
	for i, s := range spans {
		fmt.Fprintf(bw, "{\"id\":%d,\"name\":%q,\"tick\":%d,\"parent\":%d,\"start_ns\":%d,\"end_ns\":%d}\n",
			i, spanNames[s.name], s.tick, s.parent, s.start.Nanoseconds(), s.end.Nanoseconds())
	}
	return bw.Flush()
}
