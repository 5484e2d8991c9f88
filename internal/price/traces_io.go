package price

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// ReadTraces parses hourly price traces from CSV: a header line naming the
// regions ("hour,region1,region2,…") followed by one row per hour. The
// hour column is positional and ignored beyond validation. This lets
// operators feed real LMP feeds (MISO, PJM, …) into the controller.
func ReadTraces(r io.Reader) ([]*Trace, error) {
	sc := bufio.NewScanner(r)
	if !sc.Scan() {
		if err := sc.Err(); err != nil {
			return nil, fmt.Errorf("price: read header: %w", err)
		}
		return nil, fmt.Errorf("empty input: %w", ErrBadTrace)
	}
	header := strings.Split(strings.TrimSpace(sc.Text()), ",")
	if len(header) < 2 {
		return nil, fmt.Errorf("header %q needs an hour column plus regions: %w", sc.Text(), ErrBadTrace)
	}
	regions := make([]Region, len(header)-1)
	for i, name := range header[1:] {
		name = strings.TrimSpace(name)
		if name == "" {
			return nil, fmt.Errorf("empty region name in header: %w", ErrBadTrace)
		}
		regions[i] = Region(name)
	}
	series := make([][]float64, len(regions))
	line := 1
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" || strings.HasPrefix(text, "#") {
			continue
		}
		fields := strings.Split(text, ",")
		if len(fields) != len(header) {
			return nil, fmt.Errorf("line %d has %d fields, want %d: %w", line, len(fields), len(header), ErrBadTrace)
		}
		for i := range regions {
			v, err := strconv.ParseFloat(strings.TrimSpace(fields[i+1]), 64)
			if err != nil {
				return nil, fmt.Errorf("line %d field %d: %w (%v)", line, i+1, ErrBadTrace, err)
			}
			series[i] = append(series[i], v)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("price: read traces: %w", err)
	}
	traces := make([]*Trace, len(regions))
	for i, reg := range regions {
		t, err := NewTrace(reg, series[i])
		if err != nil {
			return nil, err
		}
		traces[i] = t
	}
	return traces, nil
}
