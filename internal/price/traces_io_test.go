package price

import (
	"errors"
	"strconv"
	"strings"
	"testing"
)

func TestReadTracesRoundTrip(t *testing.T) {
	orig := []*Trace{MustEmbedded(Michigan), MustEmbedded(Minnesota), MustEmbedded(Wisconsin)}
	var csv strings.Builder
	csv.WriteString("hour")
	for _, tr := range orig {
		csv.WriteString("," + string(tr.Region()))
	}
	for h := 0; h < 24; h++ {
		csv.WriteString("\n" + strconv.Itoa(h))
		for _, tr := range orig {
			csv.WriteString("," + strconv.FormatFloat(tr.AtHour(h), 'g', -1, 64))
		}
	}
	parsed, err := ReadTraces(strings.NewReader(csv.String()))
	if err != nil {
		t.Fatalf("ReadTraces: %v", err)
	}
	if len(parsed) != 3 {
		t.Fatalf("parsed %d traces", len(parsed))
	}
	for i, tr := range parsed {
		if tr.Region() != orig[i].Region() {
			t.Fatalf("region %d = %s, want %s", i, tr.Region(), orig[i].Region())
		}
		for h := 0; h < 24; h++ {
			if tr.AtHour(h) != orig[i].AtHour(h) {
				t.Fatalf("%s hour %d: %g vs %g", tr.Region(), h, tr.AtHour(h), orig[i].AtHour(h))
			}
		}
	}
}

func TestReadTracesCustomRegions(t *testing.T) {
	in := "hour,east,west\n0,10,20\n1,11,21\n# comment\n\n2,12,22\n"
	traces, err := ReadTraces(strings.NewReader(in))
	if err != nil {
		t.Fatalf("ReadTraces: %v", err)
	}
	if len(traces) != 2 || traces[0].Region() != Region("east") {
		t.Fatalf("traces = %v", traces)
	}
	if traces[1].AtHour(2) != 22 {
		t.Fatalf("west hour 2 = %g", traces[1].AtHour(2))
	}
	// Feed straight into a model.
	m := NewTraceModel(traces...)
	p, err := m.Price(Region("east"), 1, 0)
	if err != nil || p != 11 {
		t.Fatalf("model price = %g, %v", p, err)
	}
}

func TestReadTracesErrors(t *testing.T) {
	cases := map[string]string{
		"empty":        "",
		"no regions":   "hour\n0\n",
		"short row":    "hour,a,b\n0,1\n",
		"bad number":   "hour,a\n0,xyz\n",
		"empty region": "hour, \n0,1\n",
	}
	for name, in := range cases {
		t.Run(name, func(t *testing.T) {
			if _, err := ReadTraces(strings.NewReader(in)); !errors.Is(err, ErrBadTrace) {
				t.Fatalf("err = %v, want ErrBadTrace", err)
			}
		})
	}
}
