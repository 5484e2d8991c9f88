package bench

import "time"

// A shared machine changes speed in phases that last tens of seconds to
// minutes: a frozen compute kernel's best time moves between a few
// discrete levels (host clock or co-tenant load), and the controller's
// tick times move with it — fig4-smooth's by about the same factor, the
// other workloads' by less or more, depending on the phase. A 20-second run
// usually sits in one phase, so no estimator over the run alone can remove
// that shift, and no single factor converts it for every workload. The
// calibrator times the kernel between episodes; its best time over the run
// is recorded with the run as a measure of the machine's speed, and
// -compare refuses to judge times taken at speeds too far apart.

// calN is the kernel's matrix order; one product is calN³ multiply-adds.
const calN = 48

// calibrator times a naive dense matrix product that depends on no
// repository code, so no change to the program can move it.
type calibrator struct {
	a, b, c []float64
	// bestUS is the fastest kernel time seen, in microseconds.
	bestUS float64
	probes int
}

func newCalibrator() *calibrator {
	c := &calibrator{
		a: make([]float64, calN*calN),
		b: make([]float64, calN*calN),
		c: make([]float64, calN*calN),
	}
	for i := range c.a {
		c.a[i] = float64(i%7) + 0.5
		c.b[i] = float64(i%5) - 1.5
	}
	return c
}

// probe times reps runs of the kernel and keeps the best.
func (c *calibrator) probe(reps int) {
	for r := 0; r < reps; r++ {
		start := time.Now()
		c.kernel()
		us := micros(time.Since(start))
		if c.probes == 0 || us < c.bestUS {
			c.bestUS = us
		}
		c.probes++
	}
}

func (c *calibrator) kernel() {
	a, b, dst := c.a, c.b, c.c
	for i := 0; i < calN; i++ {
		for j := 0; j < calN; j++ {
			var s float64
			for k := 0; k < calN; k++ {
				s += a[i*calN+k] * b[k*calN+j]
			}
			dst[i*calN+j] = s
		}
	}
}
