package service

import "sync"

// costCalibrator turns raw solve-cost estimates into calibrated admission
// costs by tracking an exponentially-weighted moving average of the
// actual-over-estimate ratio. The estimator (checkmate.EstimateSolveCostFor)
// promises relative ordering, not absolute scale; the calibrator learns the
// scale online from observed solve times, so admission limits expressed in
// "roughly milliseconds of solver work" stay meaningful across machines and
// workload mixes.
type costCalibrator struct {
	mu      sync.Mutex
	ratio   float64 // EWMA of actualMS / rawEstimate
	samples int64
}

// ewmaAlpha weights the newest observation: 0.2 ≈ a ~5-solve memory, quick
// to adapt after deploys yet stable against one outlier solve.
const ewmaAlpha = 0.2

func newCostCalibrator() *costCalibrator {
	return &costCalibrator{ratio: 1}
}

// calibrated scales a raw estimate by the learned ratio.
func (c *costCalibrator) calibrated(raw float64) float64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return raw * c.ratio
}

// observe folds one finished solve into the EWMA. rawEstimate is the
// pre-calibration estimate used at admission; actualMS the measured solve
// wall-clock.
func (c *costCalibrator) observe(rawEstimate, actualMS float64) {
	if rawEstimate <= 0 {
		return
	}
	r := actualMS / rawEstimate
	// Clamp single observations so one pathological solve cannot poison the
	// calibration beyond what a few normal solves recover from.
	if r < 1e-3 {
		r = 1e-3
	}
	if r > 1e3 {
		r = 1e3
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.ratio = ewmaAlpha*r + (1-ewmaAlpha)*c.ratio
	c.samples++
}

// snapshot returns the current ratio and sample count.
func (c *costCalibrator) snapshot() (ratio float64, samples int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ratio, c.samples
}
