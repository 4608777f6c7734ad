package stats

import "math"

// Welford accumulates a sample mean and variance online (Welford's
// algorithm). The zero value is an empty accumulator ready to use.
type Welford struct {
	n    int64
	mean float64
	m2   float64
}

// Add incorporates one observation.
func (w *Welford) Add(x float64) {
	w.n++
	d := x - w.mean
	w.mean += d / float64(w.n)
	w.m2 += d * (x - w.mean)
}

// N returns the number of observations.
func (w *Welford) N() int64 { return w.n }

// Mean returns the sample mean (0 for an empty accumulator).
func (w *Welford) Mean() float64 { return w.mean }

// Var returns the unbiased sample variance (0 with fewer than 2 samples).
func (w *Welford) Var() float64 {
	if w.n < 2 {
		return 0
	}
	return w.m2 / float64(w.n-1)
}

// Stddev returns the sample standard deviation.
func (w *Welford) Stddev() float64 { return math.Sqrt(w.Var()) }

// StderrMean returns the standard error of the mean.
func (w *Welford) StderrMean() float64 {
	if w.n < 2 {
		return 0
	}
	return w.Stddev() / math.Sqrt(float64(w.n))
}

// Counter is a windowed event counter: it accumulates a value and can be
// reset, returning the accumulated amount. Used for interval loss counts.
type Counter struct {
	total int64
}

// Add increments the counter.
func (c *Counter) Add(n int64) { c.total += n }

// Take returns the current count and resets it to zero.
func (c *Counter) Take() int64 {
	t := c.total
	c.total = 0
	return t
}

// Total returns the current count without resetting.
func (c *Counter) Total() int64 { return c.total }

// TimeWeighted accumulates the time integral of a piecewise-constant signal
// so that Mean returns its time average. Times are arbitrary consistent
// units (the simulator uses nanoseconds as int64 widened to float64).
type TimeWeighted struct {
	lastT    float64
	value    float64
	integral float64
	started  bool
	startT   float64
}

// Set records that the signal takes value v from time t onward.
func (tw *TimeWeighted) Set(t, v float64) {
	if !tw.started {
		tw.started = true
		tw.startT = t
	} else if t > tw.lastT {
		tw.integral += tw.value * (t - tw.lastT)
	}
	tw.lastT = t
	tw.value = v
}

// Mean returns the time average of the signal from the first Set up to time
// t (extending the last value to t).
func (tw *TimeWeighted) Mean(t float64) float64 {
	if !tw.started || t <= tw.startT {
		return 0
	}
	integral := tw.integral
	if t > tw.lastT {
		integral += tw.value * (t - tw.lastT)
	}
	return integral / (t - tw.startT)
}

// Reset clears the accumulator but keeps the current value, restarting the
// averaging window at time t. Used to discard simulation warm-up.
func (tw *TimeWeighted) Reset(t float64) {
	v := tw.value
	started := tw.started
	*tw = TimeWeighted{}
	if started {
		tw.Set(t, v)
	}
}

// WindowMax is the Measured Sum load estimator of Jamin, Shenker and Danzig
// ("Comparison of measurement-based admission control algorithms for
// Controlled-Load Service", INFOCOM '97): arrivals are averaged over
// sampling periods of length S, and the load estimate is the maximum of the
// per-period averages within the most recent measurement window of T = n*S.
// When a new flow is admitted, the estimate is immediately bumped by the
// flow's rate (handled by the caller via Boost).
type WindowMax struct {
	periodLen float64   // S, in seconds
	samples   []float64 // ring of the last n per-period averages
	idx       int
	curStart  float64 // start time of the current period
	curBits   float64 // bits that arrived in the current period
	boost     float64 // rates of recently admitted flows not yet measured
	boostAge  int     // completed periods since the last Boost
}

// NewWindowMax returns an estimator with sampling period s seconds and a
// window of n periods.
func NewWindowMax(s float64, n int) *WindowMax {
	if s <= 0 || n <= 0 {
		panic("stats: NewWindowMax requires positive period and count")
	}
	return &WindowMax{periodLen: s, samples: make([]float64, n)}
}

// roll closes out any sampling periods that have ended by time t.
func (wm *WindowMax) roll(t float64) {
	for t-wm.curStart >= wm.periodLen {
		avg := wm.curBits / wm.periodLen
		wm.samples[wm.idx] = avg
		wm.idx = (wm.idx + 1) % len(wm.samples)
		wm.curBits = 0
		wm.curStart += wm.periodLen
		// Once a full measurement window has elapsed since the last
		// admission, the window's samples reflect the admitted flows and
		// the boost is retired, per the Measured Sum description.
		if wm.boost != 0 {
			wm.boostAge++
			if wm.boostAge >= len(wm.samples) {
				wm.boost = 0
			}
		}
	}
}

func (wm *WindowMax) maxSample() float64 {
	m := 0.0
	for _, v := range wm.samples {
		if v > m {
			m = v
		}
	}
	return m
}

// Arrive records that bits arrived at time t (seconds).
func (wm *WindowMax) Arrive(t, bits float64) {
	wm.roll(t)
	wm.curBits += bits
}

// Boost raises the estimate by rate (bits/s) to account for a just-admitted
// flow whose traffic has not yet been measured. A negative rate rolls back
// a failed multi-hop reservation.
func (wm *WindowMax) Boost(rate float64) {
	wm.boost += rate
	wm.boostAge = 0
}

// Estimate returns the current load estimate in bits/s at time t.
func (wm *WindowMax) Estimate(t float64) float64 {
	wm.roll(t)
	return wm.maxSample() + wm.boost
}
