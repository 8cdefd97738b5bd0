package main

import (
	"math"
	"regexp"
	"sort"
)

// quantile returns the q-quantile of sorted by linear interpolation between
// order statistics (NaN when empty). +Inf entries — failed operations —
// sort last, so a failure counts as missing any latency limit.
func quantile(sorted []float64, q float64) float64 {
	n := len(sorted)
	if n == 0 {
		return math.NaN()
	}
	pos := q * float64(n-1)
	lo := int(math.Floor(pos))
	hi := lo + 1
	if hi >= n {
		return sorted[n-1]
	}
	frac := pos - float64(lo)
	if frac == 0 || sorted[lo] == sorted[hi] {
		return sorted[lo] // also keeps Inf - Inf out
	}
	return sorted[lo] + frac*(sorted[hi]-sorted[lo])
}

// dist is a sample in arrival order, for quantiles.
type dist struct {
	v      []float64
	sorted []float64 // sorted copy of v, built on demand
}

func (d *dist) add(x float64) {
	d.v = append(d.v, x)
	d.sorted = nil
}

func (d *dist) n() int { return len(d.v) }

// pooled returns the q-quantile of the whole sample.
func (d *dist) pooled(q float64) float64 {
	if d.sorted == nil {
		d.sorted = append([]float64(nil), d.v...)
		sort.Float64s(d.sorted)
	}
	return quantile(d.sorted, q)
}

// Sub-window quantiles: a sample is cut, in arrival order, into up to
// maxWindows consecutive windows of at least minWindow samples, and a
// quantile is the median of the windows' quantiles. A stall of the host that
// hits one window moves that window's tail, not the reported one; a sample
// too small for two windows is pooled.
const (
	maxWindows = 5
	minWindow  = 1000
)

// q returns the sub-window q-quantile (NaN when empty).
func (d *dist) q(q float64) float64 {
	k := min(maxWindows, len(d.v)/minWindow)
	if k < 2 {
		return d.pooled(q)
	}
	qs := make([]float64, k)
	for i := range qs {
		w := append([]float64(nil), d.v[i*len(d.v)/k:(i+1)*len(d.v)/k]...)
		sort.Float64s(w)
		qs[i] = quantile(w, q)
	}
	sort.Float64s(qs)
	return quantile(qs, 0.5)
}

// mean of d's finite entries (0 when none).
func (d *dist) mean() float64 {
	sum, n := 0.0, 0
	for _, x := range d.v {
		if !math.IsInf(x, 0) {
			sum += x
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// step is one offered-rate probe of the capacity search.
type step struct {
	Rate     float64 // offered ops/s
	P99us    float64 // p99 latency from due time, failures as +Inf
	Achieved float64 // completed-within-limit ops/s ÷ offered
}

// passes reports whether the step meets the latency limit with no growing
// backlog.
func (s step) passes(limitUs float64) bool {
	return s.P99us <= limitUs && s.Achieved >= 0.99
}

// searchCapacity finds the highest offered rate whose p99 meets limitUs
// with no growing backlog. base is the fixed-rate result (already
// measured). The search climbs a geometric ladder (×growth) from base, at
// most budget probes and no higher than base.Rate·maxRatio, stopping after
// two failing rungs in a row; below a failing base it descends instead.
// The ladder's p99s are then made non-decreasing in rate by isotonic
// regression on log p99 — one noisy rung is averaged with its neighbours
// instead of ending the search — and the limit crossing is interpolated in
// log-latency, log-rate space between the last passing and first failing
// fitted rungs, so the result varies continuously with the measured curve
// instead of snapping to rungs. A ladder that never fails reports its top
// rung.
func searchCapacity(base step, limitUs, growth, maxRatio float64, budget int, probe func(rate float64) step) (float64, []step) {
	steps := []step{base}
	if base.passes(limitUs) {
		fails := 0
		for r := base.Rate * growth; budget > 0 && fails < 2 && r <= base.Rate*maxRatio*(1+1e-9); r *= growth {
			s := probe(r)
			budget--
			steps = append(steps, s)
			if s.passes(limitUs) {
				fails = 0
			} else {
				fails++
			}
		}
	} else {
		for r := base.Rate / growth; budget > 0 && r >= base.Rate/maxRatio*(1-1e-9); r /= growth {
			s := probe(r)
			budget--
			steps = append([]step{s}, steps...)
			if s.passes(limitUs) {
				break
			}
		}
	}
	return fitCrossing(steps, limitUs), steps
}

// failedUs stands in for the p99 of a rung that failed on backlog or
// errors, so the fit treats it as far above any limit.
const failedUs = 1e12

// fitCrossing fits a non-decreasing log-p99 curve to rungs in ascending
// rate order (pool-adjacent-violators) and interpolates where it crosses
// limitUs; 0 when even the lowest rung fails. Past a rung that failed on
// backlog or errors the crossing is the last passing rung.
func fitCrossing(steps []step, limitUs float64) float64 {
	type block struct {
		sum float64
		n   int
	}
	var blocks []block
	for _, s := range steps {
		y := math.Log(failedUs)
		if s.Achieved >= 0.99 && s.P99us > 0 && s.P99us < failedUs {
			y = math.Log(s.P99us)
		}
		blocks = append(blocks, block{y, 1})
		for len(blocks) > 1 {
			a, b := blocks[len(blocks)-2], blocks[len(blocks)-1]
			if a.sum/float64(a.n) <= b.sum/float64(b.n) {
				break
			}
			blocks = append(blocks[:len(blocks)-2], block{a.sum + b.sum, a.n + b.n})
		}
	}
	fit := make([]float64, 0, len(steps))
	for _, b := range blocks {
		for i := 0; i < b.n; i++ {
			fit = append(fit, b.sum/float64(b.n))
		}
	}
	lim := math.Log(limitUs)
	for i, y := range fit {
		if y <= lim {
			continue
		}
		if i == 0 {
			return 0
		}
		if y >= math.Log(failedUs) {
			return steps[i-1].Rate // a backlog has no latency to interpolate towards
		}
		lo, hi := math.Log(steps[i-1].Rate), math.Log(steps[i].Rate)
		f := (lim - fit[i-1]) / (y - fit[i-1])
		return math.Exp(lo + f*(hi-lo))
	}
	return steps[len(steps)-1].Rate
}

var metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// validMetricName reports whether name is a legal metric name: a letter or
// digit first, at most 64 of [A-Za-z0-9_.-].
func validMetricName(name string) bool { return metricName.MatchString(name) }
