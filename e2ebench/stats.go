package main

import (
	"math"
	"math/bits"
	"sort"
	"sync"
	"time"
)

// hist is a log-linear latency histogram over nanoseconds: values
// below 512 ns have a bucket each, larger ones 256 buckets per power of
// two (0.4 % wide). Its size is fixed, so the benchmark's own memory
// does not grow with the number of operations a run completes and
// heap_live_mb measures the program. Quantiles interpolate by rank
// inside a bucket. Safe for concurrent use.
type hist struct {
	mu     sync.Mutex
	counts [histBuckets]uint64
	n      uint64
}

const (
	histSubBits = 8
	histSub     = 1 << histSubBits // buckets per power of two
	histLinear  = 2 * histSub      // values below this have exact buckets
	histBuckets = histLinear + (64-histSubBits-1)*histSub
)

func histIndex(v uint64) int {
	if v < histLinear {
		return int(v)
	}
	e := bits.Len64(v) - histSubBits - 1 // v>>e lies in [histSub, 2*histSub)
	return histLinear + (e-1)*histSub + int(v>>e) - histSub
}

// histRange is the value interval [lo, hi) bucket i covers.
func histRange(i int) (lo, hi float64) {
	if i < histLinear {
		return float64(i), float64(i + 1)
	}
	e := (i-histLinear)/histSub + 1
	m := uint64((i-histLinear)%histSub + histSub)
	return float64(m << e), float64((m + 1) << e)
}

func (h *hist) add(d time.Duration) {
	if d < 0 {
		d = 0
	}
	i := histIndex(uint64(d))
	h.mu.Lock()
	h.counts[i]++
	h.n++
	h.mu.Unlock()
}

func (h *hist) count() uint64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.n
}

// quantile returns the q-quantile (0..1) as a duration; 0 when empty.
func (h *hist) quantile(q float64) time.Duration {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.n == 0 {
		return 0
	}
	target := q * float64(h.n-1) // rank, 0-based
	var cum uint64
	for i, c := range h.counts {
		if c == 0 {
			continue
		}
		if float64(cum+c-1) >= target {
			lo, hi := histRange(i)
			frac := (target - float64(cum) + 0.5) / float64(c)
			return time.Duration(lo + (hi-lo)*math.Min(math.Max(frac, 0), 1))
		}
		cum += c
	}
	lo, _ := histRange(histBuckets - 1)
	return time.Duration(lo)
}

// windowed keeps one histogram per fixed-width time window of a run.
// Its quantile is the median, over the windows holding enough samples,
// of each window's quantile: the tail of a typical window, so a host
// stall that hits one window does not decide the run's figure. Safe
// for concurrent use.
type windowed struct {
	start time.Time
	width time.Duration

	mu   sync.Mutex
	all  hist
	wins []*hist
}

func newWindowed(start time.Time, width time.Duration) *windowed {
	return &windowed{start: start, width: width}
}

// add records d for the window holding instant at.
func (w *windowed) add(at time.Time, d time.Duration) {
	w.all.add(d)
	i := int(at.Sub(w.start) / w.width)
	if i < 0 {
		return
	}
	w.mu.Lock()
	for len(w.wins) <= i {
		w.wins = append(w.wins, &hist{})
	}
	h := w.wins[i]
	w.mu.Unlock()
	h.add(d)
}

func (w *windowed) count() uint64 { return w.all.count() }

// quantile is the median of the per-window q-quantiles over windows
// with at least minSamples samples; the whole run's quantile when no
// window has that many.
func (w *windowed) quantile(q float64, minSamples uint64) time.Duration {
	w.mu.Lock()
	wins := append([]*hist(nil), w.wins...)
	w.mu.Unlock()
	var per []float64
	for _, h := range wins {
		if h.count() >= minSamples {
			per = append(per, float64(h.quantile(q)))
		}
	}
	if len(per) == 0 {
		return w.all.quantile(q)
	}
	return time.Duration(quantile(per, 0.5))
}

// Minimum samples a window needs to count toward a median or a 99th
// percentile: a p99 from fewer than 200 samples has no tail beyond it.
const (
	minP50 = 20
	minP99 = 200
)

func p50(w *windowed) time.Duration { return w.quantile(0.5, minP50) }
func p99(w *windowed) time.Duration { return w.quantile(0.99, minP99) }

// quantile of a small sample, interpolated between order statistics.
func quantile(vals []float64, q float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	return sortedQuantile(s, q)
}

func sortedQuantile(s []float64, q float64) float64 {
	h := q * float64(len(s)-1)
	lo := int(math.Floor(h))
	hi := int(math.Ceil(h))
	return s[lo] + (s[hi]-s[lo])*(h-float64(lo))
}

// durs is a small concurrent-safe sample of durations kept raw, for
// low-volume measurements (rounds, set-up steps, submissions).
type durs struct {
	mu sync.Mutex
	v  []float64 // milliseconds
}

func (d *durs) add(x time.Duration) {
	d.mu.Lock()
	d.v = append(d.v, ms(x))
	d.mu.Unlock()
}

func (d *durs) len() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return len(d.v)
}

// quantileMs returns the q-quantile in milliseconds.
func (d *durs) quantileMs(q float64) float64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	return quantile(d.v, q)
}

func (d *durs) maxMs() float64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	m := 0.0
	for _, x := range d.v {
		m = math.Max(m, x)
	}
	return m
}
