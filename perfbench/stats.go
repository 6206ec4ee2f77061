package main

import (
	"math"
	"sort"
	"time"
)

// minBeyond is how many samples must lie above a reported percentile: a
// tail figure resting on fewer is noise, so a smaller sample reports a
// lower percentile instead.
const minBeyond = 10

// tailLevels are the candidate tail percentiles, highest first.
var tailLevels = []float64{0.999, 0.99, 0.9, 0.5}

// rank returns the 1-based nearest rank of the q-quantile among n samples:
// ceil(q·n), clamped to [1, n]. The epsilon absorbs binary rounding of q·n
// (0.99·1000 must rank 990, not 991).
func rank(n int, q float64) int {
	r := int(math.Ceil(q*float64(n) - 1e-9))
	if r < 1 {
		r = 1
	}
	if r > n {
		r = n
	}
	return r
}

// quantile returns the nearest-rank q-quantile of ascending-sorted values
// (NaN when empty).
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	return sorted[rank(len(sorted), q)-1]
}

// beyond counts the samples ranked strictly above the q-quantile.
func beyond(n int, q float64) int {
	if n == 0 {
		return 0
	}
	return n - rank(n, q)
}

// tailLevel returns the highest of tailLevels with at least minBeyond
// samples beyond it among n, or 0 when even the median has too few.
func tailLevel(n int) float64 {
	for _, q := range tailLevels {
		if beyond(n, q) >= minBeyond {
			return q
		}
	}
	return 0
}

// median returns the nearest-rank median of values (NaN when empty); the
// input is not modified.
func median(values []float64) float64 {
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	return quantile(s, 0.5)
}

// latSummary describes one latency sample: its median and the highest
// percentile the sample supports, with the counts behind them.
type latSummary struct {
	N      int     // samples (failed requests count, as +Inf)
	P50    float64 // ms
	TailQ  float64 // the percentile Tail reports; 0 when unsupported
	Tail   float64 // ms at TailQ
	Beyond int     // samples above Tail
}

// summarize sorts latencies (ms, +Inf for a failed request) in place and
// summarizes them.
func summarize(ms []float64) latSummary {
	sort.Float64s(ms)
	s := latSummary{N: len(ms), P50: quantile(ms, 0.5)}
	if q := tailLevel(len(ms)); q > 0 {
		s.TailQ, s.Tail, s.Beyond = q, quantile(ms, q), beyond(len(ms), q)
	}
	return s
}

// percentileAt returns the q-quantile of ms (sorted in place) and whether
// the sample supports it, i.e. has at least minBeyond values beyond it.
func percentileAt(ms []float64, q float64) (float64, bool) {
	sort.Float64s(ms)
	if len(ms) == 0 {
		return math.NaN(), false
	}
	return quantile(ms, q), beyond(len(ms), q) >= minBeyond
}

// backlogGrowing reports whether the in-flight request count sampled at a
// fixed interval across a load step kept rising: the mean of its last third
// exceeds twice the mean of its first third plus slack. An open-loop step
// the system cannot keep up with accumulates requests linearly; one it
// keeps up with hovers around rate × latency.
func backlogGrowing(inflight []int, slack float64) bool {
	n := len(inflight) / 3
	if n == 0 {
		return false
	}
	mean := func(xs []int) float64 {
		t := 0
		for _, x := range xs {
			t += x
		}
		return float64(t) / float64(len(xs))
	}
	return mean(inflight[len(inflight)-n:]) > 2*mean(inflight[:n])+slack
}

// stepResult is one probe of the offered-load ladder.
type stepResult struct {
	Rate      float64 // offered requests/s
	Achieved  float64 // answered requests/s over the probe
	Sent      int
	Failed    int
	TailMs    float64 // p99 from due time (median over the step's windows), failed requests counting as misses
	Supported bool    // every window had at least minBeyond samples beyond its p99
	LateP90Ms float64 // generator lateness: send time minus due time
	Backlog   bool    // in-flight count kept growing
	Valid     bool    // the generator kept to its schedule
	Pass      bool
}

// judge fills in Pass: a valid step meets the limit when its p99 is within
// limitMs, at most maxFail of its requests failed, and its backlog did not
// grow.
func (s *stepResult) judge(limitMs, maxFail float64) {
	failShare := 1.0
	if s.Sent > 0 {
		failShare = float64(s.Failed) / float64(s.Sent)
	}
	s.Pass = s.Valid && s.Supported && s.TailMs <= limitMs && failShare <= maxFail && !s.Backlog
}

// bisectLadder finds the highest rate of the ascending ladder that passes,
// assuming a rate passes when every lower one does: it probes the middle
// of the unresolved range, so a ladder of n rates costs about log2(n)+1
// probes instead of n. It returns the passing probe at that rate (the zero
// stepResult when the lowest rate fails) and every probe in the order run.
func bisectLadder(ladder []float64, probe func(rate float64) stepResult) (stepResult, []stepResult) {
	var steps []stepResult
	var best stepResult
	lo, hi := -1, len(ladder) // ladder[lo] passed, ladder[hi] failed
	for hi-lo > 1 {
		mid := (lo + hi + 1) / 2
		st := probe(ladder[mid])
		steps = append(steps, st)
		if st.Pass {
			lo, best = mid, st
		} else {
			hi = mid
		}
	}
	return best, steps
}

// interval is a closed time range.
type interval struct{ lo, hi time.Time }

// unionLen returns the total length of the union of ivs clipped to [lo, hi].
func unionLen(ivs []interval, lo, hi time.Time) time.Duration {
	clipped := make([]interval, 0, len(ivs))
	for _, iv := range ivs {
		if iv.lo.Before(lo) {
			iv.lo = lo
		}
		if iv.hi.After(hi) {
			iv.hi = hi
		}
		if iv.hi.After(iv.lo) {
			clipped = append(clipped, iv)
		}
	}
	sort.Slice(clipped, func(i, j int) bool { return clipped[i].lo.Before(clipped[j].lo) })
	var total time.Duration
	var cur interval
	for i, iv := range clipped {
		switch {
		case i == 0:
			cur = iv
		case !iv.lo.After(cur.hi):
			if iv.hi.After(cur.hi) {
				cur.hi = iv.hi
			}
		default:
			total += cur.hi.Sub(cur.lo)
			cur = iv
		}
	}
	if len(clipped) > 0 {
		total += cur.hi.Sub(cur.lo)
	}
	return total
}

// span is the benchmark's own view of a trace span: a name, an interval
// and children. Program traces are converted into it, and the benchmark
// wraps its own calls in it, so the analysis below runs on synthetic trees
// in tests.
type span struct {
	name     string
	iv       interval
	children []*span
}

func (s *span) dur() time.Duration { return s.iv.hi.Sub(s.iv.lo) }

// selfTime is the span's duration minus the part of its interval its
// children cover (overlapping children are counted once).
func (s *span) selfTime() time.Duration {
	ivs := make([]interval, len(s.children))
	for i, c := range s.children {
		ivs[i] = c.iv
	}
	return s.dur() - unionLen(ivs, s.iv.lo, s.iv.hi)
}

// walk visits s and its descendants depth-first.
func (s *span) walk(fn func(*span)) {
	fn(s)
	for _, c := range s.children {
		c.walk(fn)
	}
}

// find returns the first direct child named name, or nil.
func (s *span) find(name string) *span {
	for _, c := range s.children {
		if c.name == name {
			return c
		}
	}
	return nil
}

// unattributedShare returns the share of the roots' total wall time that
// their children leave uncovered — the time no program span accounts for
// when the roots are the benchmark's own spans around its calls.
func unattributedShare(roots []*span) float64 {
	var wall, self time.Duration
	for _, r := range roots {
		wall += r.dur()
		self += r.selfTime()
	}
	if wall <= 0 {
		return 0
	}
	return float64(self) / float64(wall)
}

// windowedP99 splits latencies, in arrival order, into up to maxWindows
// consecutive windows of at least minPer samples and returns the median of
// the windows' p99s with the window count: a stall that spoils one window
// moves it less than it moves a pooled p99. Fewer than minPer samples make
// one window.
func windowedP99(lat []float64, minPer, maxWindows int) (float64, int) {
	n := len(lat) / minPer
	if n > maxWindows {
		n = maxWindows
	}
	if n < 1 {
		n = 1
	}
	p99s := make([]float64, 0, n)
	for w := 0; w < n; w++ {
		chunk := append([]float64(nil), lat[w*len(lat)/n:(w+1)*len(lat)/n]...)
		v, _ := percentileAt(chunk, 0.99)
		p99s = append(p99s, v)
	}
	return median(p99s), n
}

// unattributedServing estimates the share of the benchmark's Infer call
// time that no program span covers. The part outside the request roots is
// exact, since every traced call makes one root. Inside a root only the
// batch leader carries the seal and batch subtree, so the leaders'
// uncovered share of their roots stands for every root's.
func unattributedServing(callWall time.Duration, roots []*span) float64 {
	var rootDur, leaderDur, leaderSelf time.Duration
	for _, r := range roots {
		rootDur += r.dur()
		if r.find("batch") != nil {
			leaderDur += r.dur()
			leaderSelf += r.selfTime()
		}
	}
	if callWall <= 0 {
		return 0
	}
	inner := 0.0
	if leaderDur > 0 {
		inner = float64(leaderSelf) / float64(leaderDur) * float64(rootDur)
	}
	return (float64(callWall-rootDur) + inner) / float64(callWall)
}
