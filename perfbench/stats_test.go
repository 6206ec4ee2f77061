package main

import (
	"math"
	"math/rand"
	"testing"
	"time"
)

func TestQuantileNearestRank(t *testing.T) {
	vals := make([]float64, 1000)
	for i := range vals {
		vals[i] = float64(i + 1) // 1..1000
	}
	for _, c := range []struct {
		q    float64
		want float64
	}{{0.5, 500}, {0.9, 900}, {0.99, 990}, {0.999, 999}, {1, 1000}, {0, 1}} {
		if got := quantile(vals, c.q); got != c.want {
			t.Errorf("quantile(1..1000, %g) = %g, want %g", c.q, got, c.want)
		}
	}
	if got := quantile([]float64{7}, 0.99); got != 7 {
		t.Errorf("single sample: got %g", got)
	}
	if !math.IsNaN(quantile(nil, 0.5)) {
		t.Error("empty sample should give NaN")
	}
	// Nearest rank never interpolates: the 0.5-quantile of {1,2} is 1.
	if got := quantile([]float64{1, 2}, 0.5); got != 1 {
		t.Errorf("quantile({1,2}, 0.5) = %g, want 1", got)
	}
}

func TestTailLevelNeedsTenBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{
		{10000, 0.999}, // 10 beyond p99.9
		{9999, 0.99},   // p99.9 ranks 9990: 9 beyond
		{1000, 0.99},   // 10 beyond p99
		{999, 0.9},     // p99 ranks 990: 9 beyond
		{100, 0.9},     // 10 beyond p90
		{99, 0.5},
		{20, 0.5},
		{19, 0},
	} {
		if got := tailLevel(c.n); got != c.want {
			t.Errorf("tailLevel(%d) = %g, want %g", c.n, got, c.want)
		}
		if q := tailLevel(c.n); q > 0 && beyond(c.n, q) < minBeyond {
			t.Errorf("tailLevel(%d) = %g leaves only %d beyond", c.n, q, beyond(c.n, q))
		}
	}
}

func TestSummarizeCountsFailuresAsMisses(t *testing.T) {
	ms := make([]float64, 1000)
	for i := range ms {
		ms[i] = 1
	}
	for i := 0; i < 20; i++ {
		ms[i] = math.Inf(1)
	}
	s := summarize(ms)
	if s.N != 1000 || s.TailQ != 0.99 || !math.IsInf(s.Tail, 1) || s.P50 != 1 || s.Beyond != 10 {
		t.Errorf("summary = %+v", s)
	}
}

func TestWindowedP99IgnoresOneBadWindow(t *testing.T) {
	lat := make([]float64, 8*minStepSamples)
	for i := range lat {
		lat[i] = 1
	}
	// One window is stalled throughout.
	for i := 0; i < minStepSamples; i++ {
		lat[i] = 100
	}
	if p99, n := windowedP99(lat, minStepSamples, 8); n != 8 || p99 != 1 {
		t.Errorf("windowedP99 = %g over %d windows, want 1 over 8", p99, n)
	}
	if p99, n := windowedP99(lat, minStepSamples, 3); n != 3 || p99 != 1 {
		t.Errorf("windowedP99 = %g over %d windows, want 1 over 3", p99, n)
	}
	if _, n := windowedP99(lat[:minStepSamples-1], minStepSamples, 8); n != 1 {
		t.Errorf("short sample should use one window, got %d", n)
	}
}

func TestBacklogGrowing(t *testing.T) {
	steady := []int{20, 25, 18, 22, 30, 19, 21, 24, 20}
	if backlogGrowing(steady, 16) {
		t.Error("steady in-flight count flagged as growing")
	}
	growing := []int{10, 40, 80, 120, 160, 200, 240, 280, 320}
	if !backlogGrowing(growing, 16) {
		t.Error("linear growth not flagged")
	}
	if backlogGrowing([]int{0, 100}, 16) {
		t.Error("two samples cannot show a trend")
	}
}

func step(rate, tailMs float64, failed int, backlog, valid bool) stepResult {
	s := stepResult{Rate: rate, Sent: 1000, Failed: failed,
		TailMs: tailMs, Supported: true, Backlog: backlog, Valid: valid}
	s.judge(10, 0.01)
	return s
}

func TestStepJudgement(t *testing.T) {
	for _, c := range []struct {
		name string
		st   stepResult
		pass bool
	}{
		{"within limit", step(1, 9.9, 0, false, true), true},
		{"tail over limit", step(1, 10.1, 0, false, true), false},
		{"1% failures allowed", step(1, 2, 10, false, true), true},
		{"too many failures", step(1, 2, 11, false, true), false},
		{"growing backlog", step(1, 2, 0, true, true), false},
		{"generator behind", step(1, 2, 0, false, false), false},
	} {
		if c.st.Pass != c.pass {
			t.Errorf("%s: pass = %v, want %v", c.name, c.st.Pass, c.pass)
		}
	}
	unsupported := step(1, 2, 0, false, true)
	unsupported.Supported = false
	unsupported.judge(10, 0.01)
	if unsupported.Pass {
		t.Error("a step without enough samples for its p99 must not pass")
	}
}

func TestBisectLadder(t *testing.T) {
	ladder := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16}
	for capacity := 0.0; capacity <= 17; capacity++ {
		var probed []float64
		got, steps := bisectLadder(ladder, func(rate float64) stepResult {
			probed = append(probed, rate)
			// Past capacity the backlog grows and the tail blows up.
			if rate > capacity {
				return step(rate, 50, 0, true, true)
			}
			return step(rate, 5, 0, false, true)
		})
		want := math.Min(capacity, 16)
		if got.Rate != want || (want > 0) != got.Pass {
			t.Errorf("capacity %g: best probe %+v, want rate %g (probed %v)", capacity, got, want, probed)
		}
		if len(steps) != len(probed) || len(steps) > 5 {
			t.Errorf("capacity %g: %d probes for 16 rates", capacity, len(steps))
		}
	}
}

var t0 = time.Unix(1000, 0)

func at(ms float64) time.Time { return t0.Add(time.Duration(ms * float64(time.Millisecond))) }

func sp(name string, lo, hi float64, children ...*span) *span {
	return &span{name: name, iv: interval{lo: at(lo), hi: at(hi)}, children: children}
}

func TestUnionLen(t *testing.T) {
	ivs := []interval{{at(0), at(2)}, {at(1), at(3)}, {at(5), at(6)}, {at(8), at(20)}}
	if got := unionLen(ivs, at(0), at(10)); got != 6*time.Millisecond {
		t.Errorf("unionLen = %v, want 6ms", got)
	}
	if got := unionLen(nil, at(0), at(10)); got != 0 {
		t.Errorf("empty union = %v", got)
	}
}

func TestSelfTimeAndUnattributed(t *testing.T) {
	// A request: admit 0–3, seal 3–4, batch 4–9 whose grant and
	// offload children cover 4–5 and 5–8 (overlapping encode children
	// inside the offload must not count twice against the batch).
	batch := sp("batch", 4, 9,
		sp("grant", 4, 5),
		sp("offload", 5, 8, sp("encode", 5, 6), sp("dispatch", 6, 7.5), sp("decode", 7.5, 8)))
	root := sp("request", 0, 9.5, sp("admit", 0, 3), sp("seal", 3, 4), batch)
	if got := batch.selfTime(); got != time.Millisecond {
		t.Errorf("batch self time = %v, want 1ms", got)
	}
	if got := root.selfTime(); got != 500*time.Microsecond {
		t.Errorf("root self time = %v, want 0.5ms", got)
	}
	// A 10.5 ms call around it leaves 0.5 ms uncovered at each end.
	call := sp("Infer", -0.5, 10, root)
	if got := unattributedShare([]*span{call}); math.Abs(got-1/10.5) > 1e-9 {
		t.Errorf("unattributed = %g, want 1/10.5", got)
	}

	// Serving estimate: the calls' time outside the roots is exact (1 ms
	// over two 10.5 ms calls here), and the leader's uncovered share of
	// its root (0.5/9.5) stands for the non-leader's root too.
	follower := sp("request", 0, 9.5, sp("admit", 0, 3))
	got := unattributedServing(21*time.Millisecond, []*span{root, follower})
	want := (2.0 + 0.5/9.5*19) / 21
	if math.Abs(got-want) > 1e-9 {
		t.Errorf("unattributedServing = %g, want %g", got, want)
	}
}

func TestPoissonScheduleIsSeededAndAtRate(t *testing.T) {
	a := poissonSchedule(rand.New(rand.NewSource(7)), 5000, 2*time.Second, 16)
	b := poissonSchedule(rand.New(rand.NewSource(7)), 5000, 2*time.Second, 16)
	if len(a) != len(b) {
		t.Fatalf("same seed, different lengths %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed differs at %d", i)
		}
	}
	if n := float64(len(a)); math.Abs(n-10000) > 400 { // 4 sigma
		t.Errorf("%g arrivals in 2 s at 5000/s", n)
	}
	for i := 1; i < len(a); i++ {
		if a[i].due < a[i-1].due || a[i].img < 0 || a[i].img >= 16 {
			t.Fatalf("arrival %d out of order or out of range: %+v", i, a[i])
		}
	}
}
