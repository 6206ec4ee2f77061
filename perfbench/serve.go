package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"math/rand"
	"strconv"
	"strings"
	"sync"
	"time"

	"darknight"
)

// coding is the operating point every workload runs: K=4 private inputs
// per virtual batch, M=1 noise vector, E=1 redundant equation, so the
// paper's integrity check is on.
func coding(seed int64) darknight.Config {
	return darknight.Config{VirtualBatch: 4, Collusion: 1, Redundancy: 1, Seed: seed}
}

// budget is the end-to-end deadline every served request carries.
const budget = 100 * time.Millisecond

// Generator validity: a step whose 90th-percentile send lateness exceeds
// this fell behind its own schedule and measures the generator, not the
// server.
const genLateLimitMs = 2.0

// minStepSamples sizes a ladder window so its p99 has well over minBeyond
// samples beyond it.
const minStepSamples = 1100

// nominalSamples is the least number of requests the nominal phase sends,
// and nominalWindow the least per window of its windowed p99: about 30
// samples lie beyond each window's p99.
const (
	nominalSamples = 20000
	nominalWindow  = 3000
)

// setupReps is how many times a run stands the deployment up; setup_s is
// the median.
const setupReps = 21

// imagePool is how many distinct inputs a serving run draws from.
const imagePool = 256

// serveSpec is one serving workload.
type serveSpec struct {
	arch    string
	nominal float64   // req/s at which p50/p99 are measured
	ladder  []float64 // ascending offered rates probing the highest sustainable one
	limitMs float64   // p99 limit a ladder step must meet
	config  func(seed int64) darknight.ServerConfig
}

// serveTiny is TEE-CPU-bound: TinyCNN, two serial workers, zero device
// latency.
var serveTiny = serveSpec{
	arch:    "tiny",
	nominal: 8000,
	ladder:  []float64{4000, 8000, 12000, 16000, 18000, 19000, 20000, 21000, 22000, 23000, 24000, 25000, 26000, 28000, 30000, 32000, 35000, 40000, 45000, 50000, 60000},
	limitMs: 10,
	config: func(seed int64) darknight.ServerConfig {
		return darknight.ServerConfig{Config: coding(seed), Workers: 2}
	},
}

// serveDeep is device-latency-bound: the fused DeepMLP on devices that
// each take 1 ms per dispatch, two workers of pipeline depth 2.
var serveDeep = serveSpec{
	arch:    "deep",
	nominal: 2000,
	ladder:  []float64{1000, 1500, 2000, 2500, 2750, 3000, 3125, 3250, 3375, 3500, 3625, 3750, 4000, 4500, 5000},
	limitMs: 25,
	config: func(seed int64) darknight.ServerConfig {
		c := coding(seed)
		c.SlowDelay = time.Millisecond
		return darknight.ServerConfig{Config: c, Workers: 2, PipelineDepth: 2, Fuse: true, SlowAll: true}
	},
}

func (sp serveSpec) newServer(seed int64, ob darknight.ObservabilityConfig) (*darknight.Server, error) {
	if _, err := darknight.BuildModel(sp.arch, seed); err != nil {
		return nil, err
	}
	cfg := sp.config(seed)
	cfg.Arch = sp.arch
	cfg.Observability = ob
	cfg.Resilience.Budget = budget
	return darknight.NewServer(func() *darknight.Model {
		m, _ := darknight.BuildModel(sp.arch, seed) // arch checked above
		return m
	}, cfg)
}

// serveInputs draws the run's image pool from the seed and labels each
// image with the float forward pass's class under the served weights.
func serveInputs(arch string, seed int64) (images [][]float64, floatClass []int, err error) {
	data := darknight.SyntheticDataset(imagePool, 4, 1, 8, 8, seed)
	images = make([][]float64, len(data))
	for i, ex := range data {
		images[i] = ex.Image
	}
	floatClass, err = floatClasses(arch, seed, images)
	return images, floatClass, err
}

// floatClasses returns the argmax of the plain float forward pass for each
// image, through System.Evaluate: an image's class is the label under
// which it scores 1.
func floatClasses(arch string, seed int64, images [][]float64) ([]int, error) {
	m, err := darknight.BuildModel(arch, seed)
	if err != nil {
		return nil, err
	}
	sys, err := darknight.NewSystem(m, coding(seed))
	if err != nil {
		return nil, err
	}
	defer sys.Close()
	out := make([]int, len(images))
	for i, img := range images {
		out[i] = -1
		for c := 0; c < 4 && out[i] < 0; c++ {
			if sys.Evaluate([]darknight.Example{{Image: img, Label: c}}) == 1 {
				out[i] = c
			}
		}
		if out[i] < 0 {
			return nil, fmt.Errorf("image %d has no float class", i)
		}
	}
	return out, nil
}

// standUp builds a server and answers its first virtual batch, returning
// the time both took.
func (sp serveSpec) standUp(seed int64, images [][]float64) (*darknight.Server, time.Duration, error) {
	t0 := time.Now()
	srv, err := sp.newServer(seed, darknight.ObservabilityConfig{})
	if err != nil {
		return nil, 0, err
	}
	k := sp.config(seed).VirtualBatch
	errs := make([]error, k)
	var wg sync.WaitGroup
	for i := 0; i < k; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, errs[i] = srv.Infer(context.Background(), images[i])
		}()
	}
	wg.Wait()
	d := time.Since(t0)
	for _, err := range errs {
		if err != nil {
			srv.Close()
			return nil, 0, fmt.Errorf("first batch: %w", err)
		}
	}
	return srv, d, nil
}

func runServe(r *run, sp serveSpec) error {
	rng := rand.New(rand.NewSource(r.seed))
	images, floatClass, err := serveInputs(sp.arch, r.seed)
	if err != nil {
		return err
	}
	infer := func(srv *darknight.Server) func(context.Context, int) (int, error) {
		return func(ctx context.Context, img int) (int, error) { return srv.Infer(ctx, images[img]) }
	}
	phaseOf := func(srv *darknight.Server, name string, rate float64, d time.Duration) *phase {
		return runPhase(name, rate, d, poissonSchedule(rng, rate, d, len(images)), infer(srv))
	}
	if r.trace {
		return runServeTraced(r, sp, images, floatClass, phaseOf)
	}

	mon := startMemMonitor()
	var setups []float64
	var srv *darknight.Server
	for i := 0; i < setupReps; i++ {
		s, d, err := sp.standUp(r.seed, images)
		if err != nil {
			return err
		}
		if srv != nil {
			srv.Close()
		}
		srv = s
		setups = append(setups, d.Seconds())
	}
	defer srv.Close()

	warm := phaseOf(srv, "warmup", sp.nominal, r.secs(0.05))
	nomDur := r.secs(0.3)
	if need := time.Duration(nominalSamples / sp.nominal * float64(time.Second)); need > nomDur {
		nomDur = need
	}
	nom := phaseOf(srv, "nominal", sp.nominal, nomDur)
	phases := []*phase{warm, nom}
	r.printf("open-loop Poisson phases (latency timed from due time; failed requests count as misses):\n")
	r.printPhase(warm, nil)
	r.printPhase(nom, nil)

	mem := mon.stop()

	// Each ladder probe runs stepWindows windows of at least minStepSamples
	// requests; its p99 is the median of theirs, so a stall of the host
	// spoils one window rather than the probe. A probe that fails runs once
	// more and passes if either run passes: host stalls only ever add
	// latency, so one clean run shows the server kept up.
	k := sp.config(r.seed).VirtualBatch
	best, steps := bisectLadder(sp.ladder, func(rate float64) stepResult {
		w := r.secs(0.03)
		if need := time.Duration(minStepSamples / rate * float64(time.Second)); need > w {
			w = need
		}
		var st stepResult
		for try := 0; try < 2 && !st.Pass; try++ {
			ph := phaseOf(srv, fmt.Sprintf("ladder@%g", rate), rate, stepWindows*w)
			phases = append(phases, ph)
			st = judgeStep(ph, sp.limitMs, k)
			r.printPhase(ph, &st)
		}
		return st
	})

	m := srv.Metrics()
	r.serveChecks(phases, m.Integrity)
	agree, answered := classAgreement(phases, floatClass)

	ok, _, _, _, _ := nom.counts()
	lat := nom.latencies()
	p99, nw := windowedP99(lat, nominalWindow, 8)
	sum := summarize(lat) // sorts lat: windows first
	r.printf("end-to-end (%s, nominal %g req/s, p99 limit %g ms):\n", r.workload, sp.nominal, sp.limitMs)
	r.set("p50_ms", sum.P50, fmt.Sprintf("nominal phase, n=%d", sum.N))
	r.set("p99_ms", p99, fmt.Sprintf("median over %d windows; pooled p99=%.4g ms; pooled p%g=%.4g ms with %d beyond", nw, quantile(lat, 0.99), 100*sum.TailQ, sum.Tail, sum.Beyond))
	r.set("rate_per_s", best.Achieved, fmt.Sprintf("max_rate_rps: answered/s at %g req/s, the highest passing rate of %d, bisected in %d probes",
		best.Rate, len(sp.ladder), len(steps)))
	r.set("ok_share", ratio(float64(ok), float64(len(nom.results))), fmt.Sprintf("1 - fail_share, nominal phase, %d/%d", ok, len(nom.results)))
	r.set("class_agree", ratio(float64(agree), float64(answered)), fmt.Sprintf("%d/%d answers equal the float argmax", agree, answered))
	r.set("mem_peak_mb", mem, fmt.Sprintf("peak live heap + stacks through the nominal phase, %d samples", mon.samples))
	r.set("setup_s", median(setups), fmt.Sprintf("median of %d stand-ups: server + first batch", len(setups)))
	r.printf("  %-28s %14s %-6s (train-deep only)\n", "vb_per_s", "n/a", "1/s")
	r.printf("  %-28s %14s %-6s (train-deep only)\n", "final_loss", "n/a", "nats")

	for _, ph := range []*phase{warm, nom} {
		r.res.Attempted += len(ph.results)
		o, _, _, _, _ := ph.counts()
		r.res.Failed += len(ph.results) - o
	}
	return nil
}

// stepWindows is how many windows a ladder probe is split into.
const stepWindows = 5

// judgeStep evaluates one ladder probe.
func judgeStep(p *phase, limitMs float64, k int) stepResult {
	ok, _, _, _, _ := p.counts()
	st := stepResult{Rate: p.rate, Achieved: float64(ok) / p.dur.Seconds(), Sent: len(p.results), Failed: len(p.results) - ok}
	lat := p.latencies()
	st.TailMs, _ = windowedP99(lat, minStepSamples, stepWindows)
	st.Supported = beyond(len(lat)/stepWindows, 0.99) >= minBeyond
	st.LateP90Ms, _ = percentileAt(p.lateness(), 0.9)
	st.Valid = st.LateP90Ms <= genLateLimitMs
	st.Backlog = backlogGrowing(p.inflight, float64(4*k))
	st.judge(limitMs, 0.01)
	return st
}

func (r *run) printPhase(p *phase, st *stepResult) {
	ok, shedN, expN, integ, other := p.counts()
	s := summarize(p.latencies())
	lateP50, _ := percentileAt(p.lateness(), 0.5)
	lateP90, _ := percentileAt(p.lateness(), 0.9)
	r.printf("  phase %-14s rate=%-6g dur=%-6s sent=%d ok=%d failed=%d (shed=%d deadline=%d integrity=%d other=%d) p50=%.4gms p%g=%.4gms beyond=%d late_p50=%.3gms late_p90=%.3gms",
		p.name, p.rate, p.dur.Round(time.Millisecond), len(p.results), ok, len(p.results)-ok,
		shedN, expN, integ, other, s.P50, 100*s.TailQ, s.Tail, s.Beyond, lateP50, lateP90)
	if st != nil {
		verdict := "pass"
		switch {
		case !st.Valid:
			verdict = "INVALID (generator fell behind)"
		case !st.Pass:
			verdict = "fail"
		}
		r.printf(" windowed_p99=%.4gms backlog_growing=%v %s", st.TailMs, st.Backlog, verdict)
	}
	r.printf("\n")
}

// serveChecks fails the run unless every request was answered or failed
// with a typed shed/deadline error, and no integrity check fired.
func (r *run) serveChecks(phases []*phase, integrityCounter int64) {
	var untypedN, integ, bad, total int
	for _, p := range phases {
		_, _, _, i, u := p.counts()
		untypedN += u
		integ += i
		for _, res := range p.results {
			total++
			if res.out == okAnswer && (res.class < 0 || res.class >= 4) {
				bad++
			}
		}
	}
	r.check("integrity failures = 0", integ == 0 && integrityCounter == 0,
		fmt.Sprintf("(%d rejected requests, server counter %d)", integ, integrityCounter))
	r.check("every request answered or typed shed/deadline", untypedN == 0 && bad == 0,
		fmt.Sprintf("(%d requests, %d untyped errors, %d out-of-range answers)", total, untypedN, bad))
}

// classAgreement counts answered requests whose class equals the float
// forward pass's argmax.
func classAgreement(phases []*phase, floatClass []int) (agree, answered int) {
	for _, p := range phases {
		for _, res := range p.results {
			if res.out == okAnswer {
				answered++
				if res.class == floatClass[res.img] {
					agree++
				}
			}
		}
	}
	return agree, answered
}

// serveCounters is a point-in-time read of a server's accessors.
type serveCounters struct {
	m                      darknight.ServerMetrics
	jobs, bytes            int64
	sealedBytes, sealOps   int64
	flightSum, flightCount float64
}

func readServe(srv *darknight.Server) (serveCounters, error) {
	c := serveCounters{m: srv.Metrics()}
	t := srv.GPUTraffic()
	c.jobs, c.bytes = t.Jobs, t.BytesIn+t.BytesOut
	e := srv.EnclaveStats()
	c.sealedBytes, c.sealOps = e.SealedBytes, e.SealOps
	var err error
	c.flightSum, c.flightCount, err = histSumCount(srv.WriteMetrics, flightHist)
	return c, err
}

// flightHist is the fleet's per-grant mean device flight latency histogram.
const flightHist = "darknight_fleet_flight_latency_seconds"

// histSumCount reads a histogram family's _sum and _count, summed across
// labels.
func histSumCount(write func(io.Writer) error, family string) (sum, count float64, err error) {
	if sum, err = counterSum(write, family+"_sum"); err != nil {
		return 0, 0, err
	}
	count, err = counterSum(write, family+"_count")
	return sum, count, err
}

// convert copies a program trace into the benchmark's span view.
func convert(ts *darknight.TraceSpan) *span {
	s := &span{name: ts.Name(), iv: interval{lo: ts.Start(), hi: ts.Start().Add(ts.Duration())}}
	for _, c := range ts.Children() {
		s.children = append(s.children, convert(c))
	}
	return s
}

// runServeTraced is the per-layer run: an untraced and a fully traced
// server take turns at the nominal rate; the traced one's span trees and
// counter deltas give the layer metrics, and the p50 difference between
// the two is the tracing overhead.
func runServeTraced(r *run, sp serveSpec, images [][]float64, floatClass []int,
	phaseOf func(*darknight.Server, string, float64, time.Duration) *phase) error {
	plain, err := sp.newServer(r.seed, darknight.ObservabilityConfig{})
	if err != nil {
		return err
	}
	defer plain.Close()
	keep := int(sp.nominal*r.secs(0.35).Seconds()*1.3) + 1000
	traced, err := sp.newServer(r.seed, darknight.ObservabilityConfig{TraceSample: 1, TraceKeep: keep})
	if err != nil {
		return err
	}
	defer traced.Close()
	phases := []*phase{phaseOf(plain, "warmup-plain", sp.nominal, r.secs(0.05)),
		phaseOf(traced, "warmup-traced", sp.nominal, r.secs(0.05))}

	before, err := readServe(traced)
	if err != nil {
		return err
	}
	var plainPh, tracedPh []*phase
	for round := 0; round < 2; round++ {
		plainPh = append(plainPh, phaseOf(plain, fmt.Sprintf("plain-%d", round), sp.nominal, r.secs(0.15)))
		tracedPh = append(tracedPh, phaseOf(traced, fmt.Sprintf("traced-%d", round), sp.nominal, r.secs(0.15)))
	}
	after, err := readServe(traced)
	if err != nil {
		return err
	}
	phases = append(append(phases, plainPh...), tracedPh...)
	r.printf("open-loop Poisson phases at the nominal rate, untraced and traced servers alternating:\n")
	for _, p := range phases {
		r.printPhase(p, nil)
	}
	r.serveChecks(phases, after.m.Integrity+plain.Metrics().Integrity)

	// Span trees of the traced phases. Every traced request carries a
	// "request" root with an "admit" child; the first rider of each batch
	// (its leader) also carries "seal" and the "batch" subtree.
	from := tracedPh[0].origin
	var roots []*span
	for _, ts := range traced.RecentTraces() {
		if ts.Name() == "request" && !ts.Start().Before(from) {
			roots = append(roots, convert(ts))
		}
	}
	var callWall time.Duration
	sent, shedTotal := 0, 0
	for _, p := range tracedPh {
		sent += len(p.results)
		_, shedN, _, _, _ := p.counts()
		shedTotal += shedN
		for _, res := range p.results {
			callWall += res.end - res.start
		}
	}
	// A shed request is refused before its root opens; every other call
	// must have left exactly one trace, or the layer shares are skewed.
	r.check("every traced request left one trace", len(roots) == sent-shedTotal,
		fmt.Sprintf("(%d traces for %d calls, %d shed, keep %d)", len(roots), sent, shedTotal, keep))
	var admit, seal, grant, batchSelf []float64
	var encode, dispatch, decode, batchDur, grantDur, selfDur time.Duration
	for _, root := range roots {
		if a := root.find("admit"); a != nil {
			admit = append(admit, ms(a.dur()))
		}
		b := root.find("batch")
		if b == nil {
			continue
		}
		if s := root.find("seal"); s != nil {
			seal = append(seal, ms(s.dur()))
		}
		batchDur += b.dur()
		selfDur += b.selfTime()
		batchSelf = append(batchSelf, ms(b.selfTime()))
		b.walk(func(s *span) {
			switch s.name {
			case "grant":
				grant = append(grant, ms(s.dur()))
				grantDur += s.dur()
			case "encode":
				encode += s.dur()
			case "dispatch":
				dispatch += s.dur()
			case "decode":
				decode += s.dur()
			}
		})
	}
	k := sp.config(r.seed).VirtualBatch
	d := after.m
	ph := d.Phases.Sub(before.m.Phases)
	batches := float64(d.Batches - before.m.Batches)
	realRows := float64(d.RealRows - before.m.RealRows)
	hits := float64(d.NoisePool.Hits - before.m.NoisePool.Hits)
	misses := float64(d.NoisePool.Misses - before.m.NoisePool.Misses)
	fs := traced.FleetStats()
	plainLat, tracedLat := latencies(plainPh), latencies(tracedPh)
	plainP50, tracedP50 := median(plainLat), median(tracedLat)

	r.printf("per-layer (%s, traced phases: %d requests, %d traces, %d batch trees; byte counts come from tensor sizes, not real transfers):\n",
		r.workload, sent, len(roots), len(batchSelf))
	r.set("serve.batch_wait_ms", mean(admit), fmt.Sprintf("mean admit span, n=%d", len(admit)))
	r.set("serve.worker_wait_ms", mean(seal), fmt.Sprintf("mean seal span, n=%d", len(seal)))
	r.set("serve.occupancy", ratio(realRows, batches*float64(k)), fmt.Sprintf("real rows/(batches*K), %g batches", batches))
	r.set("fleet.grant_wait_ms", mean(grant), fmt.Sprintf("mean grant span, n=%d", len(grant)))
	r.set("fleet.flight_ms", 1000*ratio(after.flightSum-before.flightSum, after.flightCount-before.flightCount),
		fmt.Sprintf("darknight_fleet_flight_latency_seconds mean, n=%g", after.flightCount-before.flightCount))
	r.set("fleet.peak_overlap", float64(fs.PeakOverlap), "largest overlapping dispatches on one gang, lifetime")
	r.setPhases(ph)
	r.set("sched.tee_other_ms", mean(batchSelf), fmt.Sprintf("mean batch span minus grant/offload children, n=%d", len(batchSelf)))
	r.set("masking.noisepool_hit_share", ratio(hits, hits+misses), fmt.Sprintf("%g hits, %g misses (0 = no pool: serial engine)", hits, misses))
	r.set("masking.integrity_failures", float64(d.Integrity-before.m.Integrity), "counter delta")
	r.set("gpu.jobs_per_req", ratio(float64(after.jobs-before.jobs), float64(sent)), fmt.Sprintf("%d jobs", after.jobs-before.jobs))
	r.set("gpu.bytes_per_req", ratio(float64(after.bytes-before.bytes), float64(sent)), "in+out bytes from tensor sizes")
	for _, name := range []string{"train.step_ms", "train.encode_ms", "train.dispatch_ms", "train.decode_ms",
		"train.tee_other_ms", "train.cache_refills", "train.final_loss"} {
		r.set(name, 0, "not exercised by serving")
	}
	r.set("enclave.sealed_bytes_per_vb", ratio(float64(after.sealedBytes-before.sealedBytes), batches), "per dispatched batch")
	r.set("enclave.seal_ops_per_vb", ratio(float64(after.sealOps-before.sealOps), batches), "per dispatched batch")
	r.set("enclave.peak_bytes", float64(traced.EnclaveStats().PeakUsage), "high-water mark, lifetime")
	r.set("resil.deadline_expired", float64(d.Resil.Deadline-before.m.Resil.Deadline), "counter delta")
	r.set("resil.shed", float64(d.Resil.Shed-before.m.Resil.Shed), "counter delta")
	r.set("resil.retries", float64(d.Resil.Retries-before.m.Resil.Retries), "counter delta")
	r.set("unattributed_share", unattributedServing(callWall, roots),
		fmt.Sprintf("outside request roots + leaders' uncovered share, %d calls", sent))
	r.set("obs.trace_overhead_share", tracedP50/plainP50-1,
		fmt.Sprintf("traced p50 %.4g ms (n=%d) vs untraced %.4g ms (n=%d)", tracedP50, len(tracedLat), plainP50, len(plainLat)))
	r.printf("  counts: batches=%g offloads=%d flights=%d admit_spans=%d batch_trees=%d\n",
		batches, ph.Offloads, ph.Flights, len(admit), len(batchSelf))

	if err := r.paperServe(sp.arch, batchDur, encode+decode, dispatch, selfDur, grantDur); err != nil {
		return err
	}
	for _, p := range tracedPh {
		r.res.Attempted += len(p.results)
		o, _, _, _, _ := p.counts()
		r.res.Failed += len(p.results) - o
	}
	agree, answered := classAgreement(phases, floatClass)
	r.printf("  class agreement over all traced-run answers: %d/%d\n", agree, answered)
	return nil
}

// setPhases records the per-offload encode/decode/dispatch means, offloads
// per flight and the overlap ratio from a phase-counter delta.
func (r *run) setPhases(ph darknight.TrainPhaseStats) {
	n := float64(ph.Offloads)
	r.set("sched.encode_ms", ratio(ms(ph.Encode), n), fmt.Sprintf("per offload, %d offloads", ph.Offloads))
	r.set("sched.decode_ms", ratio(ms(ph.Decode), n), fmt.Sprintf("per offload, %d offloads", ph.Offloads))
	r.set("sched.dispatch_ms", ratio(ms(ph.Dispatch), n), fmt.Sprintf("per offload, %d offloads", ph.Offloads))
	r.set("sched.offloads_per_flight", ratio(n, float64(ph.Flights)), fmt.Sprintf("%d flights", ph.Flights))
	r.set("sched.overlap", ph.Overlap(), fmt.Sprintf("(encode+dispatch+decode)/busy wall, wall %s", ph.Wall.Round(time.Millisecond)))
}

func latencies(ps []*phase) []float64 {
	var out []float64
	for _, p := range ps {
		out = append(out, p.latencies()...)
	}
	return out
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t / float64(len(xs))
}

// counterSum sums a counter family's series across labels from the
// Prometheus text exposition.
func counterSum(write func(io.Writer) error, family string) (float64, error) {
	var b bytes.Buffer
	if err := write(&b); err != nil {
		return 0, err
	}
	total := 0.0
	for _, line := range strings.Split(b.String(), "\n") {
		if !strings.HasPrefix(line, family+" ") && !strings.HasPrefix(line, family+"{") {
			continue
		}
		f := strings.Fields(line)
		v, err := strconv.ParseFloat(f[len(f)-1], 64)
		if err != nil {
			return 0, fmt.Errorf("parsing %q: %w", line, err)
		}
		total += v
	}
	return total, nil
}
