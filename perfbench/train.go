package main

import (
	"fmt"
	"time"

	"darknight"
)

// Training shape: fixed 32-example large batches (8 virtual batches of
// K=4); final_loss and the bit-identity check are taken after trainSteps
// of them, from the initial weights. mem_peak_mb covers set-up and the
// first memSteps steps: a fixed amount of work, so memory that grows with
// every step shows at the same size however fast the host runs.
const (
	largeBatch = 32
	trainSteps = 64
	memSteps   = 1024
	evalImages = 64
)

// trainConfig is the measured deployment: pipelined depth 2 over a
// managed fleet, zero device latency.
func trainConfig(seed int64) darknight.Config {
	c := coding(seed)
	c.TrainPipelineDepth = 2
	c.ManagedFleet = true
	return c
}

// trainer is one training deployment under measurement.
type trainer struct {
	model *darknight.Model
	sys   *darknight.System
	step  int
	// steps holds the benchmark's own span around each TrainBatch call.
	steps     []interval
	failed    int
	integrity int
	untyped   int
	// finalLoss and finalWeights are taken after trainSteps steps.
	finalLoss    float64
	finalWeights []float64
}

func newTrainer(seed int64, cfg darknight.Config) (*trainer, error) {
	m, err := darknight.BuildModel("deep", seed)
	if err != nil {
		return nil, err
	}
	sys, err := darknight.NewSystem(m, cfg)
	if err != nil {
		return nil, err
	}
	return &trainer{model: m, sys: sys}, nil
}

// trainFor runs steps until d has passed, cycling through the data's large
// batches.
func (t *trainer) trainFor(data []darknight.Example, d time.Duration) {
	end := time.Now().Add(d)
	for time.Now().Before(end) {
		t.trainStep(data)
	}
}

func (t *trainer) trainStep(data []darknight.Example) {
	i := t.step % trainSteps
	t0 := time.Now()
	loss, err := t.sys.TrainBatch(data[i*largeBatch : (i+1)*largeBatch])
	t.steps = append(t.steps, interval{lo: t0, hi: time.Now()})
	t.step++
	switch {
	case err == nil:
	case darknight.IsIntegrityError(err):
		t.failed++
		t.integrity++
	default:
		t.failed++
		t.untyped++
	}
	if t.step == trainSteps {
		t.finalLoss = loss
		t.finalWeights = t.model.Weights()
	}
}

func (t *trainer) stepMs() []float64 {
	out := make([]float64, len(t.steps))
	for i, iv := range t.steps {
		out[i] = ms(iv.hi.Sub(iv.lo))
	}
	return out
}

func runTrain(r *run) error {
	data := darknight.SyntheticDataset(largeBatch*trainSteps+evalImages, 4, 1, 8, 8, r.seed)
	eval := data[largeBatch*trainSteps:]
	data = data[:largeBatch*trainSteps]
	if r.trace {
		return runTrainTraced(r, data)
	}

	mon := startMemMonitor()
	var setups []float64
	for i := 0; i < setupReps; i++ {
		t0 := time.Now()
		t, err := newTrainer(r.seed, trainConfig(r.seed))
		if err != nil {
			return err
		}
		setups = append(setups, time.Since(t0).Seconds())
		t.sys.Close()
	}
	t, err := newTrainer(r.seed, trainConfig(r.seed))
	if err != nil {
		return err
	}
	defer t.sys.Close()
	start := time.Now()
	var mem float64
	for t.step < memSteps || time.Since(start) < r.secs(1) {
		t.trainStep(data)
		if t.step == memSteps {
			mem = mon.stop()
		}
	}
	elapsed := time.Since(start)
	vbs := t.step * largeBatch / 4
	r.printf("training: %d steps of %d examples (%d virtual batches) in %s, %d failed\n",
		t.step, largeBatch, vbs, elapsed.Round(time.Millisecond), t.failed)

	if err := r.trainChecks(t, data); err != nil {
		return err
	}
	agree, n, err := predictAgreement(t, eval)
	if err != nil {
		return err
	}

	lat := t.stepMs()
	p99, nw := windowedP99(lat, minStepSamples, 8)
	sum := summarize(lat) // sorts lat: windows first
	ok := t.step - t.failed
	r.printf("end-to-end (%s, TrainBatch of %d examples back to back):\n", r.workload, largeBatch)
	r.set("p50_ms", sum.P50, fmt.Sprintf("TrainBatch latency, n=%d", sum.N))
	r.set("p99_ms", p99, fmt.Sprintf("median over %d windows; pooled p99=%.4g ms; pooled p%g=%.4g ms with %d beyond", nw, quantile(lat, 0.99), 100*sum.TailQ, sum.Tail, sum.Beyond))
	r.set("rate_per_s", float64(vbs)/elapsed.Seconds(), fmt.Sprintf("vb_per_s: %d virtual batches", vbs))
	r.set("ok_share", ratio(float64(ok), float64(t.step)), fmt.Sprintf("1 - fail_share, %d/%d steps", ok, t.step))
	r.set("class_agree", ratio(float64(agree), float64(n)), fmt.Sprintf("%d/%d masked Predict answers equal the float argmax", agree, n))
	r.set("mem_peak_mb", mem, fmt.Sprintf("peak live heap + stacks through set-up and the first %d steps, %d samples", memSteps, mon.samples))
	r.set("setup_s", median(setups), fmt.Sprintf("median of %d stand-ups: model + NewSystem", len(setups)))
	r.printf("  %-28s %14.10g %-6s (after %d steps, deterministic per seed)\n", "final_loss", t.finalLoss, "nats", trainSteps)
	r.printf("  %-28s %14s %-6s (serving only)\n", "max_rate_rps", "n/a", "1/s")
	r.res.Attempted, r.res.Failed = t.step, t.failed
	return nil
}

// trainChecks fails the run on any integrity or untyped training error and
// unless the measured deployment's weights and loss after trainSteps are
// bit-identical to a serial, depth-1, raw-cluster System trained on the
// same batches. The reference runs after the timed window.
func (r *run) trainChecks(t *trainer, data []darknight.Example) error {
	r.check("integrity failures = 0", t.integrity == 0, fmt.Sprintf("(%d steps)", t.step))
	r.check("every step succeeded or failed typed", t.untyped == 0, fmt.Sprintf("(%d untyped errors)", t.untyped))
	ref, err := newTrainer(r.seed, coding(r.seed))
	if err != nil {
		return err
	}
	defer ref.sys.Close()
	for ref.step < trainSteps {
		ref.trainStep(data)
	}
	same := len(ref.finalWeights) == len(t.finalWeights) && len(ref.finalWeights) > 0 &&
		ref.failed == 0 && ref.finalLoss == t.finalLoss
	for i := 0; same && i < len(ref.finalWeights); i++ {
		same = ref.finalWeights[i] == t.finalWeights[i]
	}
	r.check(fmt.Sprintf("weights after %d steps = serial reference", trainSteps), same,
		fmt.Sprintf("(%d weights, loss %.10g vs %.10g)", len(t.finalWeights), t.finalLoss, ref.finalLoss))
	return nil
}

// predictAgreement classifies the held-out images through the masked
// Predict path, K at a time, and counts answers equal to the float argmax
// of the same weights.
func predictAgreement(t *trainer, eval []darknight.Example) (agree, n int, err error) {
	const k = 4
	for i := 0; i+k <= len(eval); i += k {
		imgs := make([][]float64, k)
		for j := range imgs {
			imgs[j] = eval[i+j].Image
		}
		got, err := t.sys.Predict(imgs)
		if err != nil {
			return 0, 0, fmt.Errorf("masked predict: %w", err)
		}
		for j, c := range got {
			n++
			if t.sys.Evaluate([]darknight.Example{{Image: imgs[j], Label: c}}) == 1 {
				agree++
			}
		}
	}
	return agree, n, nil
}

// trainCounters is a point-in-time read of a System's accessors.
type trainCounters struct {
	phases                 darknight.TrainPhaseStats
	refills                int64
	jobs, bytes            int64
	sealedBytes, sealOps   int64
	flightSum, flightCount float64
	hits, misses           float64
}

func readTrain(sys *darknight.System) (trainCounters, error) {
	c := trainCounters{phases: sys.TrainPhases(), refills: sys.CacheRefills()}
	tr := sys.GPUTraffic()
	c.jobs, c.bytes = tr.Jobs, tr.BytesIn+tr.BytesOut
	e := sys.EnclaveStats()
	c.sealedBytes, c.sealOps = e.SealedBytes, e.SealOps
	var err error
	if c.flightSum, c.flightCount, err = histSumCount(sys.WriteMetrics, flightHist); err != nil {
		return c, err
	}
	if c.hits, err = counterSum(sys.WriteMetrics, "darknight_noisepool_hits_total"); err != nil {
		return c, err
	}
	c.misses, err = counterSum(sys.WriteMetrics, "darknight_noisepool_misses_total")
	return c, err
}

// runTrainTraced is the per-layer run: an untraced and a fully traced
// System take turns training; the traced one's train.vbatch span trees,
// the benchmark's spans around TrainBatch and counter deltas give the
// layer metrics.
func runTrainTraced(r *run, data []darknight.Example) error {
	plain, err := newTrainer(r.seed, trainConfig(r.seed))
	if err != nil {
		return err
	}
	defer plain.sys.Close()
	cfg := trainConfig(r.seed)
	// Generously above the virtual batches the traced rounds can run.
	cfg.Observability = darknight.ObservabilityConfig{TraceSample: 1, TraceKeep: int(r.seconds * 4000)}
	traced, err := newTrainer(r.seed, cfg)
	if err != nil {
		return err
	}
	defer traced.sys.Close()
	for traced.step < trainSteps {
		traced.trainStep(data)
	}
	plain.trainFor(data, r.secs(0.05))

	before, err := readTrain(traced.sys)
	if err != nil {
		return err
	}
	from, firstStep := time.Now(), len(traced.steps)
	plainFirst := len(plain.steps)
	for round := 0; round < 2; round++ {
		plain.trainFor(data, r.secs(0.2))
		traced.trainFor(data, r.secs(0.2))
	}
	after, err := readTrain(traced.sys)
	if err != nil {
		return err
	}
	r.check("integrity failures = 0", traced.integrity+plain.integrity == 0,
		fmt.Sprintf("(%d traced + %d untraced steps)", traced.step, plain.step))
	r.check("every step succeeded or failed typed", traced.untyped+plain.untyped == 0, "")

	// The benchmark's span around each TrainBatch call is a root whose
	// children are the train.vbatch traces that started inside it.
	var vbRoots []*span
	for _, ts := range traced.sys.Observability().Tracer.Recent() {
		if ts.Name() == "train.vbatch" && !ts.Start().Before(from) {
			vbRoots = append(vbRoots, convert(ts))
		}
	}
	stepSpans := nestSteps(traced.steps[firstStep:], vbRoots)
	nSteps := len(stepSpans)
	vbs := float64(nSteps * largeBatch / 4)
	r.check("every traced virtual batch left one trace", float64(len(vbRoots)) == vbs,
		fmt.Sprintf("(%d traces for %g virtual batches)", len(vbRoots), vbs))

	var vbDur, vbSelf, encdec, dispatch, uncovered time.Duration
	for _, st := range stepSpans {
		uncovered += st.selfTime()
		for _, vb := range st.children {
			vbDur += vb.dur()
			vbSelf += vb.selfTime()
			vb.walk(func(s *span) {
				switch s.name {
				case "encode", "decode":
					encdec += s.dur()
				case "dispatch":
					dispatch += s.dur()
				}
			})
		}
	}
	ph := after.phases.Sub(before.phases)
	hits, misses := after.hits-before.hits, after.misses-before.misses
	plainLat := plain.stepMs()[plainFirst:]
	tracedLat := traced.stepMs()[firstStep:]
	plainP50, tracedP50 := median(plainLat), median(tracedLat)
	examples := vbs * 4

	r.printf("per-layer (%s, traced rounds: %d steps, %g virtual batches, %d vbatch traces; byte counts come from tensor sizes, not real transfers):\n",
		r.workload, nSteps, vbs, len(vbRoots))
	for _, name := range []string{"serve.batch_wait_ms", "serve.worker_wait_ms", "serve.occupancy", "fleet.grant_wait_ms"} {
		r.set(name, 0, "not exercised by training (no batcher, no grant span)")
	}
	r.set("fleet.flight_ms", 1000*ratio(after.flightSum-before.flightSum, after.flightCount-before.flightCount),
		fmt.Sprintf("darknight_fleet_flight_latency_seconds mean, n=%g", after.flightCount-before.flightCount))
	r.set("fleet.peak_overlap", float64(traced.sys.FleetStats().PeakOverlap), "largest overlapping dispatches on one gang, lifetime")
	r.setPhases(ph)
	r.set("sched.tee_other_ms", ratio(ms(vbSelf), vbs), "per virtual batch: vbatch span minus its offload children")
	r.set("masking.noisepool_hit_share", ratio(hits, hits+misses), fmt.Sprintf("%g hits, %g misses", hits, misses))
	r.set("masking.integrity_failures", float64(traced.integrity), "failed steps")
	r.set("gpu.jobs_per_req", ratio(float64(after.jobs-before.jobs), examples), fmt.Sprintf("per training example, %d jobs", after.jobs-before.jobs))
	r.set("gpu.bytes_per_req", ratio(float64(after.bytes-before.bytes), examples), "per training example, in+out bytes from tensor sizes")
	r.set("train.step_ms", median(tracedLat), fmt.Sprintf("median traced TrainBatch, n=%d", len(tracedLat)))
	r.set("train.encode_ms", ratio(ms(ph.Encode), vbs), "per virtual batch")
	r.set("train.dispatch_ms", ratio(ms(ph.Dispatch), vbs), "per virtual batch")
	r.set("train.decode_ms", ratio(ms(ph.Decode), vbs), "per virtual batch")
	r.set("train.tee_other_ms", ratio(ms(vbSelf+uncovered), vbs),
		"per virtual batch: vbatch self time + step time outside every vbatch (sealing, aggregation, optimizer)")
	r.set("train.cache_refills", float64(after.refills-before.refills), "counter delta")
	r.set("train.final_loss", traced.finalLoss, fmt.Sprintf("after %d steps", trainSteps))
	r.set("enclave.sealed_bytes_per_vb", ratio(float64(after.sealedBytes-before.sealedBytes), vbs), "Algorithm 2 gradient sealing")
	r.set("enclave.seal_ops_per_vb", ratio(float64(after.sealOps-before.sealOps), vbs), "Algorithm 2 gradient sealing")
	r.set("enclave.peak_bytes", float64(traced.sys.EnclaveStats().PeakUsage), "high-water mark, lifetime")
	for _, name := range []string{"resil.deadline_expired", "resil.shed", "resil.retries"} {
		r.set(name, 0, "not exercised by training (no resilience layer)")
	}
	r.set("unattributed_share", unattributedShare(stepSpans), fmt.Sprintf("TrainBatch time outside every vbatch span, %d steps", nSteps))
	r.set("obs.trace_overhead_share", tracedP50/plainP50-1,
		fmt.Sprintf("traced step p50 %.4g ms (n=%d) vs untraced %.4g ms (n=%d)", tracedP50, len(tracedLat), plainP50, len(plainLat)))
	r.printf("  counts: offloads=%d flights=%d vbatch_time=%s\n", ph.Offloads, ph.Flights, vbDur.Round(time.Millisecond))
	if err := r.paperTrain(vbDur, encdec, dispatch, vbSelf); err != nil {
		return err
	}
	r.res.Attempted = traced.step - firstStep
	r.res.Failed = traced.failed
	return nil
}

// nestSteps turns the benchmark's TrainBatch intervals into root spans
// holding the vbatch traces that started inside each.
func nestSteps(steps []interval, vbs []*span) []*span {
	roots := make([]*span, len(steps))
	for i, iv := range steps {
		roots[i] = &span{name: "TrainBatch", iv: iv}
	}
	for _, vb := range vbs {
		for _, root := range roots {
			if !vb.iv.lo.Before(root.iv.lo) && vb.iv.lo.Before(root.iv.hi) {
				root.children = append(root.children, vb)
				break
			}
		}
	}
	return roots
}
