package main

import (
	"context"
	"math"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"darknight"
)

// arrival is one scheduled request: when it is due, relative to the start
// of its phase, and which input image it carries.
type arrival struct {
	due time.Duration
	img int
}

// poissonSchedule draws open-loop Poisson arrivals at rate requests/s over
// dur: exponential gaps, each request carrying a uniformly drawn image
// from a pool of nImg.
func poissonSchedule(rng *rand.Rand, rate float64, dur time.Duration, nImg int) []arrival {
	var out []arrival
	t := 0.0
	for {
		t += rng.ExpFloat64() / rate
		d := time.Duration(t * float64(time.Second))
		if d >= dur {
			return out
		}
		out = append(out, arrival{due: d, img: rng.Intn(nImg)})
	}
}

// outcome classifies how one request ended.
type outcome int

const (
	okAnswer  outcome = iota
	shed              // refused at admission (typed ErrShed)
	expired           // deadline budget ran out (typed ErrDeadline)
	integrity         // the integrity check rejected the GPU results
	untyped           // any other error: a correctness failure
)

func classify(err error) outcome {
	switch {
	case err == nil:
		return okAnswer
	case darknight.IsShed(err):
		return shed
	case darknight.IsIntegrityError(err):
		return integrity
	case darknight.IsDeadline(err):
		return expired
	}
	return untyped
}

// reqResult is one request's record. Times are relative to phase start.
type reqResult struct {
	due, sent, start, end time.Duration
	class                 int
	out                   outcome
	img                   int
}

// latencyMs is the request's latency from when it was due, +Inf when it
// failed: a failed request misses every latency limit.
func (r reqResult) latencyMs() float64 {
	if r.out != okAnswer {
		return math.Inf(1)
	}
	return float64(r.end-r.due) / float64(time.Millisecond)
}

// phase is one open-loop run of a schedule against a server.
type phase struct {
	name     string
	rate     float64
	dur      time.Duration
	origin   time.Time // wall clock of offset 0
	results  []reqResult
	inflight []int // in-flight requests sampled every sampleEvery
}

const sampleEvery = 10 * time.Millisecond

// runPhase sends every arrival of sched at its due time, each request on
// its own goroutine so a slow reply never delays the next send, and waits
// for all of them. A late generator sends the overdue requests at once;
// their latency still counts from the due time.
func runPhase(name string, rate float64, dur time.Duration, sched []arrival,
	infer func(ctx context.Context, img int) (int, error)) *phase {
	p := &phase{name: name, rate: rate, dur: dur, results: make([]reqResult, len(sched))}
	var done atomic.Int64
	var wg sync.WaitGroup
	p.origin = time.Now()
	nextSample := time.Duration(0)
	for i := 0; i < len(sched); {
		now := time.Since(p.origin)
		for ; i < len(sched) && sched[i].due <= now; i++ {
			idx, a := i, sched[i]
			sent := time.Since(p.origin)
			wg.Add(1)
			go func() {
				defer wg.Done()
				start := time.Since(p.origin)
				cls, err := infer(context.Background(), a.img)
				p.results[idx] = reqResult{due: a.due, sent: sent, start: start,
					end: time.Since(p.origin), class: cls, out: classify(err), img: a.img}
				done.Add(1)
			}()
		}
		for ; nextSample <= now; nextSample += sampleEvery {
			p.inflight = append(p.inflight, i-int(done.Load()))
		}
		if i < len(sched) {
			if wait := sched[i].due - time.Since(p.origin); wait > 0 {
				time.Sleep(wait)
			}
		}
	}
	wg.Wait()
	return p
}

// counts tallies the phase's outcomes.
func (p *phase) counts() (ok, shedN, expiredN, integrityN, untypedN int) {
	for _, r := range p.results {
		switch r.out {
		case okAnswer:
			ok++
		case shed:
			shedN++
		case expired:
			expiredN++
		case integrity:
			integrityN++
		default:
			untypedN++
		}
	}
	return
}

// latencies returns every request's latency from due time, ms.
func (p *phase) latencies() []float64 {
	out := make([]float64, len(p.results))
	for i, r := range p.results {
		out[i] = r.latencyMs()
	}
	return out
}

// lateness returns the generator's lateness per request (send minus due), ms.
func (p *phase) lateness() []float64 {
	out := make([]float64, len(p.results))
	for i, r := range p.results {
		out[i] = float64(r.sent-r.due) / float64(time.Millisecond)
	}
	return out
}
