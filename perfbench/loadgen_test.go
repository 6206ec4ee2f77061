package main

import (
	"context"
	"errors"
	"math/rand"
	"testing"
	"time"

	"darknight"
)

func TestRunPhaseRecordsEveryRequest(t *testing.T) {
	sched := poissonSchedule(rand.New(rand.NewSource(3)), 2000, 200*time.Millisecond, 8)
	p := runPhase("test", 2000, 200*time.Millisecond, sched, func(ctx context.Context, img int) (int, error) {
		time.Sleep(time.Millisecond)
		switch img {
		case 6:
			return 0, darknight.ErrShed
		case 7:
			return 0, errors.New("boom")
		}
		return img % 4, nil
	})
	if len(p.results) != len(sched) {
		t.Fatalf("%d results for %d arrivals", len(p.results), len(sched))
	}
	ok, shedN, _, _, other := p.counts()
	want := [3]int{}
	for _, a := range sched {
		switch a.img {
		case 6:
			want[1]++
		case 7:
			want[2]++
		default:
			want[0]++
		}
	}
	if [3]int{ok, shedN, other} != want {
		t.Errorf("ok/shed/untyped = %v, want %v", [3]int{ok, shedN, other}, want)
	}
	for i, r := range p.results {
		if r.end < r.start || r.start < r.sent || r.sent < r.due {
			t.Fatalf("request %d has times out of order: %+v", i, r)
		}
		if r.out == okAnswer && r.class != r.img%4 {
			t.Fatalf("request %d answered %d for image %d", i, r.class, r.img)
		}
	}
	if len(p.inflight) == 0 {
		t.Error("no in-flight samples")
	}
}

func TestMemMonitorStops(t *testing.T) {
	m := startMemMonitor()
	time.Sleep(3 * memSampleEvery)
	if peak := m.stop(); peak <= 0 || m.samples < 2 {
		t.Errorf("peak %g MB over %d samples", peak, m.samples)
	}
}
