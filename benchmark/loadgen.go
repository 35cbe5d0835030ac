package main

import (
	"math"
	"math/rand/v2"
	"sync"
	"time"
)

// arrival is one planned request of an open-loop run: due At after the
// step starts, aimed at queue Queue (one queue per served session, so a
// session never has more than one request in flight), with Op and R
// choosing the request and its payload.
type arrival struct {
	At    time.Duration
	Queue int
	Op    int
	R     uint64
}

// poissonTimes draws the arrival offsets of a Poisson process at rate
// per second over [0, dur). The schedule is a function of its arguments
// alone.
func poissonTimes(seed uint64, rate float64, dur time.Duration) []time.Duration {
	r := rand.New(rand.NewPCG(seed, math.Float64bits(rate)))
	var out []time.Duration
	for t := r.ExpFloat64() / rate; t < dur.Seconds(); t += r.ExpFloat64() / rate {
		out = append(out, time.Duration(t*float64(time.Second)))
	}
	return out
}

// sample is one request's timing: Due is when the schedule wanted it
// sent, Lag how late the generator handed it to its queue, Sent when its
// queue started it and Done when it completed. Dropped marks a request
// never sent because the step was abandoned.
type sample struct {
	Due, Sent, Done time.Time
	Lag             time.Duration
	OK, Dropped     bool
}

// latency is the request's latency from its due time: a stall charges its
// wait to every request queued behind it, not only to the one in service.
func (s sample) latency() time.Duration { return s.Done.Sub(s.Due) }

// openLoop runs the schedule from start: one generator goroutine hands
// each arrival to its queue at its due time, whatever the system's state,
// and one worker per queue executes its queue's requests in order with
// exec. Requests still queued at abandon are dropped unsent. openLoop
// returns once every worker has finished, with one sample per arrival.
func openLoop(start time.Time, arrivals []arrival, nQueues int, abandon time.Time, exec func(a arrival) bool) []sample {
	samples := make([]sample, len(arrivals))
	queues := make([]chan int, nQueues)
	var wg sync.WaitGroup
	for q := range queues {
		// Sized for every arrival so the generator never blocks: an open
		// loop must keep its schedule while the system stalls.
		queues[q] = make(chan int, len(arrivals))
		wg.Add(1)
		go func(q chan int) {
			defer wg.Done()
			for i := range q {
				s := &samples[i]
				if time.Now().After(abandon) {
					s.Dropped = true
					continue
				}
				s.Sent = time.Now()
				s.OK = exec(arrivals[i])
				s.Done = time.Now()
			}
		}(queues[q])
	}
	for i, a := range arrivals {
		due := start.Add(a.At)
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		samples[i].Due = due
		samples[i].Lag = time.Since(due)
		queues[a.Queue] <- i
	}
	for _, q := range queues {
		close(q)
	}
	wg.Wait()
	return samples
}
