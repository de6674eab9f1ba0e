package stream

import "time"

// Source produces the event stream. Next blocks until the next event
// may be injected (rate pacing lives in the source) and returns its
// global sequence number; ok=false means the stream is exhausted.
// Sources are driven by a single injector goroutine, so they need not
// be safe for concurrent use.
type Source interface {
	Next() (seq int64, ok bool)
}

// Rater is an optional Source refinement reporting the configured
// offered rate in events/second (0 = unbounded). The run loop uses it
// for the achieved-vs-offered comparison.
//
// Rate() == 0 is also a promise that Next never waits: it returns at
// once with the next event or with ok=false. On that promise
// rts.RunStream sends entries to its workers in runs, holding up to
// chunk−1 admitted entries (chunk is 32) while it calls Next for the
// rest of a run. A source that may wait — paced, or fed from outside —
// must report a non-zero rate or not implement Rater; each of its
// entries is then sent as soon as it is admitted.
type Rater interface {
	Rate() float64
}

// CountSource emits sequence numbers 0..N-1, paced to a configured
// rate. Pacing is absolute — event i is due at start + i/rate — so a
// backlogged injector catches up at full speed instead of compounding
// the delay (open-loop load generation; closed-loop pacing would hide
// overload by slowing the offered rate to match the system).
type CountSource struct {
	n     int64
	rate  float64
	next  int64
	start time.Time
}

// NewCountSource returns a source of n events offered at eventsPerSec
// (0 = as fast as the injector can admit them).
func NewCountSource(n int64, eventsPerSec float64) *CountSource {
	return &CountSource{n: n, rate: eventsPerSec}
}

// Next implements Source.
func (s *CountSource) Next() (int64, bool) {
	if s.next >= s.n {
		return 0, false
	}
	seq := s.next
	s.next++
	if s.rate > 0 {
		if s.start.IsZero() {
			s.start = time.Now()
		}
		due := s.start.Add(time.Duration(float64(seq) / s.rate * float64(time.Second)))
		// Only sleep when meaningfully ahead of schedule: sub-millisecond
		// sleeps cost far more than they wait, which would throttle high
		// rates to the timer resolution. Releasing up to pacingFloor
		// early doesn't compound — due times are absolute — so the
		// stream becomes slightly bursty at millisecond scale while the
		// average rate stays exact.
		if d := time.Until(due); d > pacingFloor {
			time.Sleep(d)
		}
	}
	return seq, true
}

// pacingFloor is the smallest schedule lead worth sleeping for.
const pacingFloor = 500 * time.Microsecond

// Rate implements Rater.
func (s *CountSource) Rate() float64 { return s.rate }
