package main

import (
	"strings"
	"sync"
	"time"

	"repro/internal/monitor"
	"repro/internal/obs"
	"repro/internal/store"
)

// subBuffer is the subscription's event buffer: room for every push of
// several seconds of commits, so a subscriber that falls behind shows as a
// drop in the run's health instead of silently stalling the monitor.
const subBuffer = 4096

// standing is update-mix's monitor under test, with one subscription to
// every standing query.
type standing struct {
	m     *monitor.Monitor
	hist  *obs.Histogram // the program's own commit → push time
	st    *store.Store
	close func()
	specs map[uint64]monitor.Spec
	sub   *subscriber
}

// monCounters are the monitor counters the layer metrics read.
type monCounters struct {
	gaps, affected, pruned, reevals, pushes, dropped, earlyExits, reused, derived uint64
	stateBytes                                                                    int64
}

// newStanding starts a monitor over the env's store, registers specs and
// subscribes to all of them.
func newStanding(e *env, specs []monitor.Spec) (*standing, error) {
	s := &standing{st: e.stores[0], specs: map[uint64]monitor.Spec{}}
	s.hist = obs.NewHistogram("bench_push_seconds", "commit to push", expBuckets(1e-5, 1.25, 60))
	m, err := monitor.New(monitor.Config{Store: s.st, PushLatency: s.hist})
	if err != nil {
		return nil, err
	}
	s.m = m
	for _, sp := range specs {
		stt, err := m.Register(sp)
		if err != nil {
			m.Close()
			return nil, err
		}
		s.specs[stt.ID] = sp
	}
	sub, err := m.Subscribe(nil, subBuffer)
	if err != nil {
		m.Close()
		return nil, err
	}
	s.close = func() { sub.Close(); m.Close() }
	s.sub = subscribe(sub.C())
	return s, nil
}

// stop closes the monitor and waits for the subscriber to drain.
func (s *standing) stop() {
	s.close()
	<-s.sub.done
}

// fresh evaluates a spec from scratch on the final view.
func (s *standing) fresh(sp monitor.Spec) ([]byte, error) {
	body, _, err := monitor.Evaluate(s.st.View(), nil, nil, sp)
	return body, err
}

func (s *standing) counters() monCounters {
	st := s.m.Stats()
	return monCounters{gaps: st.Gaps, affected: st.Affected, pruned: st.Pruned, reevals: st.ReEvals,
		pushes: st.Pushes, dropped: st.Dropped, earlyExits: st.EarlyExits,
		reused: st.IncrementalReused, derived: st.IncrementalDerived, stateBytes: st.StateBytes}
}

// hookP50ms is the program's own commit → push median.
func (s *standing) hookP50ms() float64 {
	var b strings.Builder
	s.hist.WritePrometheus(&b)
	return histP50(b.String()) * 1000
}

// subscriber drains a monitor subscription until it closes.
type subscriber struct {
	mu     sync.Mutex
	pushes []pushRec
	lagged int
	done   chan struct{}
}

// pushRec is one update event the subscriber received.
type pushRec struct {
	version uint64
	at      time.Time
}

func subscribe(ch <-chan monitor.Event) *subscriber {
	s := &subscriber{done: make(chan struct{})}
	go func() {
		defer close(s.done)
		for ev := range ch {
			now := time.Now()
			s.mu.Lock()
			switch ev.Type {
			case monitor.EventUpdate:
				s.pushes = append(s.pushes, pushRec{version: ev.Update.Version, at: now})
			case monitor.EventLagged:
				s.lagged++
			}
			s.mu.Unlock()
		}
	}()
	return s
}

// mark returns the number of pushes received so far.
func (s *subscriber) mark() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.pushes)
}

// since returns the pushes received after mark i.
func (s *subscriber) since(i int) []pushRec {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]pushRec(nil), s.pushes[i:]...)
}

func (s *subscriber) laggedEvents() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.lagged
}
