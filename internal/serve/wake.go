package serve

import "sync"

// WakeSub is one subscriber registration on a wakeSet — the delta hub's
// (SubscribeDeltas, for /v1/watch) or the journal's (SubscribeJournal,
// for /v1/replicate). C carries coalesced wakeups: the publisher puts at
// most one token in the single-slot channel, so a subscriber that fell
// several events behind wakes once and drains, and a publisher never
// blocks on a slow subscriber. The ordering guarantee is the publisher's:
// it makes the new state visible, then wakes, so "read the state, then
// park on C" never misses an event.
type WakeSub struct {
	set *wakeSet
	c   chan struct{}
}

// C returns the coalesced wakeup channel.
func (s *WakeSub) C() <-chan struct{} { return s.c }

// Cancel removes the registration. Safe to call more than once; the
// channel is left open (a buffered token may still be pending).
func (s *WakeSub) Cancel() {
	s.set.mu.Lock()
	delete(s.set.subs, s)
	s.set.mu.Unlock()
}

// wakeSet is the subscriber set behind both planes. The zero value is
// ready to use.
type wakeSet struct {
	mu   sync.Mutex
	subs map[*WakeSub]struct{}
}

func (w *wakeSet) subscribe() *WakeSub {
	sub := &WakeSub{set: w, c: make(chan struct{}, 1)}
	w.mu.Lock()
	if w.subs == nil {
		w.subs = make(map[*WakeSub]struct{})
	}
	w.subs[sub] = struct{}{}
	w.mu.Unlock()
	return sub
}

// wake sends every subscriber one non-blocking token.
func (w *wakeSet) wake() {
	w.mu.Lock()
	for sub := range w.subs {
		select {
		case sub.c <- struct{}{}:
		default: // wakeup already pending; coalesce
		}
	}
	w.mu.Unlock()
}

// len returns the current registration count.
func (w *wakeSet) len() int {
	w.mu.Lock()
	defer w.mu.Unlock()
	return len(w.subs)
}
