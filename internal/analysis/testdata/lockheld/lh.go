// Package lh is golden-test input for the lockheld analyzer.
package lh

import "sync"

type solver struct{}

func (s *solver) Solve() int       { return 0 }
func (s *solver) ReSolveDual() int { return 0 }

type state struct {
	mu  sync.Mutex
	rw  sync.RWMutex
	ch  chan int
	wg  sync.WaitGroup
	sol *solver
}

func sendUnderLock(s *state) {
	s.mu.Lock()
	s.ch <- 1 // want "channel send while s.mu is held"
	s.mu.Unlock()
}

func sendAfterUnlockOK(s *state) {
	s.mu.Lock()
	s.mu.Unlock()
	s.ch <- 1
}

func recvUnderDeferredUnlock(s *state) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return <-s.ch // want "channel receive while s.mu is held"
}

func waitUnderRLock(s *state) {
	s.rw.RLock()
	s.wg.Wait() // want "sync.WaitGroup.Wait while s.rw is held"
	s.rw.RUnlock()
}

func solveUnderLock(s *state) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.sol.Solve() // want "solver entry point Solve while s.mu is held"
}

func resolveInBranch(s *state, b bool) {
	s.mu.Lock()
	if b {
		s.sol.ReSolveDual() // want "solver entry point ReSolveDual"
	}
	s.mu.Unlock()
}

func selectUnderLock(s *state) {
	s.mu.Lock()
	select { // want "select while s.mu is held"
	case v := <-s.ch:
		_ = v
	default:
	}
	s.mu.Unlock()
}

func sendInLoopUnderLock(s *state, n int) {
	s.mu.Lock()
	for i := 0; i < n; i++ {
		s.ch <- i // want "channel send while s.mu is held"
	}
	s.mu.Unlock()
}

func goroutineBodyOK(s *state) {
	s.mu.Lock()
	go func() {
		s.ch <- 1 // runs on its own goroutine, without the lock
	}()
	s.mu.Unlock()
}

func noLockOK(s *state) int {
	s.ch <- 1
	s.wg.Wait()
	return s.sol.Solve()
}

func relockedOK(s *state) {
	s.mu.Lock()
	s.mu.Unlock()
	s.wg.Wait()
	s.mu.Lock()
	s.mu.Unlock()
}

func condWaitOK(c *sync.Cond) {
	c.L.Lock()
	c.Wait() // Cond.Wait releases its locker while blocked: not flagged
	c.L.Unlock()
}

func distinctMutexes(a, b *state) {
	a.mu.Lock()
	a.mu.Unlock()
	b.mu.Lock()
	b.ch <- 1 // want "channel send while b.mu is held"
	b.mu.Unlock()
}

// locked runs f with s.mu held, as the service's state transitions do.
func (s *state) locked(f func(n int)) {
	s.mu.Lock()
	defer s.mu.Unlock()
	f(1)
}

// unlocked runs f after releasing s.mu.
func (s *state) unlocked(f func()) {
	s.mu.Lock()
	s.mu.Unlock()
	f()
}

func sendInLockedClosure(s *state) {
	s.locked(func(n int) {
		select { // want "select while s.mu is held"
		case s.ch <- n:
		default:
		}
	})
}

func closureOutsideLockOK(s *state) {
	s.unlocked(func() { s.ch <- 1 })
	s.locked(func(int) {
		go func() { s.ch <- 1 }()
	})
}
