// Package order seeds nested mutex acquisitions for the lockdiscipline
// golden tests. Every mutex is a leaf, so each shape is a finding whether
// or not some other function takes the pair in the opposite order.
package order

import "sync"

// A and B are two mutex classes acquired in opposite orders across the
// two files of this package: a lock-order inversion.
type A struct {
	mu sync.Mutex
	n  int
}

type B struct {
	mu sync.Mutex
	n  int
}

// lockAB acquires B.mu — through a helper in the other file — while A.mu
// is held: the A.mu -> B.mu half of the inversion.
func lockAB(a *A, b *B) {
	a.mu.Lock()
	lockB(b) // want lockdiscipline "call to order.lockB while a.mu is held transitively reaches acquisition of b.mu"
	a.mu.Unlock()
}

// lockAA nests two mutexes of one class: two callers passing the same
// pair in opposite argument order deadlock.
func lockAA(x, y *A) {
	x.mu.Lock()
	y.mu.Lock() // want lockdiscipline "acquisition of y.mu while x.mu is held"
	y.n = x.n
	y.mu.Unlock()
	x.mu.Unlock()
}
