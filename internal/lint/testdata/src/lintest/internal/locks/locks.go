// Package locks seeds lock-discipline violations for the golden tests.
package locks

import (
	"sync"

	"lintest/internal/rpc"
)

type box struct {
	mu sync.Mutex
	rw sync.RWMutex
	n  int
}

// forgotten unlock: rule 1.
func (b *box) leak() {
	b.mu.Lock() // want lockdiscipline "without a matching Unlock"
	b.n++
}

// channel send while held: rule 2.
func (b *box) sendHeld(ch chan int) {
	b.mu.Lock()
	defer b.mu.Unlock()
	ch <- b.n // want lockdiscipline "channel send while b.mu is held"
}

// rpc client call while held: rule 2.
func (b *box) rpcHeld(c *rpc.Client) {
	b.mu.Lock()
	defer b.mu.Unlock()
	_ = c.Call("status") // want lockdiscipline "rpc client call while b.mu is held"
}

// channel receive while held: rule 2.
func (b *box) recvHeld(ch chan int) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.n = <-ch // want lockdiscipline "channel receive while b.mu is held"
}

// waiting for a group while held: rule 2.
func (b *box) waitHeld(wg *sync.WaitGroup) {
	b.rw.RLock()
	wg.Wait() // want lockdiscipline "sync.WaitGroup.Wait while b.rw is held"
	b.rw.RUnlock()
}

// a select without default while held: one finding for the select, none
// for its cases.
func (b *box) selectHeld(ch chan int, done chan struct{}) {
	b.mu.Lock()
	defer b.mu.Unlock()
	select { // want lockdiscipline "select without default while b.mu is held"
	case v := <-ch:
		b.n = v
	case <-done:
	}
}

// a select with a default never blocks, and a spawned goroutine does not
// block its spawner: clean.
func (b *box) nonBlockingHeld(ch chan int) {
	b.mu.Lock()
	defer b.mu.Unlock()
	select {
	case ch <- b.n:
	default:
	}
	go func() { ch <- 1 }()
}

// released before the send: clean.
func (b *box) sendAfter(ch chan int) {
	b.mu.Lock()
	n := b.n
	b.mu.Unlock()
	ch <- n
}

// rpc call after release: clean.
func (b *box) rpcAfter(c *rpc.Client) error {
	b.mu.Lock()
	b.n++
	b.mu.Unlock()
	return c.Call("status")
}

// read lock pairing with RUnlock: clean.
func (b *box) read() int {
	b.rw.RLock()
	defer b.rw.RUnlock()
	return b.n
}

// a closure is its own scope: the Lock inside must unlock inside.
func (b *box) closureLeak() func() {
	return func() {
		b.mu.Lock() // want lockdiscipline "without a matching Unlock"
		b.n++
	}
}

// blockHelper parks on the channel: a may-block fact the interprocedural
// rule must see through.
func blockHelper(ch chan int) int {
	return <-ch
}

// transitive blocking while held: rule 2, one frame down.
func (b *box) recvHeldTransitively(ch chan int) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.n = blockHelper(ch) // want lockdiscipline "transitively reaches channel receive"
}

// rpcLaundered hides the client call one frame down.
func rpcLaundered(c *rpc.Client) error {
	return c.Call("status")
}

// laundering the rpc call through a helper must not evade rule 2.
func (b *box) rpcHeldTransitively(c *rpc.Client) {
	b.mu.Lock()
	defer b.mu.Unlock()
	_ = rpcLaundered(c) // want lockdiscipline "transitively reaches rpc client call"
}

// released before the helper parks: clean.
func (b *box) recvAfterHelper(ch chan int) int {
	b.mu.Lock()
	b.n++
	b.mu.Unlock()
	return blockHelper(ch)
}

// mapSendHeld lands two analyzers on one line — the byte-stable ordering
// regression fixture.
func (b *box) mapSendHeld(m map[string]int, ch chan int) {
	b.mu.Lock()
	defer b.mu.Unlock()
	for _, v := range m {
		ch <- v // want determinism "channel send inside map iteration" want lockdiscipline "channel send while b.mu is held"
	}
}

// an early-return Unlock ends the region only inside its own block: the
// send after the if still runs under the mutex (rule 2).
func (b *box) sendAfterEarlyUnlock(ch chan int, skip bool) {
	b.mu.Lock()
	if skip {
		b.mu.Unlock()
		return
	}
	ch <- b.n // want lockdiscipline "channel send while b.mu is held"
	b.mu.Unlock()
}

// an early return that forgets its Unlock: rule 1, reported at the return.
func (b *box) earlyReturnHeld(skip bool) int {
	b.mu.Lock()
	if skip {
		return 0 // want lockdiscipline "return while b.mu is held skips its Unlock"
	}
	n := b.n
	b.mu.Unlock()
	return n
}

// an Unlock on one branch only leaves the mutex held on the other: rule 1.
func (b *box) unlockOnOneBranch(skip bool) {
	b.mu.Lock() // want lockdiscipline "still held where the function ends"
	if !skip {
		b.mu.Unlock()
	}
}

// every path releases, and the loop without a condition never falls
// through to the end of the function: clean.
func (b *box) releaseInLoop(ch chan int) {
	b.mu.Lock()
	for {
		if b.n > 0 {
			b.mu.Unlock()
			ch <- 1
			return
		}
		b.n++
	}
}
