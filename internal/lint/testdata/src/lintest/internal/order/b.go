package order

import "sync"

// lockB is the helper lockAB launders its B.mu acquisition through.
func lockB(b *B) {
	b.mu.Lock()
	b.n++
	b.mu.Unlock()
}

// lockBA acquires A.mu directly while B.mu is held: the B.mu -> A.mu half
// of the inversion, in the opposite order to lockAB.
func lockBA(a *A, b *B) {
	b.mu.Lock()
	a.mu.Lock() // want lockdiscipline "acquisition of a.mu while b.mu is held"
	a.n++
	a.mu.Unlock()
	b.mu.Unlock()
}

// C and D are always acquired in the same order. No inversion exists, but
// a nested acquisition is still a finding: the leaf rule does not depend
// on what every other function does.
type C struct {
	mu sync.Mutex
	n  int
}

type D struct {
	mu sync.Mutex
	n  int
}

func lockCD(c *C, d *D) {
	c.mu.Lock()
	d.mu.Lock() // want lockdiscipline "acquisition of d.mu while c.mu is held"
	d.n++
	d.mu.Unlock()
	c.mu.Unlock()
}

// lockCDDeep reaches D.mu two calls down.
func lockCDDeep(c *C, d *D) {
	c.mu.Lock()
	bumpD(d) // want lockdiscipline "call to order.bumpD while c.mu is held transitively reaches acquisition of d.mu"
	c.mu.Unlock()
}

func bumpD(d *D) { lockD(d) }

func lockD(d *D) {
	d.mu.Lock()
	d.n++
	d.mu.Unlock()
}

// lockCThenD releases C.mu before taking D.mu: clean.
func lockCThenD(c *C, d *D) {
	c.mu.Lock()
	c.n++
	c.mu.Unlock()
	lockD(d)
}
