package sched

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"
)

// walkTenant is one tenant of a sequence walk.
type walkTenant struct {
	name                     string
	running, pending, queued int
}

// walk is a controller's tenant picture as it moves one delta at a time,
// the sequence a controller's round sees between its calls.
type walk struct {
	rng     *rand.Rand
	cfg     FairShareConfig
	total   int
	free    int
	tenants []walkTenant // sorted by name
}

var walkNames = []string{"a", "b", "c", "d", "default", "e", "f", "g", "h", "i"}

func newWalk(rng *rand.Rand) *walk {
	w := &walk{rng: rng, total: 10 + rng.Intn(150)}
	names := append([]string(nil), walkNames...)
	rng.Shuffle(len(names), func(i, j int) { names[i], names[j] = names[j], names[i] })
	for _, name := range names[:rng.Intn(5)] {
		spec := QueueSpec{Name: name, Weight: float64(rng.Intn(4))} // 0 reads as 1
		if rng.Intn(2) == 0 {
			spec.Quota = 1 + rng.Intn(40)
		}
		w.cfg.Queues = append(w.cfg.Queues, spec)
	}
	for k := 1 + rng.Intn(3); k > 0; k-- {
		w.addTenant()
	}
	w.settle()
	return w
}

// addTenant adds a tenant the walk does not hold yet, with queued work.
func (w *walk) addTenant() bool {
	for _, k := range w.rng.Perm(len(walkNames)) {
		name := walkNames[k]
		i := sort.Search(len(w.tenants), func(i int) bool { return w.tenants[i].name >= name })
		if i < len(w.tenants) && w.tenants[i].name == name {
			continue
		}
		t := walkTenant{name: name, pending: 1 + w.rng.Intn(60)}
		t.queued = 1 + w.rng.Intn(3)
		w.tenants = append(w.tenants, walkTenant{})
		copy(w.tenants[i+1:], w.tenants[i:])
		w.tenants[i] = t
		return true
	}
	return false
}

// settle sets the free count a controller would report: what the tenants
// do not run, and now and then a pool that reports more.
func (w *walk) settle() {
	running := 0
	for _, t := range w.tenants {
		running += t.running
	}
	w.free = max(w.total-running, 0)
	if w.rng.Intn(8) == 0 {
		w.free += w.rng.Intn(20)
	}
}

// pick returns a random tenant index satisfying ok, or -1.
func (w *walk) pick(ok func(*walkTenant) bool) int {
	for _, i := range w.rng.Perm(len(w.tenants)) {
		if ok(&w.tenants[i]) {
			return i
		}
	}
	return -1
}

// quotaOf returns the tenant's declared quota, 0 when it has none.
func (w *walk) quotaOf(name string) int {
	for _, q := range w.cfg.Queues {
		if q.Name == name {
			return q.Quota
		}
	}
	return 0
}

// step applies one delta and names it.
func (w *walk) step() string {
	anyTenant := func(*walkTenant) bool { return true }
	switch w.rng.Intn(10) {
	case 0, 1: // a finish
		if i := w.pick(func(t *walkTenant) bool { return t.running > 0 }); i >= 0 {
			w.tenants[i].running--
			return "finish"
		}
	case 2, 3: // a launch
		if i := w.pick(func(t *walkTenant) bool { return t.pending > 0 }); i >= 0 {
			t := &w.tenants[i]
			n := 1 + w.rng.Intn(min(t.pending, 4))
			t.pending -= n
			t.running += n
			if t.pending == 0 {
				t.queued = w.rng.Intn(2) // a stale entry may linger
			}
			return "launch"
		}
	case 4: // a new tenant
		if w.addTenant() {
			return "new tenant"
		}
	case 5: // capacity lost, or regained
		if w.rng.Intn(2) == 0 {
			w.total = max(w.total-1-w.rng.Intn(w.total/4+1), 1)
			return "capacity lost"
		}
		w.total += 1 + w.rng.Intn(40)
		return "capacity regained"
	case 6: // a tenant's demand falls below its slice
		if i := w.pick(anyTenant); i >= 0 {
			t := &w.tenants[i]
			t.pending = w.rng.Intn(3)
			t.queued = min(t.queued, t.pending)
			return "demand falls"
		}
	case 7: // an unsaturated pool: every queue fills
		demand := 0
		for _, t := range w.tenants {
			demand += t.running + t.pending
		}
		w.total = demand + w.rng.Intn(20)
		return "unsaturated"
	case 8: // a quota edge: demand at the quota, one under or one over
		if i := w.pick(func(t *walkTenant) bool { return w.quotaOf(t.name) > 0 }); i >= 0 {
			t := &w.tenants[i]
			t.pending = max(w.quotaOf(t.name)+w.rng.Intn(3)-1-t.running, 0)
			t.queued = max(t.queued, min(t.pending, 1))
			return "quota edge"
		}
	case 9: // a burst of new work
		if i := w.pick(anyTenant); i >= 0 {
			t := &w.tenants[i]
			t.pending += 1 + w.rng.Intn(80)
			t.queued++
			return "burst"
		}
	}
	return "nothing"
}

// round builds the policy's inputs: the view, one queue entry per queued
// request (a tenant's pending tasks spread over its entries, queue order
// interleaving tenants) and up to three gangs per tenant.
func (w *walk) round() ([]Item, []Gang, View) {
	view := View{TotalExecutors: w.total, FreeExecutors: w.free, Tenants: make([]TenantUsage, len(w.tenants))}
	var items []Item
	var gangs []Gang
	for ti, t := range w.tenants {
		view.Tenants[ti] = TenantUsage{Tenant: t.name, Running: t.running, Pending: t.pending, Queued: t.queued}
		left := t.pending
		for k := 0; k < t.queued; k++ {
			it := Item{Job: fmt.Sprintf("%s-q%d", t.name, k), Tenant: t.name, Seq: ti*10 + k}
			if k == t.queued-1 {
				it.Pending = left
			} else {
				it.Pending = left / 2
			}
			left -= it.Pending
			items = append(items, it)
		}
		for k, left := 0, t.running; left > 0; k++ {
			g := Gang{Job: fmt.Sprintf("%s-r%d", t.name, k), Tenant: t.name, Running: left, Seq: ti*10 + k}
			if k < 2 {
				g.Running = 1 + w.rng.Intn(left)
			}
			left -= g.Running
			gangs = append(gangs, g)
		}
	}
	w.rng.Shuffle(len(items), func(i, j int) { items[i], items[j] = items[j], items[i] })
	for i := range items {
		items[i].Index = i
	}
	return items, gangs, view
}

// TestRoundMatchesFreshSequence drives one controller's round through
// random walks of views, one delta per step — a finish, a launch, a new
// tenant, capacity lost and regained, a tenant's demand falling below its
// slice, an unsaturated pool where every queue fills, a quota edge — and
// at each step holds its Proportion, JobOrder and Preempt to a fresh
// FairShare's and the oracle's, answer for answer. The walk must both
// reuse the kept water-fill and refill it, or it tests neither.
func TestRoundMatchesFreshSequence(t *testing.T) {
	rng := rand.New(rand.NewSource(52))
	calls, fills, victims := 0, 0, 0
	kinds := map[string]int{}
	for walkNo := 0; walkNo < 300; walkNo++ {
		w := newWalk(rng)
		r := NewFairShare(w.cfg).NewRound().(*round)
		for stepNo := 0; stepNo < 60; stepNo++ {
			kind := "start"
			if stepNo > 0 {
				kind = w.step()
				w.settle()
			}
			kinds[kind]++
			items, gangs, view := w.round()
			fresh, o := NewFairShare(w.cfg), &oracleFairShare{cfg: w.cfg}
			fail := func(what string, got, want any) {
				t.Fatalf("walk %d step %d (%s) %s:\n round %+v\n want  %+v\n cfg %+v\n view %+v\n items %+v",
					walkNo, stepNo, kind, what, got, want, w.cfg, view, items)
			}
			gotS := r.Proportion(view)
			if want := fresh.Proportion(view); !reflect.DeepEqual(gotS, want) {
				fail("Proportion against a fresh FairShare", gotS, want)
			}
			if want := o.Proportion(view); !reflect.DeepEqual(gotS, want) {
				fail("Proportion against the oracle", gotS, want)
			}
			gotG := r.JobOrder(items, view)
			if want := fresh.JobOrder(items, view); !reflect.DeepEqual(gotG, want) {
				fail("JobOrder against a fresh FairShare", gotG, want)
			}
			if want := o.JobOrder(items, view); !reflect.DeepEqual(gotG, want) {
				fail("JobOrder against the oracle", gotG, want)
			}
			gotV := r.Preempt(items, gangs, view)
			if want := fresh.Preempt(items, gangs, view); !reflect.DeepEqual(gotV, want) {
				fail("Preempt against a fresh FairShare", gotV, want)
			}
			if want := o.Preempt(items, gangs, view); !reflect.DeepEqual(gotV, want) {
				fail("Preempt against the oracle", gotV, want)
			}
			victims += len(gotV)
			calls += 3
		}
		fills += r.fills
	}
	reuses := calls - fills
	t.Logf("%d calls: %d reused the kept water-fill, %d refilled; %d victims; steps %v", calls, reuses, fills, victims, kinds)
	if reuses < calls/4 || fills < calls/20 || victims == 0 {
		t.Fatalf("walk too tame: %d reuses and %d refills over %d calls, %d victims", reuses, fills, calls, victims)
	}
	for _, kind := range []string{"finish", "launch", "new tenant", "capacity lost", "capacity regained",
		"demand falls", "unsaturated", "quota edge"} {
		if kinds[kind] == 0 {
			t.Fatalf("no %q step in the walk", kind)
		}
	}
}
